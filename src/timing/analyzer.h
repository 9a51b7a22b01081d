// timing::Analyzer — the engine-neutral analysis seam.
//
// The paper's StatisticalGreedy alternates a fast inner scorer (FASSTA) and
// an accurate outer confirmer (FULLSSTA); area recovery also screens with
// deterministic STA. `Analyzer` puts these three what-if engines behind one
// interface:
//
//   auto an = timing::make_analyzer("fullssta");      // by engine name
//   const timing::Summary& s = an->analyze(ctx);      // full analysis
//   auto spec = an->propose(gate, size);              // transactional what-if
//   double cost = spec->score().mean_ps + lambda * spec->score().sigma_ps;
//   spec->commit();   // or spec->rollback();
//
// The transaction lifecycle: analyze(ctx) establishes the analyzer's *base
// state* (netlist sizing + timing snapshot + cached engine results);
// propose() opens a speculation against it; score() evaluates the engine as
// if the resizes were applied, touching neither the netlist, the context
// nor the base; commit() applies the resizes, refreshes context and
// base, and invalidates every other outstanding speculation — it either
// completes or changes nothing; rollback(), or destroying the speculation,
// discards it. The methods of Speculation below spell out each step.
//
// Every speculation scores privately and incrementally: it re-propagates
// only the candidate's fanout cone against a private overlay (timing/cone.h)
// and commits by patching the snapshot in place; score and committed base
// are bitwise-identical to a from-scratch TimingContext::update() + full
// engine run of the resized netlist. The other timing engines (canonical
// SSTA, Monte Carlo, ISLE) have no what-if: call ssta::run_canonical,
// ssta::run_monte_carlo, ssta::run_isle or core::Flow::estimate_yield.
//
// Thread-safety contract (see docs/ARCHITECTURE.md): the Analyzer itself is
// shared; Speculations are per-worker. Any number of speculations from the
// same base may be propose()d and score()d concurrently — each one only
// reads the shared base. commit(), rollback(), and analyze() are serial
// operations (no speculation may be scoring while they run). Inside one
// score, the fullssta what-if walks its cone on AnalyzerOptions::threads
// workers with a bitwise-identical result for any count; the optimizer's
// confirmation walk (opt/confirm.h) scores one candidate at a time on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fassta/engine.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "sta/graph.h"

namespace statsizer::timing {

/// Engine-neutral analysis result. analyze() / current() fill mean_ps,
/// sigma_ps and node, and fullssta also output_pdf (size 0 from the other
/// engines). Speculative scores (Speculation::score) fill only
/// mean_ps/sigma_ps.
struct Summary {
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
  /// Per-node arrival moments, indexed by GateId.
  std::vector<sta::NodeMoments> node;
  /// Circuit-delay pdf: the statistical max over primary outputs (fullssta).
  pdf::DiscretePdf output_pdf;
};

/// One hypothetical resize: bind @p gate to size index @p size of its group.
struct Resize {
  netlist::GateId gate = netlist::kNoGate;
  std::uint16_t size = 0;
};

/// What one exact what-if recomputed: Speculation::replayed(), after score().
struct ReplayCounts {
  std::size_t cone_slots = 0;   ///< nodes of the resize set's fanout cone
  std::size_t front_slots = 0;  ///< of them, re-relaxed: the change front
};

/// A transactional what-if opened by Analyzer::propose. See the lifecycle in
/// the header comment. Not copyable; owned by the caller.
class Speculation {
 public:
  virtual ~Speculation() = default;
  Speculation(const Speculation&) = delete;
  Speculation& operator=(const Speculation&) = delete;

  /// Evaluates the engine as if the resizes were applied. Cached: repeated
  /// calls return the same object, and a score computed before a sibling's
  /// commit stays readable afterwards. Computing a *fresh* score after a
  /// sibling speculation committed (or analyze() re-based) throws
  /// std::logic_error — the base it would evaluate against is gone.
  virtual const Summary& score() = 0;

  /// Applies the resizes to the netlist, refreshes the TimingContext and the
  /// analyzer's base state, and invalidates sibling speculations. After
  /// commit, Analyzer::current() equals a from-scratch analyze() of the new
  /// state, bitwise. Only the score a commit needs can abort, before
  /// anything changed. Committing twice is a no-op; committing an
  /// invalidated speculation throws std::logic_error.
  virtual void commit() = 0;

  /// Discards the speculation. Guaranteed no-op on netlist, context, and
  /// analyzer state. Safe to call on an invalidated speculation.
  virtual void rollback() = 0;

  /// The cone the score walked and the front it re-relaxed (zero before
  /// the first score()).
  [[nodiscard]] virtual ReplayCounts replayed() const = 0;

 protected:
  Speculation() = default;
};

/// Abstract analysis engine. Obtain instances via make_analyzer().
class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Engine name ("dsta", "fassta" or "fullssta").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Full analysis of @p ctx's current state. Binds the analyzer to @p ctx,
  /// (re)establishes the base state for subsequent propose() calls, and
  /// invalidates outstanding speculations. The reference stays valid until
  /// the next analyze()/commit().
  virtual const Summary& analyze(sta::TimingContext& ctx) = 0;

  /// The cached base summary (the result of the last analyze() or commit()).
  /// Throws std::logic_error before the first analyze().
  [[nodiscard]] virtual const Summary& current() const = 0;

  /// Opens a speculation over several resizes applied together (an atomic
  /// batch: one score, one commit/rollback). Requires a prior analyze().
  /// Gates must be distinct and mapped; throws std::invalid_argument on an
  /// out-of-range size index.
  [[nodiscard]] virtual std::unique_ptr<Speculation> propose_resizes(
      std::span<const Resize> resizes) = 0;

  /// Opens a speculation for one resize: propose_resizes() of one.
  [[nodiscard]] std::unique_ptr<Speculation> propose(netlist::GateId gate, std::uint16_t size) {
    const Resize r{gate, size};
    return propose_resizes(std::span<const Resize>(&r, 1));
  }
};

/// Engine-specific knobs carried through make_analyzer. Each adapter reads
/// only its own fields (dsta has none).
struct AnalyzerOptions {
  ssta::FullSstaOptions fullssta;
  fassta::EngineOptions fassta;
  /// Workers for the fullssta what-if's cone walk (util::dataflow_for: 1
  /// inside a pool worker, 0 = default count). Scores are bitwise-identical
  /// for any value; the other engines' what-ifs are serial.
  std::size_t threads = 1;
};

/// Creates an analyzer by name. The engines are a fixed table of the what-if
/// engines: "dsta" (deterministic STA; sigma = 0), "fassta" (Clark-moment
/// fast engine) and "fullssta" (discrete-pdf SSTA), each with the
/// incremental cone overlay. Throws std::invalid_argument for any other name
/// (message lists the known ones).
[[nodiscard]] std::unique_ptr<Analyzer> make_analyzer(std::string_view name,
                                                      const AnalyzerOptions& options = {});

/// The engine names, sorted. The conformance suite iterates this.
[[nodiscard]] std::vector<std::string> analyzer_names();

}  // namespace statsizer::timing
