// timing::Analyzer — the engine-neutral analysis seam.
//
// The paper's StatisticalGreedy alternates a fast inner scorer (FASSTA) and
// an accurate outer confirmer (FULLSSTA); the codebase also runs
// deterministic STA, canonical SSTA and sampling over the same
// TimingContext. `Analyzer` puts every engine behind one interface:
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
// nor the base — also when it aborts (a cancel, deadline or injected fault
// at a checkpoint); commit() applies the resizes, refreshes context and
// base, and invalidates every other outstanding speculation — it either
// completes or changes nothing; rollback(), or destroying the speculation,
// discards it. The methods of Speculation below spell out each step.
//
// Every speculation scores privately. The FULLSSTA, FASSTA, and DSTA
// implementations are *incremental*: a speculation re-propagates only the
// candidate's fanout cone against a private overlay (timing/cone.h) and
// commits by patching the snapshot in place; score and committed base are
// bitwise-identical to a from-scratch TimingContext::update() + full engine
// run of the resized netlist. The other engines (canonical, mc, isle) score
// a from-scratch run on a private copy of the resized design and commit
// with one update().
//
// Thread-safety contract (see docs/ARCHITECTURE.md): the Analyzer itself is
// shared; Speculations are per-worker. Any number of speculations from the
// same base may be propose()d and score()d concurrently — each one only
// reads the shared base. commit(), rollback(), and analyze() are serial
// operations (no speculation may be scoring while they run). This is what
// lets first_accepted() score a window of candidates in parallel and commit
// them serially in order without changing any result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fassta/engine.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "ssta/isle.h"
#include "ssta/monte_carlo.h"
#include "sta/graph.h"

namespace statsizer::timing {

/// What an engine behind the interface can deliver beyond the transactional
/// what-if every engine supports. Callers gate optional behaviour (pdf-based
/// yield, WNSS tracing) on these flags instead of hard-coding engine names.
struct Capabilities {
  /// Summary::node carries per-node arrival moments (WNSS tracing and FASSTA
  /// boundary conditions need these).
  bool per_node_moments = false;
  /// Summary::output_pdf carries the full circuit-delay distribution.
  bool output_pdf = false;
};

/// Engine-neutral analysis result. mean_ps/sigma_ps are always filled; node
/// and output_pdf only when the engine's capabilities say so. Speculative
/// scores (Speculation::score) fill only mean_ps/sigma_ps — the full payload
/// is guaranteed on analyze() / current().
struct Summary {
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
  /// Per-node arrival moments, indexed by GateId (per_node_moments).
  std::vector<sta::NodeMoments> node;
  /// Circuit-delay pdf: the statistical max over primary outputs (output_pdf).
  pdf::DiscretePdf output_pdf;
};

/// One hypothetical resize: bind @p gate to size index @p size of its group.
struct Resize {
  netlist::GateId gate = netlist::kNoGate;
  std::uint16_t size = 0;
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
  /// state (bitwise, for deterministic engines). Only the score a commit
  /// needs can abort, before anything changed. Committing twice is a
  /// no-op; committing an invalidated speculation throws std::logic_error.
  virtual void commit() = 0;

  /// Discards the speculation. Guaranteed no-op on netlist, context, and
  /// analyzer state. Safe to call on an invalidated speculation.
  virtual void rollback() = 0;

 protected:
  Speculation() = default;
};

/// Abstract analysis engine. Obtain instances via make_analyzer().
class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Engine name ("fullssta", "fassta", "dsta", "mc", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual Capabilities capabilities() const = 0;

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

/// The result of first_accepted(): the index of the first candidate accept()
/// approved — count when none was — and its scored, uncommitted speculation
/// (nullptr when none was).
struct Accepted {
  std::size_t index = 0;
  std::unique_ptr<Speculation> speculation;
};

/// The optimizer's one speculative walk (the sizer's in-order confirmations,
/// area recovery's screen). Walks candidates 0..count-1 of a fixed order and
/// returns the first that @p accept approves, judged against @p engine's
/// committed base: propose(i) opens candidate i's speculation (nullptr skips
/// it), and accept(i, score) runs exactly once per non-null candidate, in
/// ascending order, never past the one it approves; both run on the calling
/// thread. The caller commits (or drops) the returned speculation and walks
/// on from there, so every candidate is judged against the state holding
/// exactly the commits ordered before it — the serial trial loop's
/// semantics.
///
/// Candidates are proposed and scored in windows of one per worker
/// (util::region_threads(@p threads): 1 inside a pool worker). Scores are
/// pure functions of (base, candidate), so the result is bitwise-identical
/// for any thread count; a window only sets how many speculative scores an
/// acceptance throws away and how many private states are held at once.
/// std::function is cheap here: each candidate costs a cone replay.
[[nodiscard]] Accepted first_accepted(
    Analyzer& engine, std::size_t threads, std::size_t count,
    const std::function<std::unique_ptr<Speculation>(std::size_t)>& propose,
    const std::function<bool(std::size_t, const Summary&)>& accept);

/// Engine-specific knobs carried through make_analyzer. Each adapter reads
/// only its own field.
struct AnalyzerOptions {
  ssta::FullSstaOptions fullssta;
  fassta::EngineOptions fassta;
  ssta::MonteCarloOptions monte_carlo;
  /// Importance-sampled yield engine ("isle"). Its clock_period_ps field
  /// falls back to the shared clock_period_ps below when unset.
  ssta::IsleOptions isle;
  /// Deterministic STA required-time reference (nullopt = zero-slack
  /// normalization at the observed max arrival).
  std::optional<double> clock_period_ps;
};

/// Creates an analyzer by name. The engines are a fixed table: "fullssta"
/// (discrete-pdf SSTA with the incremental what-if overlay), "fassta"
/// (Clark-moment fast engine), "canonical" (correlation-aware first-order
/// SSTA), "dsta" (deterministic STA; sigma = 0), "mc" (Monte Carlo), "isle"
/// (importance-sampled yield; summary carries the self-normalized weighted
/// delay moments). Throws std::invalid_argument for unknown names (message
/// lists the known ones).
[[nodiscard]] std::unique_ptr<Analyzer> make_analyzer(std::string_view name,
                                                      const AnalyzerOptions& options = {});

/// The engine names, sorted. The conformance suite iterates this.
[[nodiscard]] std::vector<std::string> analyzer_names();

}  // namespace statsizer::timing
