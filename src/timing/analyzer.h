// timing::Analyzer — the engine-neutral analysis seam.
//
// The paper's StatisticalGreedy alternates a fast inner scorer (FASSTA) and
// an accurate outer confirmer (FULLSSTA); the surrounding codebase also runs
// deterministic STA and Monte Carlo over the same TimingContext. Before this
// layer each engine lived behind its own free-function signature, so every
// call site re-plumbed engines by hand. `Analyzer` unifies them:
//
//   auto an = timing::make_analyzer("fullssta");      // registry, by name
//   const timing::Summary& s = an->analyze(ctx);      // full analysis
//   auto spec = an->propose(gate, size);              // transactional what-if
//   double cost = spec->score().mean_ps + lambda * spec->score().sigma_ps;
//   spec->commit();   // or spec->rollback();
//
// The transaction lifecycle:
//   analyze(ctx) establishes the analyzer's *base state* (netlist sizing +
//   timing snapshot + cached engine results). propose() opens a speculation
//   against that base; score() evaluates the engine as if the resize were
//   applied, without touching the netlist, the TimingContext, or the base;
//   commit() applies the resize, refreshes the TimingContext (update()) and
//   the base state, and *invalidates every other outstanding speculation*
//   (their base is gone — computing a fresh score() on them throws
//   std::logic_error, though a score cached before the commit stays
//   readable);
//   rollback() discards the speculation and is guaranteed to leave netlist,
//   context, and analyzer bitwise-identical to the state before propose().
//   Destroying an unresolved speculation is an implicit rollback.
//
// Thread-safety contract (see docs/ARCHITECTURE.md): the Analyzer itself is
// shared; Speculations are per-worker. When capabilities().
// concurrent_speculations is set, any number of *single-resize* speculations
// from the same base may be propose()d and score()d concurrently — each one
// carries a private cone-sized overlay and only reads the shared base.
// commit(), rollback(), and analyze() are serial operations (no speculation
// may be scoring while they run). Engines whose score() has to mutate the shared
// context (the generic mutate/re-run/revert fallback used by "canonical"
// and "mc") report concurrent_speculations = false and must be scored
// serially.
//
// The FULLSSTA, FASSTA, and DSTA implementations are *incremental*: a
// speculation re-propagates only the candidate's fanout cone (loads, slews,
// arc delays, then arrival pdfs / moments / deterministic arrivals) against
// a private overlay sized by the cone (timing/cone.h), and both the score
// and the committed base are bitwise-identical to a from-scratch
// TimingContext::update() + full engine run of the resized netlist. All
// three commit by patching the snapshot in place
// (TimingContext::apply_snapshot_patch — bitwise-equal to a full update()
// without the O(E) rebuild), which is what lets area recovery commit
// thousands of accepted downsizes without a single full snapshot refresh.
// This is also what lets the optimizer score accurate rescue confirmations
// in parallel and commit them serially in gain order without changing any
// result.
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

/// What an engine behind the interface can deliver. Callers gate optional
/// behaviour (parallel confirmation fan-out, pdf-based yield, WNSS tracing)
/// on these flags instead of hard-coding engine names.
struct Capabilities {
  /// Summary::node carries per-node arrival moments (WNSS tracing and FASSTA
  /// boundary conditions need these).
  bool per_node_moments = false;
  /// Summary::output_pdf carries the full circuit-delay distribution.
  bool output_pdf = false;
  /// propose() is supported.
  bool what_if = false;
  /// Distinct single-resize speculations from one base may score() in
  /// parallel (each holds a private overlay; the base is read-only).
  /// Multi-resize speculations are always scored with no other speculation
  /// in flight (the optimizer's batch/bump pattern).
  bool concurrent_speculations = false;
  /// score() is bitwise-identical to a from-scratch analyze() of the resized
  /// netlist (FULLSSTA/FASSTA/DSTA re-propagate the full fanout cone —
  /// loads, slews, arc delays — so their incremental scores are exact).
  bool exact_speculation = false;
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

  /// The resizes under speculation.
  [[nodiscard]] std::span<const Resize> resizes() const { return resizes_; }

  /// Evaluates the engine as if the resizes were applied. Cached: repeated
  /// calls return the same object, and a score computed before a sibling's
  /// commit stays readable afterwards. Computing a *fresh* score after a
  /// sibling speculation committed (or analyze() re-based) throws
  /// std::logic_error — the base it would evaluate against is gone.
  virtual const Summary& score() = 0;

  /// Applies the resizes to the netlist, refreshes the TimingContext and the
  /// analyzer's base state, and invalidates sibling speculations. After
  /// commit, Analyzer::current() equals a from-scratch analyze() of the new
  /// state (bitwise, for deterministic engines). Committing twice is a
  /// no-op; committing an invalidated speculation throws std::logic_error.
  virtual void commit() = 0;

  /// Discards the speculation. Guaranteed no-op on netlist, context, and
  /// analyzer state. Safe to call on an invalidated speculation.
  virtual void rollback() = 0;

 protected:
  Speculation() = default;
  std::vector<Resize> resizes_;
};

/// Abstract analysis engine. Obtain instances via make_analyzer().
class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Registry name ("fullssta", "fassta", "dsta", "mc", ...).
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

  /// Opens a speculation for one resize. Requires a prior analyze().
  /// Throws std::invalid_argument on an out-of-range size index.
  [[nodiscard]] virtual std::unique_ptr<Speculation> propose(netlist::GateId gate,
                                                             std::uint16_t size) = 0;

  /// Opens a speculation over several resizes applied together (an atomic
  /// batch: one score, one commit/rollback). Gates must be distinct.
  [[nodiscard]] virtual std::unique_ptr<Speculation> propose_resizes(
      std::span<const Resize> resizes) = 0;
};

/// The one speculation-window rule of the optimizer's speculative walks (the
/// sizer's in-order confirmations, area recovery's screen): how many
/// candidates one wave proposes and scores before the walk decides them in
/// order. It is the resolved worker count (@p threads, 0 = hardware
/// concurrency) when @p engine scores speculations concurrently, else 1 —
/// one candidate per worker, because a commit discards the rest of its
/// wave. Windows never change which moves commit, only how many speculative
/// scores a commit throws away and how many overlays are held at once.
[[nodiscard]] std::size_t speculation_window(const Analyzer& engine, std::size_t threads);

/// Engine-specific knobs carried through the registry. Each adapter reads
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

using AnalyzerFactory =
    std::function<std::unique_ptr<Analyzer>(const AnalyzerOptions&)>;

/// Creates an analyzer by registry name. Built-ins: "fullssta" (discrete-pdf
/// SSTA with the incremental what-if overlay), "fassta" (Clark-moment fast
/// engine), "canonical" (correlation-aware first-order SSTA), "dsta"
/// (deterministic STA; sigma = 0), "mc" (Monte Carlo), "isle" (importance-
/// sampled yield; summary carries the self-normalized weighted delay
/// moments). Throws std::invalid_argument for unknown names (message lists
/// the known ones).
[[nodiscard]] std::unique_ptr<Analyzer> make_analyzer(std::string_view name,
                                                      const AnalyzerOptions& options = {});

/// Registered names, sorted. The conformance suite iterates this.
[[nodiscard]] std::vector<std::string> analyzer_names();

/// Registers an additional backend. Returns false if the name is already
/// taken.
bool register_analyzer(std::string name, AnalyzerFactory factory);

}  // namespace statsizer::timing
