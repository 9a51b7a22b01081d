// StatisticalGreedy — the paper's algorithm (Fig. 2), verbatim structure:
//
//   repeat {
//     FULLSSTA                         // accurate outer engine
//     trace WNSS path
//     foreach gate g on the path {
//       extract subcircuit S around g  // 2 levels of TFI/TFO
//       foreach available size of g:
//         score S with FASSTA + eq. 7  // fast inner engine
//       schedule the best size
//     }
//     resize scheduled gates           // batch commit
//   } until constraints met or no further improvement
//
// "No further improvement" is enforced on the *global* FULLSSTA objective:
// a batch that fails to improve it is rolled back and its resizes are
// retried one at a time in descending predicted gain, each kept only if it
// improves the objective. An iteration whose plan confirms nothing falls
// through three bounded rescue sources in turn: an exact sweep of the WNSS
// path prefix, a netlist-wide sweep of the gates with the fattest arc
// sigmas, and a one-size bump of whole gate populations. The loop ends when
// no source confirms a move. This guards against oscillation, which
// batch-greedy sizers are prone to.
//
// Concurrency: the per-gate × per-size FASSTA candidate scoring — the runtime
// hot path — fans out across util::ThreadPool::shared() when
// StatisticalSizerOptions::threads != 1. Workers only read the const
// TimingContext snapshot and write disjoint slots of a score array, so the
// chosen plan, the whole optimization trajectory, StatisticalSizerStats, and
// the final sizes are bitwise-identical for any thread count (the same
// contract as the parallel Monte-Carlo engine; see docs/ARCHITECTURE.md,
// "Concurrency & determinism contracts"). The same workers walk each exact
// FULLSSTA what-if's cone (timing::AnalyzerOptions::threads).
//
// Each move source returns an ordered candidate list, and every accurate
// confirmation goes through opt::confirm (opt/confirm.h): the plan batch and
// each population bump are one-candidate walks, and the singles and both
// sweeps walk their lists, one exact what-if at a time. Every decision is
// bitwise-identical for any thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fassta/engine.h"
#include "opt/objective.h"
#include "ssta/fullssta.h"

namespace statsizer::opt {

/// How candidate sizes are scored in the inner loop.
enum class InnerScoring {
  /// FASSTA over the candidate's fanout cone, every other arrival from the
  /// engine's base pass (fassta::Engine::run_with_candidates: one walk per
  /// gate, a lane per size; bitwise a full pass): sees the max-over-all-paths
  /// behaviour of the objective. Default — robust.
  kGlobalFassta,
  /// The paper's literal formulation: FASSTA on a k-level subcircuit window,
  /// outputs projected through downstream potentials. Cheaper per candidate
  /// but blind to breadth effects; kept for the window-depth ablation.
  kSubcircuit,
};

struct StatisticalSizerOptions {
  Objective objective;                     ///< eq. 7 weight lambda
  InnerScoring scoring = InnerScoring::kGlobalFassta;
  unsigned subcircuit_levels = 2;          ///< TFI/TFO depth (paper: 2)
  /// Worker threads for the inner-loop candidate scoring (and the rescue
  /// paths' fast-engine prescoring) and each exact confirmation's cone walk
  /// (timing::AnalyzerOptions::threads). 1 =
  /// serial on the calling thread; 0 = hardware concurrency (core::Flow's
  /// default, FlowOptions::sizer_threads). Results — trajectory, stats,
  /// final sizes — are bitwise-identical for any value.
  std::size_t threads = 1;
  /// Record every confirmed resize in StatisticalSizerStats::trajectory
  /// (off by default: large runs commit thousands of moves).
  bool record_trajectory = false;
  std::size_t max_iterations = 120;
  ssta::FullSstaOptions fullssta;          ///< outer-engine controls
  fassta::EngineOptions fassta;            ///< inner-engine controls
  /// Accurate confirmation engine, resolved through timing::make_analyzer
  /// (its per-node moments feed WNSS tracing). Default: the paper's
  /// FULLSSTA, whose incremental what-if lets rescue confirmations score in
  /// parallel.
  std::string confirm_engine = "fullssta";
  /// Candidate-scoring engine: only "fassta" is accepted (every candidate
  /// scores on the fassta::Engine lane kernel; size_statistically throws
  /// std::invalid_argument naming this field for any other value). Not a
  /// knob: kept for perfbench, which assigns and reads the name.
  std::string score_engine = "fassta";
  /// Optional constraint mode: stop as soon as sigma reaches this target.
  std::optional<double> target_sigma_ps;

  // -- convergence rescue (bounded exact-engine move sources) -----------------
  /// When the fast-engine plan yields nothing the accurate engine confirms,
  /// up to this many WNSS-path gates are re-swept with FULLSSTA scoring.
  std::size_t exact_fallback_gate_limit = 16;
  /// On heavily balanced fabrics (e.g. wide XOR trees) a single WNSS path per
  /// iteration cannot dent the max over thousands of near-identical paths.
  /// When even the exact path sweep stalls, up to max_global_sweeps times per
  /// run the optimizer sweeps the top gates netlist-wide ranked by arc sigma
  /// (the fattest delay contributors, wherever they sit).
  std::size_t max_global_sweeps = 4;
};

/// Coordinated move for balanced fabrics: when every single-gate move fails,
/// size_statistically tries bumping whole gate populations (all gates, then
/// the below-median-drive half) one size up and keeps the bump iff the
/// accurate engine confirms it, in at most this many rounds per run. sigma ~
/// 1/drive makes this the natural fabric-wide variance lever; single-gate
/// greedy cannot express it.
inline constexpr std::size_t kMaxUniformBumps = 6;

/// Which move source committed a resize (ordered as tried per iteration).
enum class MoveSource : std::uint8_t {
  kPlan,          ///< fast-engine plan, accepted as a batch
  kSingle,        ///< plan retried one-at-a-time after batch rejection
  kExactFallback, ///< accurate sweep of the WNSS path prefix
  kGlobalSweep,   ///< accurate sweep of the fattest arcs netlist-wide
  kUniformBump,   ///< coordinated whole-population upsize
};
inline constexpr std::size_t kMoveSourceCount = 5;

/// One move source's exact confirmations (opt::confirm walks).
struct SourceConfirmations {
  std::size_t judged = 0;     ///< exact what-ifs scored and judged
  std::size_t committed = 0;  ///< of them, committed
  /// Candidates never proposed: the same resize set was already rejected
  /// at the current snapshot, whose base and cost to beat fix the verdict.
  std::size_t skipped_repeats = 0;

  friend bool operator==(const SourceConfirmations&, const SourceConfirmations&) = default;
};

/// One confirmed resize (only recorded when options.record_trajectory).
/// A kUniformBump event stands for the whole population move: gate is
/// netlist::kNoGate and the size fields are zero.
struct ResizeEvent {
  std::size_t iteration = 0;
  netlist::GateId gate = netlist::kNoGate;
  std::uint16_t from_size = 0;
  std::uint16_t to_size = 0;
  MoveSource source = MoveSource::kPlan;

  friend bool operator==(const ResizeEvent&, const ResizeEvent&) = default;
};

struct StatisticalSizerStats {
  std::size_t iterations = 0;
  std::size_t resizes = 0;
  /// FASSTA-scored candidates (plan scoring + rescue prescoring): every
  /// (gate, size), the current size included though the kernel reads its
  /// score from the base pass.
  std::size_t fassta_evaluations = 0;
  /// Resizes confirmed by the exact rescue sweeps (fallback + global).
  std::size_t exact_resizes = 0;
  /// Netlist-wide rescue sweeps run (bounded by max_global_sweeps).
  std::size_t global_sweeps = 0;
  /// Population-bump rounds attempted (bounded by kMaxUniformBumps).
  std::size_t uniform_bump_rounds = 0;
  /// Exact confirmations by move source, indexed by MoveSource.
  std::array<SourceConfirmations, kMoveSourceCount> confirmations{};
  /// Over every judged what-if: its cone's slots and the change front its
  /// replay re-relaxed (timing::ReplayCounts, summed).
  std::size_t cone_slots = 0;
  std::size_t front_slots = 0;
  /// Every confirmed resize in commit order (only if record_trajectory).
  std::vector<ResizeEvent> trajectory;
  CircuitStats initial;
  CircuitStats final_;
  bool constraints_met = false;
};

/// Runs StatisticalGreedy in place on the context's netlist. Mutates the
/// netlist's size indices and the timing snapshot; not safe to call
/// concurrently on the same context. Internal candidate scoring fans out
/// across options.threads workers with thread-count-invariant results (see
/// the header comment).
StatisticalSizerStats size_statistically(sta::TimingContext& ctx,
                                         const StatisticalSizerOptions& options = {});

}  // namespace statsizer::opt
