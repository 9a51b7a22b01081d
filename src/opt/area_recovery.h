// Post-sizing area recovery (the paper's constrained mode: "delay ... is
// optimized first then area is recovered as far as possible without
// violating a delay constraint"). Gates are visited in descending area; each
// is downsized as far as the selected constraint allows.
//
// Two constraint flavours:
//  * kDeterministicArrival — the classic: keep the deterministic longest-path
//    arrival within a tolerance of its value at entry. Off-critical gates
//    shrink to minimum size; this is what produces the paper's wide-spread
//    "original" circuits.
//  * kStatisticalCost — keep the FASSTA E[max]-based objective within a
//    tolerance; appropriate after *statistical* optimization, where slack on
//    side paths is itself a statistical asset.
//
// Engine plumbing: every trial runs through the timing::Analyzer what-if API.
// The screen engine (screen_engine; defaults to "dsta" / "fassta" by
// criterion) scores each candidate downsize as a Speculation against its
// committed base, privately — a fanout-cone re-propagation against an
// overlay, never a netlist mutation plus full TimingContext::update();
// accepted trials commit incrementally (the snapshot is patched in place).
// Any registry engine works: every speculation scores privately. In
// statistical mode the screen drifts from the accurate engine on
// reconvergent fabrics, so every kChunk accepted downsizes are re-verified
// by the confirm engine (confirm_engine, default "fullssta", configured with
// `fullssta` — the same options the caller uses to measure the result, so
// the guard and the report agree) as one atomic multi-resize speculation
// from the last checkpoint; a failed verification restores the whole chunk
// and stops.
//
// Concurrency: the screen walks the descending-area order through
// opt::confirm (opt/confirm.h), one candidate at a time, resuming at each
// accepted gate, and each chunk verification is a one-candidate walk of the
// same seam whose FULLSSTA cone walk runs on `threads` workers. So accepted
// downsizes, final sizes, and AreaRecoveryStats are bitwise-identical for
// any `threads` value, and identical to the pre-port serial mutate-and-rerun
// loop (pinned by tests/area_recovery_parallel_test.cpp, which keeps that
// loop as its reference oracle).
#pragma once

#include <cstddef>
#include <string>

#include "fassta/engine.h"
#include "opt/objective.h"
#include "ssta/fullssta.h"
#include "timing/analyzer.h"

namespace statsizer::opt {

enum class RecoveryCriterion {
  kDeterministicArrival,
  kStatisticalCost,
};

/// Pass limit of recover_area (it also stops at a pass that changes nothing).
inline constexpr std::size_t kMaxRecoveryPasses = 4;

struct AreaRecoveryOptions {
  RecoveryCriterion criterion = RecoveryCriterion::kDeterministicArrival;
  Objective objective;           ///< used by kStatisticalCost
  /// Allowed degradation of the guarded metric, as a fraction of its value at
  /// entry (e.g. 0.003 = 0.3%).
  double tolerance = 0.003;
  /// kStatisticalCost only: additionally cap sigma at (1 + this) times its
  /// entry value. Without the cap, recovery can trade sigma for mean at
  /// constant cost (mu + lambda*sigma is blind to the split) and quietly undo
  /// a variance optimization it runs after.
  double sigma_tolerance = 0.01;
  fassta::EngineOptions fassta;
  /// Options for the exact confirm engine — the *same* FullSstaOptions the
  /// caller measures the final result with, so the kChunk budgets and the
  /// reported objective use one statistical model (core::Flow plumbs its
  /// options_.fullssta here).
  ssta::FullSstaOptions fullssta;
  /// Workers for the FULLSSTA what-ifs' cone walks (timing::AnalyzerOptions::
  /// threads). 1 = serial on the calling thread; 0 = hardware concurrency.
  /// Results are bitwise-identical for any value.
  std::size_t threads = 1;
  /// Screen engine (timing::make_analyzer name). Empty = pick by criterion:
  /// "dsta" for kDeterministicArrival, "fassta" for kStatisticalCost — the
  /// pre-port behaviour.
  std::string screen_engine;
  /// Exact verification engine for kStatisticalCost.
  std::string confirm_engine = "fullssta";
};

struct AreaRecoveryStats {
  /// Downsize steps committed to the returned netlist (chunk rollbacks are
  /// already subtracted): always equals the per-gate entry-to-exit size-index
  /// drop summed over the netlist.
  std::size_t downsizes = 0;
  /// Screen-engine what-if trials scored (accepted + rejected).
  std::size_t screen_trials = 0;
  /// Exact chunk verifications run (kStatisticalCost only).
  std::size_t exact_verifications = 0;
  /// Chunks whose exact verification failed and were rolled back wholesale.
  std::size_t chunk_rollbacks = 0;
  double area_before_um2 = 0.0;
  double area_after_um2 = 0.0;
  /// kStatisticalCost only (has_final_summary): the confirm engine's summary
  /// of the final committed netlist — for the default "fullssta" engine,
  /// bitwise what ssta::run_fullssta(ctx, options.fullssta) would report, so
  /// callers need no post-recovery re-analysis.
  bool has_final_summary = false;
  timing::Summary final_summary;
};

/// Recovers area in place; the netlist keeps its function and mapping.
/// Mutates size indices and the timing snapshot; not safe to call
/// concurrently on the same context. FULLSSTA what-ifs fan out across
/// options.threads workers with thread-count-invariant results (see the
/// header comment).
AreaRecoveryStats recover_area(sta::TimingContext& ctx,
                               const AreaRecoveryOptions& options = {});

}  // namespace statsizer::opt
