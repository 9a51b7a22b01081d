// ISLE: importance-sampled timing-yield estimation (after Bayrakci, Demir &
// Tasiran, "Fast Monte Carlo Estimation of Timing Yield: Importance Sampling
// with Stochastic Logical Effort").
//
// Plain Monte Carlo needs O(1 / P_fail) draws to see a failure at all; at
// the clock periods designers actually sign off (P_fail ~ 1e-2 .. 1e-4) that
// is tens of thousands of full-netlist sample propagations. ISLE gets the
// same unbiased estimate from orders of magnitude fewer draws:
//
//   1. A cheap *stochastic-logical-effort surrogate* — one deterministic DP
//      over the levelized netlist scoring every arc at delay + kappa * sigma
//      — identifies the dominant paths (the region of variation space where
//      failures concentrate).
//   2. Each dominant path's delay is linear-Gaussian in the underlying
//      standard-normal variation variables, so the most-likely failure point
//      for a clock period T is an explicit mean shift theta = beta * c /
//      |c|, beta = (T - mean) / sigma. Sampling is done under a *defensive
//      mixture* proposal (Hesterberg): with probability `defensive_fraction`
//      the nominal distribution, otherwise one of the per-path shifted
//      Gaussians — which bounds every likelihood ratio by
//      1 / defensive_fraction.
//   3. Every draw is reweighted by the exact likelihood ratio f(x) / q(x),
//      so the failure-probability estimate is unbiased *regardless* of how
//      good the surrogate is; the surrogate only buys variance.
//
// Diagnostics are first-class: the effective sample size (overall and
// restricted to failure hits), the weight variance, and the max weight are
// always reported, and `degenerate` trips when the proposal could not be
// trusted (clamped shift, vanishing path sigma, collapsed ESS) instead of
// returning a silently garbage yield.
//
// This is the one sample loop in the library (ssta/sample_loop.h):
// ssta::run_monte_carlo is a caller of it (nominal proposal, no adaptive
// stop, a fixed batch, per-node statistics), so with `proposal = kNominal`
// the sampler *is* plain Monte Carlo — weights are identically 1 and the
// per-draw circuit delays are bitwise-equal to run_monte_carlo's
// circuit_samples for the same seed.
//
// Determinism contract (docs/ARCHITECTURE.md): each batch of draws shards
// across util::ThreadPool in fixed-size chunks; every sample s draws from
// the counter-based stream (seed, s), mixture-component selection from a
// separate derived stream (seed ^ salt, s), per-sample results land in
// per-slot vectors, and all statistics fold serially in sample (per-node
// statistics: chunk) order — so the estimate, the weights, and every
// diagnostic are bitwise-identical for any thread count. Every arc's delay
// comes from variation::VariationModel::delay_at_ps; a shifted path arc
// evaluates it at its shifted coordinates.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sta/graph.h"

namespace statsizer::ssta {

enum class IsleProposal {
  /// Surrogate-guided defensive-mixture proposal (the point of ISLE).
  kImportance,
  /// Nominal distribution, weights identically 1 — plain Monte Carlo through
  /// the same batching/diagnostics machinery. The apples-to-apples baseline
  /// for draws-to-target-CI comparisons.
  kNominal,
};

struct IsleOptions {
  /// Draw budget. With target_yield_se == 0 exactly this many draws run;
  /// otherwise it is the cap on the adaptive loop.
  std::size_t samples = 4096;
  std::uint64_t seed = 12345;
  /// Worker threads sharding the draw loop. 0 (the default) = hardware
  /// concurrency, 1 = serial on the calling thread. Results are
  /// bitwise-identical for any value (counter-based per-draw streams, slot
  /// writes, in-order folds). Called from inside a pool worker (a serving
  /// job, a batch flow) the loop runs inline.
  std::size_t threads = 0;
  /// Clock period (the yield target). 0 = take the bound context's SDC
  /// constraint (TimingConstraints::clock_period_ps); when that is absent
  /// too, fall back to surrogate mean + 2 * surrogate sigma (documented
  /// default so analyze() works unconstrained).
  double clock_period_ps = 0.0;
  IsleProposal proposal = IsleProposal::kImportance;
  /// Mixture weight of the nominal component (Hesterberg's defensive
  /// mixture). Bounds every likelihood ratio by 1 / defensive_fraction.
  /// Must be in [0, 1]; 1 degenerates to kNominal sampling.
  double defensive_fraction = 0.25;
  /// Number of dominant paths backing the shifted mixture components (top-K
  /// distinct primary-output cones of the surrogate DP).
  std::size_t dominant_paths = 3;
  /// Adaptive stopping: grow the draw count in `batch` steps until the
  /// standard error of the yield estimate reaches this, then stop (subject
  /// to min_draws / samples). 0 disables adaptivity. Batch boundaries are a
  /// pure function of the options, never of the thread count.
  double target_yield_se = 0.0;
  std::size_t min_draws = 256;
  std::size_t batch = 256;
};

/// Clamp on |beta| = |(T - mean) / sigma| of a shifted component. A clamp
/// firing marks the result degenerate (the target is further out than the
/// proposal can reliably cover).
inline constexpr double kIsleMaxShift = 8.0;
/// Degeneracy trip-wire: overall ESS below this fraction of the draws.
inline constexpr double kIsleMinEssFraction = 0.05;

struct IsleResult {
  /// The clock period the yield refers to (resolved per IsleOptions).
  double clock_period_ps = 0.0;
  /// Y(T) = P(circuit delay <= T) = 1 - failure_probability.
  double yield = 1.0;
  double failure_probability = 0.0;
  /// Standard error of yield / failure_probability (sample variance of the
  /// per-draw weighted indicator over `draws`).
  double std_error = 0.0;
  /// Draws actually taken (== options.samples unless adaptive stopping).
  std::size_t draws = 0;

  // -- weight diagnostics ----------------------------------------------------
  /// Effective sample size (sum w)^2 / sum w^2 over all draws.
  double ess = 0.0;
  /// ESS restricted to failure hits: (sum wI)^2 / sum (wI)^2. The one that
  /// matters for the failure estimate; 0 when no failures were seen.
  double failure_ess = 0.0;
  double weight_variance = 0.0;
  double max_weight = 0.0;
  /// |beta| hit kIsleMaxShift (or a path sigma vanished) while building the
  /// proposal.
  bool shift_clamped = false;
  /// The estimate should not be trusted: shift clamped, vanishing surrogate
  /// sigma, ESS collapse, or failure-ESS collapse. Never silently hidden.
  bool degenerate = false;

  // -- surrogate -------------------------------------------------------------
  /// Mixture components actually built (<= options.dominant_paths).
  std::size_t proposal_paths = 0;
  /// Dominant path's linear-Gaussian delay moments and its mean shift.
  double surrogate_mean_ps = 0.0;
  double surrogate_sigma_ps = 0.0;
  double shift_beta = 0.0;

  // -- weighted delay moments (self-normalized) ------------------------------
  double weighted_mean_ps = 0.0;
  double weighted_sigma_ps = 0.0;

  // -- per-draw record (slot s = draw s; for reproducibility pins) -----------
  std::vector<double> delay_samples;
  std::vector<double> weights;
};

[[nodiscard]] IsleResult run_isle(const sta::TimingContext& ctx,
                                  const IsleOptions& options = {});

/// The yield-engine names: "isle" keeps @p options' proposal, "mc" samples
/// the nominal distribution (plain Monte Carlo through the same loop).
/// Throws std::invalid_argument for any other name.
[[nodiscard]] IsleOptions for_yield_engine(IsleOptions options, std::string_view engine);

}  // namespace statsizer::ssta
