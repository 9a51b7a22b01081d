// Monte-Carlo SSTA: samples per-arc gate delays from the variation model and
// runs deterministic longest-path analysis per sample. Slow but assumption-
// free (no independence approximation in the max, exact handling of
// reconvergent fanout and of the global process variable) — the golden
// reference the test suite validates FULLSSTA/FASSTA/canonical against.
//
// It runs on ISLE's sample loop (ssta/isle.h) with the nominal proposal: no
// adaptive stop, a fixed batch of draws between checkpoints, and per-node
// statistics folded per draw chunk. The loop shards each batch across a
// thread pool (options.threads); every sample i draws from its own
// counter-based RNG stream derived from (seed, i) — see util::stream_seed —
// so results (mean, sigma, circuit_samples, per-node moments) are
// bitwise-identical for any thread count. A cooperative checkpoint
// ("ssta/mc/chunk") fires on the calling thread before every batch.
#pragma once

#include <cstdint>
#include <vector>

#include "sta/graph.h"

namespace statsizer::ssta {

struct MonteCarloOptions {
  std::size_t samples = 2000;
  std::uint64_t seed = 12345;
  /// Worker threads sharding the sample loop. 1 = serial on the calling
  /// thread; 0 = hardware concurrency. Results are identical for any value.
  std::size_t threads = 1;
  /// Also accumulate per-node arrival statistics (slower, more memory).
  bool per_node_stats = false;
};

struct MonteCarloResult {
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
  /// Circuit delay (max over POs) per sample; kept for quantiles/tests.
  std::vector<double> circuit_samples;
  /// Per-node arrival moments (only if per_node_stats).
  std::vector<sta::NodeMoments> node;
};

[[nodiscard]] MonteCarloResult run_monte_carlo(const sta::TimingContext& ctx,
                                               const MonteCarloOptions& options = {});

}  // namespace statsizer::ssta
