#include "ssta/monte_carlo.h"

#include <utility>

#include "ssta/sample_loop.h"
#include "util/numeric.h"

namespace statsizer::ssta {

namespace {

// Draws between checkpoints and per-node folds: a multiple of the per-node
// chunk, so the folds run in global chunk order, and 16 chunks to bound the
// per-chunk statistics held until a fold.
constexpr std::size_t kBatch = 16 * detail::kDrawChunk;

}  // namespace

MonteCarloResult run_monte_carlo(const sta::TimingContext& ctx,
                                 const MonteCarloOptions& options) {
  MonteCarloResult result;
  if (options.samples == 0) return result;

  IsleOptions draws;
  draws.samples = options.samples;
  draws.seed = options.seed;
  draws.threads = options.threads;
  draws.proposal = IsleProposal::kNominal;
  draws.batch = kBatch;
  IsleResult sampled = detail::run_draws(ctx, draws, "ssta/mc/chunk",
                                         options.per_node_stats ? &result.node : nullptr);
  result.circuit_samples = std::move(sampled.delay_samples);

  // Circuit moments: one Welford pass over the samples in sample order.
  util::RunningStats circuit_stats;
  for (const double x : result.circuit_samples) circuit_stats.add(x);
  result.mean_ps = circuit_stats.mean();
  result.sigma_ps = circuit_stats.stddev();
  return result;
}

}  // namespace statsizer::ssta
