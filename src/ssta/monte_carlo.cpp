#include "ssta/monte_carlo.h"

#include <map>
#include <mutex>

#include "util/exec.h"
#include "util/numeric.h"
#include "util/thread_pool.h"

namespace statsizer::ssta {

using netlist::GateId;

namespace {

// Samples per parallel_for chunk. Fixed (never a function of the thread
// count) so per-chunk partial statistics merge to the same floating-point
// result for any number of workers. Large enough to amortize the per-chunk
// arrival-vector allocation, small enough to load-balance across threads.
constexpr std::size_t kChunkSamples = 64;

}  // namespace

MonteCarloResult run_monte_carlo(const sta::TimingContext& ctx,
                                 const MonteCarloOptions& options) {
  const auto& nl = ctx.netlist();

  MonteCarloResult result;
  result.circuit_samples.resize(options.samples, 0.0);
  if (options.samples == 0) return result;

  // Per-node accumulators with a streaming in-order merge: each finished
  // chunk's partials are folded in strictly ascending chunk order (chunks
  // completing early wait in `pending`), so the result is bitwise-identical
  // for any thread count while memory stays bounded by the out-of-order
  // completion window (~thread count) instead of the total chunk count.
  std::vector<util::RunningStats> node_stats;
  std::mutex merge_mutex;
  std::size_t next_merge_chunk = 0;
  std::map<std::size_t, std::vector<util::RunningStats>> pending;
  if (options.per_node_stats) node_stats.resize(nl.node_count());

  // Cooperative control at sample-chunk granularity, but only when the
  // chunk loop runs inline in deterministic order (one thread, or inside a
  // pool worker such as a serving job): with pool workers in play the caller
  // would drain a scheduling-dependent subset of chunks, making fault-
  // injection hit counts nondeterministic.
  const bool cooperative = util::region_threads(options.threads) == 1;

  util::parallel_for(
      options.samples, kChunkSamples, options.threads,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        if (cooperative) util::checkpoint("ssta/mc/chunk");
        std::vector<double> arrival(nl.node_count(), 0.0);
        std::vector<util::RunningStats> local_node_stats;
        std::vector<util::RunningStats>* node_stats_ptr = nullptr;
        if (options.per_node_stats) {
          local_node_stats.resize(nl.node_count());
          node_stats_ptr = &local_node_stats;
        }
        for (std::size_t s = begin; s < end; ++s) {
          // Counter-based stream: sample s sees the same draws no matter
          // which thread runs it.
          util::Rng rng(util::stream_seed(options.seed, s));
          const double global_z = rng.normal();
          result.circuit_samples[s] = propagate_draw(
              ctx, global_z, rng, arrival, [](GateId, std::size_t, double&) { return false; },
              [&](GateId id, double arr) {
                if (node_stats_ptr != nullptr) (*node_stats_ptr)[id].add(arr);
              });
        }
        if (options.per_node_stats) {
          const std::lock_guard<std::mutex> lock(merge_mutex);
          // lint-ok: shared-mutable-capture merge_mutex serializes this block; folds run in ascending chunk order, so the result is thread-count-invariant
          pending.emplace(chunk, std::move(local_node_stats));
          while (!pending.empty() && pending.begin()->first == next_merge_chunk) {
            const auto& ready = pending.begin()->second;
            for (GateId id = 0; id < nl.node_count(); ++id) {
              node_stats[id].merge(ready[id]);
            }
            // lint-ok: shared-mutable-capture same critical section as above
            pending.erase(pending.begin());
            // lint-ok: shared-mutable-capture same critical section as above
            ++next_merge_chunk;
          }
        }
      });

  // Circuit moments: one serial Welford pass over the sample vector, in
  // sample order — identical for any thread count.
  util::RunningStats circuit_stats;
  for (const double x : result.circuit_samples) circuit_stats.add(x);
  result.mean_ps = circuit_stats.mean();
  result.sigma_ps = circuit_stats.stddev();

  if (options.per_node_stats) {
    result.node.resize(nl.node_count());
    for (GateId id = 0; id < nl.node_count(); ++id) {
      result.node[id] = sta::NodeMoments{node_stats[id].mean(), node_stats[id].stddev()};
    }
  }
  return result;
}

}  // namespace statsizer::ssta
