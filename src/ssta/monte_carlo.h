// Monte-Carlo SSTA: samples per-arc gate delays from the variation model and
// runs deterministic longest-path analysis per sample. Slow but assumption-
// free (no independence approximation in the max, exact handling of
// reconvergent fanout and of the global process variable) — the golden
// reference the test suite validates FULLSSTA/FASSTA/canonical against.
//
// Sampling is embarrassingly parallel and the engine shards it across a
// thread pool (options.threads). Every sample i draws from its own
// counter-based RNG stream derived from (seed, i) — see util::stream_seed —
// so results (mean, sigma, circuit_samples, per-node moments) are
// bitwise-identical for any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sta/dsta.h"
#include "sta/graph.h"
#include "util/rng.h"

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

/// The one per-draw propagation, shared by run_monte_carlo and run_isle
/// (ssta/isle.h): a longest-path pass (the DSTA arrival kernel,
/// sta::latest_arrival) over arc delays sampled with the draw's global
/// variable @p global_z and stream @p rng, drawn in topological-then-fanin
/// order. Hooks: @p tracked(id, i, d) may take over arc i of gate id by
/// writing its delay to d and returning true (ISLE's shifted path arcs);
/// every other arc goes through VariationModel::sample_delay_ps.
/// @p on_arrival(id, arrival) observes each node's arrival (Monte Carlo's
/// per-node statistics). Fills @p arrival (one slot per node) and returns
/// the circuit delay, the max over primary-output drivers.
template <typename Tracked, typename OnArrival>
[[nodiscard]] double propagate_draw(const sta::TimingContext& ctx, double global_z,
                                    util::Rng& rng, std::span<double> arrival,
                                    Tracked&& tracked, OnArrival&& on_arrival) {
  const auto& var = ctx.variation();
  const auto arrival_of = [&](netlist::GateId f) { return arrival[f]; };
  for (const netlist::GateId id : ctx.topo_order()) {
    arrival[id] = sta::latest_arrival(ctx, id, arrival_of, [&](std::size_t i) {
      double d = 0.0;
      if (!tracked(id, i, d)) {
        d = var.sample_delay_ps(ctx.arc_delay_ps(id, i), ctx.drive(id), global_z, rng);
      }
      return d;
    });
    on_arrival(id, arrival[id]);
  }
  double circuit = 0.0;
  for (const auto& po : ctx.netlist().outputs()) {
    circuit = std::max(circuit, arrival[po.driver]);
  }
  return circuit;
}

[[nodiscard]] MonteCarloResult run_monte_carlo(const sta::TimingContext& ctx,
                                               const MonteCarloOptions& options = {});

}  // namespace statsizer::ssta
