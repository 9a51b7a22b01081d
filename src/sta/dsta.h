// Deterministic static timing analysis over a TimingContext: arrival times,
// required times, slack, worst-negative-slack (WNS) critical path. This is
// the classic analysis the paper's WNSS concept generalizes, and the engine
// behind the mean-delay baseline sizer.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "sta/graph.h"

namespace statsizer::sta {

struct DstaResult {
  /// Latest arrival time per node (0 at primary inputs).
  std::vector<double> arrival_ps;
  /// Required time per node (clock period, or max arrival if none given).
  std::vector<double> required_ps;
  /// slack = required - arrival.
  std::vector<double> slack_ps;
  /// Latest primary-output arrival (circuit delay).
  double max_arrival_ps = 0.0;
  /// Driver of the latest output.
  netlist::GateId critical_output = netlist::kNoGate;
  /// Critical path, primary input first, critical output driver last.
  std::vector<netlist::GateId> critical_path;
  /// Worst slack over primary outputs.
  double wns_ps = 0.0;
};

/// The one DSTA arrival kernel: node @p id's latest arrival, the max of its
/// launch arrival (TimingContext::launch_arrival_ps) and, over its arcs,
/// arrival_of(fanin) + delay_of(i). run_dsta runs it over the snapshot, the
/// DSTA analyzer's what-if over its fanout cone, and Monte Carlo over each
/// draw's sampled delays (the sample loop, ssta/isle.h).
template <typename ArrivalOf, typename DelayOf>
[[nodiscard]] double latest_arrival(const TimingContext& ctx, netlist::GateId id,
                                    ArrivalOf&& arrival_of, DelayOf&& delay_of) {
  const auto& g = ctx.netlist().gate(id);
  double arr = ctx.launch_arrival_ps(id);
  for (std::size_t i = 0; i < g.fanins.size(); ++i) {
    arr = std::max(arr, arrival_of(g.fanins[i]) + delay_of(i));
  }
  return arr;
}

/// The latest primary-output arrival and its driver (kNoGate without
/// outputs); on ties the later output wins.
template <typename ArrivalOf>
[[nodiscard]] std::pair<double, netlist::GateId> latest_output(const netlist::Netlist& nl,
                                                               ArrivalOf&& arrival_of) {
  std::pair<double, netlist::GateId> latest{0.0, netlist::kNoGate};
  for (const auto& out : nl.outputs()) {
    if (arrival_of(out.driver) >= latest.first) latest = {arrival_of(out.driver), out.driver};
  }
  return latest;
}

/// Runs deterministic STA. If @p clock_period_ps is empty, required times are
/// set to the observed max arrival (zero-slack normalization).
[[nodiscard]] DstaResult run_dsta(const TimingContext& ctx,
                                  std::optional<double> clock_period_ps = std::nullopt);

}  // namespace statsizer::sta
