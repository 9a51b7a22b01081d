#include "sta/dsta.h"

#include <algorithm>
#include <limits>
#include <tuple>

namespace statsizer::sta {

using netlist::GateId;

DstaResult run_dsta(const TimingContext& ctx, std::optional<double> clock_period_ps) {
  const auto& nl = ctx.netlist();
  const TimingConstraints& cons = ctx.constraints();
  const std::size_t n = nl.node_count();
  DstaResult r;
  r.arrival_ps.assign(n, 0.0);

  const auto arrival_of = [&](GateId f) { return r.arrival_ps[f]; };
  for (const GateId id : ctx.topo_order()) {
    r.arrival_ps[id] =
        latest_arrival(ctx, id, arrival_of, [&](std::size_t i) { return ctx.arc_delay_ps(id, i); });
  }
  std::tie(r.max_arrival_ps, r.critical_output) = latest_output(nl, arrival_of);

  // Required times: initialize at POs, relax backwards. Precedence for the
  // PO target: explicit argument, then the context's constraints
  // (create_clock), then zero-slack normalization at the observed max
  // arrival. set_output_delay tightens each output by its own margin.
  const double target =
      clock_period_ps.has_value()
          ? *clock_period_ps
          : cons.clock_period_ps.value_or(r.max_arrival_ps);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  r.required_ps.assign(n, kInf);
  for (std::size_t oi = 0; oi < nl.outputs().size(); ++oi) {
    const auto& out = nl.outputs()[oi];
    const double margin = cons.output_delay_ps.empty() ? 0.0 : cons.output_delay_ps[oi];
    r.required_ps[out.driver] = std::min(r.required_ps[out.driver], target - margin);
  }
  for (auto it = ctx.topo_order().rbegin(); it != ctx.topo_order().rend(); ++it) {
    const GateId id = *it;
    const auto& g = nl.gate(id);
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const GateId f = g.fanins[i];
      r.required_ps[f] =
          std::min(r.required_ps[f], r.required_ps[id] - ctx.arc_delay_ps(id, i));
    }
  }

  r.slack_ps.assign(n, 0.0);
  for (GateId id = 0; id < n; ++id) {
    r.slack_ps[id] =
        r.required_ps[id] == kInf ? 0.0 : r.required_ps[id] - r.arrival_ps[id];
  }

  r.wns_ps = kInf;
  for (const auto& out : nl.outputs()) r.wns_ps = std::min(r.wns_ps, r.slack_ps[out.driver]);
  if (nl.outputs().empty()) r.wns_ps = 0.0;

  // Critical path: walk back from the critical output along argmax fanins.
  if (r.critical_output != netlist::kNoGate) {
    GateId cursor = r.critical_output;
    r.critical_path.push_back(cursor);
    while (!nl.gate(cursor).fanins.empty()) {
      const auto& g = nl.gate(cursor);
      GateId best = g.fanins[0];
      double best_arr = -kInf;
      for (std::size_t i = 0; i < g.fanins.size(); ++i) {
        const double a = r.arrival_ps[g.fanins[i]] + ctx.arc_delay_ps(cursor, i);
        if (a > best_arr) {
          best_arr = a;
          best = g.fanins[i];
        }
      }
      cursor = best;
      r.critical_path.push_back(cursor);
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());
  }
  return r;
}

}  // namespace statsizer::sta
