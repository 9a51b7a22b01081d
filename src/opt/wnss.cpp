#include "opt/wnss.h"

#include <algorithm>
#include <cmath>

#include "fassta/clark.h"

namespace statsizer::opt {

using netlist::GateId;
using sta::NodeMoments;

bool more_responsible(const NodeMoments& a, const NodeMoments& b, double c_a, double c_b) {
  const int dom = fassta::dominance(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps);
  if (dom > 0) return true;
  if (dom < 0) return false;
  // Neither dominates: rank by sensitivity of Var(max) to each input's mean
  // (with the coupled sigma step).
  const double sens_a = fassta::max_var_sensitivity_mu_a(
      a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps, kWnssStepFraction, c_a);
  const double sens_b = fassta::max_var_sensitivity_mu_a(
      b.mean_ps, b.sigma_ps, a.mean_ps, a.sigma_ps, kWnssStepFraction, c_b);
  return sens_a >= sens_b;
}

namespace {

/// Coupling coefficient for a node: how sigma tracks mean along paths ending
/// at it. For sizable gates this is the variation model's coefficient at the
/// gate's drive; for PIs/constants there is no variation to couple.
double coupling_of(const sta::TimingContext& ctx, GateId id) {
  if (!ctx.has_cell(id)) return 0.0;
  return ctx.variation().mean_to_sigma_coeff(ctx.drive(id));
}

}  // namespace

WnssTrace trace_wnss(const sta::TimingContext& ctx, std::span<const NodeMoments> moments) {
  const auto& nl = ctx.netlist();
  WnssTrace trace;
  if (nl.outputs().empty()) return trace;

  // Tournament over primary outputs: which one drives the circuit variance?
  GateId winner = nl.outputs()[0].driver;
  for (std::size_t i = 1; i < nl.outputs().size(); ++i) {
    const GateId challenger = nl.outputs()[i].driver;
    if (challenger == winner) continue;
    if (!more_responsible(moments[winner], moments[challenger], coupling_of(ctx, winner),
                          coupling_of(ctx, challenger))) {
      winner = challenger;
    }
  }
  trace.critical_output = winner;

  // Walk back to a primary input, picking the most responsible fanin at each
  // gate. Comparisons use the arrival *through each arc* (fanin arrival plus
  // the arc's delay RV) — the quantities that actually enter the node's max.
  GateId cursor = winner;
  while (true) {
    const auto& g = nl.gate(cursor);
    if (!ctx.has_cell(cursor)) break;  // reached a PI or constant
    trace.path.push_back(cursor);
    if (g.fanins.empty()) break;

    const auto through = [&](std::size_t i) {
      const NodeMoments& in = moments[g.fanins[i]];
      const double d = ctx.arc_delay_ps(cursor, i);
      const double s = ctx.arc_sigma_ps(cursor, i);
      return NodeMoments{in.mean_ps + d, std::sqrt(in.sigma_ps * in.sigma_ps + s * s)};
    };

    std::size_t best = 0;
    NodeMoments best_m = through(0);
    for (std::size_t i = 1; i < g.fanins.size(); ++i) {
      const NodeMoments m = through(i);
      const double c_best = coupling_of(ctx, g.fanins[best]);
      const double c_i = coupling_of(ctx, g.fanins[i]);
      if (!more_responsible(best_m, m, c_best, c_i)) {
        best = i;
        best_m = m;
      }
    }
    cursor = g.fanins[best];
  }

  std::reverse(trace.path.begin(), trace.path.end());
  return trace;
}

}  // namespace statsizer::opt
