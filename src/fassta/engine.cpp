#include "fassta/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fassta/clark.h"

namespace statsizer::fassta {

using netlist::GateId;
using sta::NodeMoments;

Engine::Engine(const sta::TimingContext& ctx, EngineOptions options)
    : ctx_(ctx), options_(options), epoch_(ctx.snapshot_epoch()), base_(run()) {}

NodeMoments Engine::stat_max(const NodeMoments& a, const NodeMoments& b) const {
  if (options_.max_mode == MaxMode::kFast) {
    // Dominance early-outs with the configured threshold (the paper's
    // kDominanceThreshold by default).
    const int dom = dominance(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps,
                              options_.dominance_threshold);
    if (dom > 0) return a;
    if (dom < 0) return b;
    const ClarkResult r = clark_max_fast(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps);
    return NodeMoments{r.mean, std::sqrt(r.var)};
  }
  const ClarkResult r = clark_max_exact(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps);
  return NodeMoments{r.mean, std::sqrt(r.var)};
}

std::vector<NodeMoments> Engine::run(NodeMoments* circuit) const {
  const auto& nl = ctx_.netlist();
  std::vector<NodeMoments> arrival(nl.node_count());
  const auto arrival_of = [&](GateId f) -> const NodeMoments& { return arrival[f]; };
  for (const GateId id : ctx_.topo_order()) {
    arrival[id] = fold_arcs(nl.gate(id), arrival_of, [&](std::size_t i) {
      return std::pair{ctx_.arc_delay_ps(id, i), ctx_.arc_sigma_ps(id, i)};
    });
  }
  if (circuit != nullptr) *circuit = fold_outputs(arrival_of);
  return arrival;
}

sta::NodeMoments Engine::run_with_candidate(GateId center, const liberty::Cell& candidate,
                                            Scratch& scratch) const {
  if (ctx_.snapshot_epoch() != epoch_) {
    throw std::logic_error("fassta::Engine: the snapshot moved since the engine was built");
  }
  const auto& nl = ctx_.netlist();

  // Seeds: the center, and the drivers whose load the candidate's input pin
  // caps change (a PI driver has no arcs to perturb). Every other gate reads
  // the snapshot's arcs, in or out of the cone.
  std::vector<GateId>& seeds = scratch.seeds;
  std::vector<std::pair<GateId, double>>& drivers = scratch.perturbed;
  seeds.assign(1, center);
  drivers.clear();
  for (const GateId f : nl.gate(center).fanins) {
    if (nl.gate(f).fanins.empty() || std::find(seeds.begin(), seeds.end(), f) != seeds.end()) {
      continue;
    }
    const double load = ctx_.load_ff_with_resize(f, center, candidate);
    if (load == ctx_.load_ff(f)) continue;
    seeds.push_back(f);
    drivers.emplace_back(f, load);
  }

  // The cone in topological order: every in-cone fanin is recomputed before it is
  // read, everything else comes from the base.
  sta::ConeWorkspace& ws = sta::thread_cone_workspace();
  const std::span<const GateId> cone = sta::collect_cone(ctx_, seeds, ws);
  std::vector<NodeMoments>& arrival = scratch.arrival;
  arrival.resize(cone.size());
  const auto arrival_of = [&](GateId f) -> const NodeMoments& {
    const std::uint32_t s = ws.slot(f);
    return s != sta::ConeWorkspace::kNoSlot ? arrival[s] : base_[f];
  };
  for (std::uint32_t s = 0; s < cone.size(); ++s) {
    const GateId id = cone[s];
    double load = ctx_.load_ff(id);
    const liberty::Cell* cell = (id == center) ? &candidate : nullptr;
    for (const auto& [f, driver_load] : drivers) {
      if (f == id) {
        load = driver_load;
        cell = &ctx_.cell(id);
      }
    }
    arrival[s] = fold_arcs(nl.gate(id), arrival_of, [&](std::size_t i) {
      if (cell == nullptr) return std::pair{ctx_.arc_delay_ps(id, i), ctx_.arc_sigma_ps(id, i)};
      const double d = ctx_.arc_delay_with(id, i, *cell, load);
      return std::pair{d, ctx_.sigma_for(*cell, d)};
    });
  }
  return fold_outputs(arrival_of);
}

std::vector<NodeMoments> Engine::compute_downstream() const {
  const auto& nl = ctx_.netlist();
  std::vector<NodeMoments> down(nl.node_count(), NodeMoments{0.0, 0.0});
  std::vector<bool> seeded(nl.node_count(), false);
  for (const auto& po : nl.outputs()) seeded[po.driver] = true;  // downstream = 0

  const auto& order = ctx_.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const GateId id = *it;
    NodeMoments acc{};
    bool first = !seeded[id];  // if a PO driver, the (0,0) observation competes
    for (const GateId consumer : nl.gate(id).fanouts) {
      const auto& cg = nl.gate(consumer);
      for (std::size_t i = 0; i < cg.fanins.size(); ++i) {
        if (cg.fanins[i] != id) continue;
        const double d = ctx_.arc_delay_ps(consumer, i);
        const double s = ctx_.arc_sigma_ps(consumer, i);
        const NodeMoments& cd = down[consumer];
        const NodeMoments through{cd.mean_ps + d,
                                  std::sqrt(cd.sigma_ps * cd.sigma_ps + s * s)};
        acc = first ? through : stat_max(acc, through);
        first = false;
      }
    }
    if (!first) down[id] = acc;  // seeded nodes started from the (0,0) observation
  }
  return down;
}

SubcircuitCost Engine::evaluate_candidate(const netlist::Subcircuit& sc,
                                          std::span<const NodeMoments> boundary,
                                          std::span<const NodeMoments> downstream,
                                          GateId center, const liberty::Cell& candidate,
                                          double lambda, Scratch& scratch) const {
  const auto& nl = ctx_.netlist();

  // Local arrival moments for members only, indexed by position in sc.gates.
  // The thread's stamped slot index maps GateId -> member in O(1); a new
  // stamp retires the previous call's entries, so a call pays O(|sc|), not
  // O(nodes).
  std::vector<NodeMoments>& local = scratch.arrival;
  local.assign(sc.gates.size(), NodeMoments{});
  sta::ConeWorkspace& members = sta::thread_cone_workspace();
  members.index_list(nl.node_count(), sc.gates);

  const auto arrival_of = [&](GateId id) -> NodeMoments {
    const std::uint32_t li = members.slot(id);
    return li != sta::ConeWorkspace::kNoSlot ? local[li] : boundary[id];
  };

  for (std::uint32_t gi = 0; gi < sc.gates.size(); ++gi) {
    const GateId id = sc.gates[gi];
    const auto& g = nl.gate(id);
    const bool is_center = (id == center);
    const liberty::Cell& cell = is_center ? candidate : ctx_.cell(id);

    // Load: the only load perturbed by the candidate is on gates driving the
    // center (its input pin caps change). The center's own load is untouched.
    double load = ctx_.load_ff(id);
    if (!is_center) {
      const auto& outs = g.fanouts;
      if (std::find(outs.begin(), outs.end(), center) != outs.end()) {
        load = ctx_.load_ff_with_resize(id, center, candidate);
      }
    }

    // Recompute the arc delay only where the candidate perturbs it; reuse
    // the snapshot everywhere else (this is what makes FASSTA fast).
    const bool perturbed = is_center || load != ctx_.load_ff(id);
    const NodeMoments acc = fold_arcs(g, arrival_of, [&](std::size_t i) {
      const double d =
          perturbed ? ctx_.arc_delay_with(id, i, cell, load) : ctx_.arc_delay_ps(id, i);
      return std::pair{d, ctx_.sigma_for(cell, d)};
    });
    local[gi] = acc;
  }

  SubcircuitCost result;
  bool first = true;
  for (const GateId out : sc.outputs) {
    const NodeMoments m = local[members.slot(out)];
    // Project the window output to the primary outputs: local arrival plus
    // the node's downstream potential (independent path segments => RSS).
    const NodeMoments& d = downstream[out];
    const double mean = m.mean_ps + d.mean_ps;
    const double sigma =
        std::sqrt(m.sigma_ps * m.sigma_ps + d.sigma_ps * d.sigma_ps);
    const double cost = mean + lambda * sigma;
    if (first || cost > result.cost) {
      result.cost = cost;
      result.worst_mean_ps = mean;
      result.worst_sigma_ps = sigma;
      first = false;
    }
  }
  return result;
}

}  // namespace statsizer::fassta
