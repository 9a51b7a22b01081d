#include "fassta/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "fassta/clark.h"

namespace statsizer::fassta {

using netlist::GateId;
using sta::NodeMoments;

Engine::Engine(const sta::TimingContext& ctx, EngineOptions options)
    : ctx_(ctx), options_(options), epoch_(ctx.snapshot_epoch()), base_(run(&circuit_)) {}

NodeMoments Engine::stat_max(const NodeMoments& a, const NodeMoments& b) const {
  if (options_.max_mode == MaxMode::kFast) {
    // dominance() at the configured threshold (the paper's 2.6 by default),
    // keeping a2, a and alpha for the Clark core instead of recomputing them.
    const double a2 = a.sigma_ps * a.sigma_ps + b.sigma_ps * b.sigma_ps;
    if (a2 <= 0.0) return a.mean_ps >= b.mean_ps ? a : b;
    const double root = std::sqrt(a2);
    const double alpha = (a.mean_ps - b.mean_ps) / root;
    if (alpha >= options_.dominance_threshold) return a;
    if (alpha <= -options_.dominance_threshold) return b;
    const ClarkResult r =
        clark_max_fast_core(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps, a2, root, alpha);
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

NodeMoments Engine::run_with_candidate(GateId center, const liberty::Cell& candidate,
                                       Scratch& scratch) const {
  const liberty::Cell* const lane[] = {&candidate};
  NodeMoments circuit;
  run_with_candidates(center, lane, {&circuit, 1}, scratch);
  return circuit;
}

void Engine::run_with_candidates(GateId center, std::span<const liberty::Cell* const> cells,
                                 std::span<NodeMoments> out, Scratch& scratch) const {
  if (ctx_.snapshot_epoch() != epoch_) {
    throw std::logic_error("fassta::Engine: the snapshot moved since the engine was built");
  }
  if (cells.empty()) return;
  if (cells.size() > kMaxLanes) {  // longer lists are walked in turns
    run_with_candidates(center, cells.first(kMaxLanes), out.first(kMaxLanes), scratch);
    run_with_candidates(center, cells.subspan(kMaxLanes), out.subspan(kMaxLanes), scratch);
    return;
  }
  const auto& nl = ctx_.netlist();
  const std::size_t lanes = cells.size();
  const LaneMask all = ~LaneMask{0} >> (kMaxLanes - lanes);

  // Seeds: the center in every lane, and each driver in the lanes whose input
  // pin caps change its load (a PI driver has no arcs to perturb). Every
  // other gate reads the snapshot's arcs, in or out of the cone.
  const auto lanes_loading = [&](GateId f) {
    LaneMask mask = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      mask |= LaneMask{ctx_.load_ff_with_resize(f, center, *cells[k]) != ctx_.load_ff(f)} << k;
    }
    return mask;
  };
  std::vector<GateId>& seeds = scratch.seeds;
  seeds.assign(1, center);
  for (const GateId f : nl.gate(center).fanins) {
    if (!nl.gate(f).fanins.empty() && std::find(seeds.begin(), seeds.end(), f) == seeds.end() &&
        lanes_loading(f) != 0) {
      seeds.push_back(f);
    }
  }

  // The union cone in topological order, each lane replaying its own cone's
  // walk: base arrivals where its own seeds do not reach. A node's lanes live
  // in a row until its last reader (a primary-output driver's to the end),
  // so the rows in use are the cone's front, not the cone.
  constexpr std::uint32_t kNone = sta::ConeWorkspace::kNoSlot;
  sta::ConeWorkspace& ws = sta::thread_cone_workspace();
  const std::span<const GateId> cone = sta::collect_cone(ctx_, seeds, ws);
  std::vector<NodeMoments>& rows = scratch.arrival;
  std::vector<Scratch::Slot>& slots = scratch.slots;
  std::vector<std::uint32_t>& free_rows = scratch.free_rows;
  slots.assign(cone.size(), Scratch::Slot{});
  for (const GateId f : seeds) slots[ws.slot(f)].perturbed = f == center ? all : lanes_loading(f);
  free_rows.clear();
  std::uint32_t rows_used = 0;
  for (std::uint32_t s = 0; s < cone.size(); ++s) {
    const GateId id = cone[s];
    const netlist::Gate& g = nl.gate(id);
    Scratch::Slot& slot = slots[s];
    slot.last_reader = g.po_count > 0 ? kNone : 0;  // every fanout is in the cone
    for (const GateId f : g.fanouts) slot.last_reader = std::max(slot.last_reader, ws.slot(f));
    if (free_rows.empty()) free_rows.push_back(rows_used++);
    slot.row = free_rows.back();
    free_rows.pop_back();
    rows.resize(std::max<std::size_t>(rows.size(), rows_used * lanes));
    NodeMoments* lane = &rows[slot.row * lanes];

    slot.reached = slot.perturbed;
    for (const GateId f : g.fanins) {
      if (ws.slot(f) != kNone) slot.reached |= slots[ws.slot(f)].reached;
    }
    for (LaneMask m = g.fanins.empty() ? all : all & ~slot.reached; m != 0; m &= m - 1) {
      lane[std::countr_zero(m)] = base_[id];
    }
    // fold_arcs, lane by lane: per-node lookups are shared, arcs outermost.
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const std::uint32_t fs = ws.slot(g.fanins[i]);
      const NodeMoments* in = fs != kNone ? &rows[slots[fs].row * lanes] : &base_[g.fanins[i]];
      const double snapshot_d = ctx_.arc_delay_ps(id, i);
      const double snapshot_sg = ctx_.arc_sigma_ps(id, i);
      for (LaneMask m = slot.reached; m != 0; m &= m - 1) {
        const auto k = static_cast<std::size_t>(std::countr_zero(m));
        double d = snapshot_d;
        double sg = snapshot_sg;
        if ((slot.perturbed >> k) & 1) {  // the center, or a driver it loads differently
          const liberty::Cell& cell = (id == center) ? *cells[k] : ctx_.cell(id);
          d = ctx_.arc_delay_with(
              id, i, cell,
              id == center ? ctx_.load_ff(id) : ctx_.load_ff_with_resize(id, center, *cells[k]));
          sg = ctx_.sigma_for(cell, d);
        }
        const NodeMoments& x = in[fs != kNone ? k : 0];
        const NodeMoments through{x.mean_ps + d, std::sqrt(x.sigma_ps * x.sigma_ps + sg * sg)};
        lane[k] = (i == 0) ? through : stat_max(lane[k], through);
      }
    }
    for (const GateId f : g.fanins) {  // this node was the last to read f
      const std::uint32_t fs = ws.slot(f);
      if (fs != kNone && slots[fs].last_reader == s) {
        free_rows.push_back(slots[fs].row);
        slots[fs].last_reader = kNone;  // a repeated fanin frees its row once
      }
    }
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    out[k] = fold_outputs([&](GateId id) -> const NodeMoments& {
      const std::uint32_t s = ws.slot(id);
      return s != kNone ? rows[slots[s].row * lanes + k] : base_[id];
    });
  }
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
