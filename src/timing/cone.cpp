#include "timing/cone.h"

#include <algorithm>

namespace statsizer::timing::detail {

using netlist::GateId;

sta::ConeWorkspace& thread_cone_workspace() {
  thread_local sta::ConeWorkspace ws;
  return ws;
}

void ConeSnapshot::propagate(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                             sta::ConeWorkspace& ws, std::size_t threads) {
  const auto& nl = ctx.netlist();

  // Seeds: every resized gate (its arc delays change) and each of its mapped
  // drivers (their loads change, and with them their delays and slews).
  // Unconditionally recomputing a driver whose cap delta happens to be zero
  // is harmless: the recomputation reproduces the base bitwise. A
  // PI/constant driver's load feeds no arc: patch it, don't propagate
  // (engines read its arrival, e.g. a set_input_delay launch, from base).
  std::vector<GateId> seeds;
  std::vector<GateId> drivers;
  for (const Resize& r : resizes) {
    seeds.push_back(r.gate);
    for (const GateId d : nl.gate(r.gate).fanins) {
      drivers.push_back(d);
      if (ctx.has_cell(d)) seeds.push_back(d);
    }
  }
  std::sort(drivers.begin(), drivers.end());
  drivers.erase(std::unique(drivers.begin(), drivers.end()), drivers.end());

  const sta::LevelList cone = sta::collect_cone(ctx, seeds, ws);
  nodes.assign(cone.nodes.begin(), cone.nodes.end());
  const std::size_t k = nodes.size();
  constexpr std::uint32_t kNoSlot = sta::ConeWorkspace::kNoSlot;

  std::vector<const liberty::Cell*> cand(k, nullptr);  // nullptr = keep the bound cell
  for (const Resize& r : resizes) {
    cand[ws.slot(r.gate)] = &ctx.library().cell_for(nl.gate(r.gate).cell_group, r.size);
  }
  const auto cell_of = [&](GateId consumer) -> const liberty::Cell& {
    const std::uint32_t s = ws.slot(consumer);
    return s != kNoSlot && cand[s] != nullptr ? *cand[s] : ctx.cell(consumer);
  };
  std::vector<double> load(k);
  for (std::size_t s = 0; s < k; ++s) load[s] = ctx.load_ff(nodes[s]);
  loads.clear();
  for (const GateId d : drivers) {
    // The shared fold (TimingContext::fold_load): the full sum in update()'s
    // exact accumulation order, candidates substituted.
    loads.emplace_back(d, ctx.fold_load(d, cell_of));
    const std::uint32_t s = ws.slot(d);
    if (s != kNoSlot) load[s] = loads.back().second;
  }

  arc_begin.assign(k + 1, 0);
  for (std::size_t s = 0; s < k; ++s) {
    arc_begin[s + 1] =
        arc_begin[s] + static_cast<std::uint32_t>(nl.gate(nodes[s]).fanins.size());
  }
  slew.assign(k, 0.0);
  arc_delay.assign(arc_begin[k], 0.0);
  arc_sigma.assign(arc_begin[k], 0.0);

  // Re-propagate the cone through the context's slew/arc kernel
  // (TimingContext::relax_gate) with candidate cells and re-folded loads
  // substituted; unmapped nodes keep the base slew and zero arcs, exactly as
  // update() leaves them.
  const std::size_t cutoff = ctx.options().min_level_width_for_parallel;
  sta::sweep_levels(cone, threads, cutoff, 16, [&](GateId id, std::uint32_t s) {
    if (!ctx.has_cell(id)) {
      slew[s] = ctx.slew_ps(id);
      return;
    }
    slew[s] = ctx.relax_gate(
        id, cand[s] != nullptr ? *cand[s] : ctx.cell(id), load[s],
        [&](GateId fi) {
          const std::uint32_t f = ws.slot(fi);
          return f != kNoSlot ? slew[f] : ctx.slew_ps(fi);
        },
        arc_delay.data() + arc_begin[s], arc_sigma.data() + arc_begin[s]);
  });
}

}  // namespace statsizer::timing::detail
