#include "timing/cone.h"

#include <algorithm>

namespace statsizer::timing::detail {

using netlist::GateId;

namespace {

/// Per-thread temporaries of collect() and replay(), grown to the largest
/// cone the thread has served and reused, so neither allocates per call.
struct ConeTemps {
  std::vector<GateId> seeds;
  std::vector<GateId> drivers;
  std::vector<const liberty::Cell*> cand;  ///< by slot; nullptr = keep the bound cell
  std::vector<double> load;                ///< by slot
};

ConeTemps& thread_cone_temps() {
  thread_local ConeTemps temps;
  return temps;
}

}  // namespace

sta::ConeWorkspace& thread_cone_workspace() {
  thread_local sta::ConeWorkspace ws;
  return ws;
}

void ConeSnapshot::collect(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                           sta::ConeWorkspace& ws) {
  const auto& nl = ctx.netlist();
  ConeTemps& t = thread_cone_temps();

  // Seeds: every resized gate (its arc delays change) and each of its mapped
  // drivers (their loads change, and with them their delays and slews).
  // Unconditionally recomputing a driver whose cap delta happens to be zero
  // is harmless: the recomputation reproduces the base bitwise. A
  // PI/constant driver's load feeds no arc: patch it, don't propagate
  // (engines read its arrival, e.g. a set_input_delay launch, from base).
  t.seeds.clear();
  t.drivers.clear();
  for (const Resize& r : resizes) {
    t.seeds.push_back(r.gate);
    for (const GateId d : nl.gate(r.gate).fanins) {
      t.drivers.push_back(d);
      if (ctx.has_cell(d)) t.seeds.push_back(d);
    }
  }
  std::sort(t.drivers.begin(), t.drivers.end());
  t.drivers.erase(std::unique(t.drivers.begin(), t.drivers.end()), t.drivers.end());

  const sta::LevelList cone = sta::collect_cone(ctx, t.seeds, ws);
  nodes.assign(cone.nodes.begin(), cone.nodes.end());
  level_offset.assign(cone.level_offset.begin(), cone.level_offset.end());
  const std::size_t k = nodes.size();
  loads.clear();
  for (const GateId d : t.drivers) loads.emplace_back(d, 0.0);
  arc_begin.assign(k + 1, 0);
  for (std::size_t s = 0; s < k; ++s) {
    arc_begin[s + 1] =
        arc_begin[s] + static_cast<std::uint32_t>(nl.gate(nodes[s]).fanins.size());
  }
  // Unmapped cone nodes keep these zero arcs, exactly as update() leaves them.
  slew.assign(k, 0.0);
  arc_delay.assign(arc_begin[k], 0.0);
  arc_sigma.assign(arc_begin[k], 0.0);
}

void ConeSnapshot::replay(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                          const sta::ConeWorkspace& ws, std::size_t threads) {
  const auto& nl = ctx.netlist();
  const std::size_t k = nodes.size();
  constexpr std::uint32_t kNoSlot = sta::ConeWorkspace::kNoSlot;
  ConeTemps& t = thread_cone_temps();

  std::vector<const liberty::Cell*>& cand = t.cand;
  cand.assign(k, nullptr);
  for (const Resize& r : resizes) {
    cand[ws.slot(r.gate)] = &ctx.library().cell_for(nl.gate(r.gate).cell_group, r.size);
  }
  const auto cell_of = [&](GateId consumer) -> const liberty::Cell& {
    const std::uint32_t s = ws.slot(consumer);
    return s != kNoSlot && cand[s] != nullptr ? *cand[s] : ctx.cell(consumer);
  };
  std::vector<double>& load = t.load;
  load.resize(k);
  for (std::size_t s = 0; s < k; ++s) load[s] = ctx.load_ff(nodes[s]);
  for (auto& [d, driver_load] : loads) {
    // The shared fold (TimingContext::fold_load): the full sum in update()'s
    // exact accumulation order, candidates substituted.
    driver_load = ctx.fold_load(d, cell_of);
    const std::uint32_t s = ws.slot(d);
    if (s != kNoSlot) load[s] = driver_load;
  }

  // Re-propagate the cone through the context's slew/arc kernel
  // (TimingContext::relax_gate) with candidate cells and re-folded loads
  // substituted; unmapped nodes keep the base slew and zero arcs, exactly as
  // update() leaves them.
  const std::size_t cutoff = ctx.options().min_level_width_for_parallel;
  sta::sweep_levels(list(), threads, cutoff, 16, [&](GateId id, std::uint32_t s) {
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
