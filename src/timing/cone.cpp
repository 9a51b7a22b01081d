#include "timing/cone.h"

namespace statsizer::timing::detail {

using netlist::GateId;

void ConeSnapshot::propagate(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                             std::size_t threads) {
  const auto& nl = ctx.netlist();
  const std::size_t n = nl.node_count();

  cand.assign(n, nullptr);
  for (const Resize& r : resizes) {
    cand[r.gate] = &ctx.library().cell_for(nl.gate(r.gate).cell_group, r.size);
  }
  const auto cell_of = [&](GateId consumer) -> const liberty::Cell& {
    const liberty::Cell* c = cand[consumer];
    return c != nullptr ? *c : ctx.cell(consumer);
  };

  // Seeds: every resized gate (its arc delays change) and each of its
  // drivers (their loads change; for mapped drivers that also means delays
  // and slews). Unconditionally recomputing a driver whose cap delta happens
  // to be zero is harmless: the recomputation reproduces the base bitwise.
  dirty.assign(n, 0);
  load_dirty.assign(n, 0);
  load.assign(n, 0.0);
  slew.assign(n, 0.0);
  arc_delay.assign(ctx.arc_count(), 0.0);
  arc_sigma.assign(ctx.arc_count(), 0.0);
  std::vector<GateId> stack;
  const auto mark = [&](GateId g) {
    if (!dirty[g]) {
      dirty[g] = 1;
      stack.push_back(g);
    }
  };
  for (const Resize& r : resizes) {
    mark(r.gate);
    for (const GateId d : nl.gate(r.gate).fanins) {
      if (!load_dirty[d]) {
        load_dirty[d] = 1;
        // The shared fold (TimingContext::fold_load): the full sum in
        // update()'s exact accumulation order, candidates substituted.
        load[d] = ctx.fold_load(d, cell_of);
      }
      // A PI/constant driver's load feeds no arc: patch it, don't propagate
      // (engines read its arrival, e.g. a set_input_delay launch, from base).
      if (ctx.has_cell(d)) mark(d);
    }
  }
  // Downstream closure: a changed slew or arrival dirties every fanout.
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const GateId f : nl.gate(g).fanouts) mark(f);
  }

  // Fan out only where the cone actually is: a resize's dirty closure
  // usually touches a sliver of each level, so the wavefront's working width
  // is the level's *dirty* count (clean levels skip entirely, thin ones run
  // serially). One O(nodes) byte scan — trivial next to the replay work.
  dirty_per_level.clear();
  if (threads != 1) {
    const netlist::Levelization& lv = ctx.levelization();
    dirty_per_level.assign(lv.level_count(), 0);
    for (GateId id = 0; id < n; ++id) {
      if (dirty[id]) ++dirty_per_level[lv.level_of[id]];
    }
  }

  // Re-propagate the dirty set through the context's slew/arc kernel
  // (TimingContext::relax_gate) with candidate cells and re-folded loads
  // substituted; unmapped nodes keep the base slew and zero arcs, exactly as
  // update() leaves them.
  sta::sweep_levels(
      ctx, threads, 16,
      [&](GateId id) {
        if (!dirty[id]) return;
        if (!ctx.has_cell(id)) {
          slew[id] = ctx.slew_ps(id);
          return;
        }
        slew[id] = ctx.relax_gate(
            id, cand[id] != nullptr ? *cand[id] : ctx.cell(id),
            load_dirty[id] ? load[id] : ctx.load_ff(id),
            [&](GateId fi) { return dirty[fi] ? slew[fi] : ctx.slew_ps(fi); },
            arc_delay.data(), arc_sigma.data());
      },
      dirty_per_level);
}

}  // namespace statsizer::timing::detail
