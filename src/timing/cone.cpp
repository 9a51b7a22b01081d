#include "timing/cone.h"

#include <algorithm>

#include "util/check.h"

namespace statsizer::timing::detail {

using netlist::GateId;

namespace {

/// Per-thread temporaries of collect() and replay(), grown to the largest
/// cone the thread has served and reused, so neither allocates per call.
/// Only mark is cleared per replay; cand and load are read only where mark
/// says they were written.
struct ConeTemps {
  std::vector<GateId> seeds;
  std::vector<GateId> drivers;
  /// By slot: kResized / kRefolded / kPending bits, 0 behind the front.
  std::vector<std::uint8_t> mark;
  std::vector<const liberty::Cell*> cand;  ///< by slot, where kResized
  std::vector<double> load;                ///< by slot, where kRefolded
  std::vector<double> check;               ///< a paranoid re-relax's arcs
};

enum : std::uint8_t {
  kResized = 1,   ///< a resized gate: re-relaxed with its candidate cell
  kRefolded = 2,  ///< a driver of one: re-relaxed under its re-folded load
  kPending = 4,   ///< a fanout of a front node whose slew moved
};

ConeTemps& thread_cone_temps() {
  thread_local ConeTemps temps;
  return temps;
}

}  // namespace

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

  const std::span<const GateId> cone = sta::collect_cone(ctx, t.seeds, ws);
  ctx_ = &ctx;
  nodes.assign(cone.begin(), cone.end());
  const std::size_t k = nodes.size();
  loads.clear();
  for (const GateId d : t.drivers) loads.emplace_back(d, 0.0);
  std::size_t arcs = 0;
  for (const GateId id : nodes) arcs += nl.gate(id).fanins.size();
  // Reserved, not filled: replay() writes only the front, and a front can
  // be the whole cone.
  front.reserve(k);
  front_of.resize(k);
  slew.reserve(k);
  arc_begin.reserve(k + 1);
  arc_delay.reserve(arcs);
  arc_sigma.reserve(arcs);
}

void ConeSnapshot::replay(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                          const sta::ConeWorkspace& ws) {
  const auto& nl = ctx.netlist();
  const std::size_t k = nodes.size();
  constexpr std::uint32_t kNoSlot = sta::ConeWorkspace::kNoSlot;
  ConeTemps& t = thread_cone_temps();

  std::vector<std::uint8_t>& mark = t.mark;
  mark.assign(k, 0);
  if (t.cand.size() < k) t.cand.resize(k);
  if (t.load.size() < k) t.load.resize(k);
  std::fill(front_of.begin(), front_of.end(), kNotFront);
  front.clear();
  slew.clear();
  arc_begin.assign(1, 0);
  arc_delay.clear();
  arc_sigma.clear();

  for (const Resize& r : resizes) {
    const std::uint32_t s = ws.slot(r.gate);
    t.cand[s] = &ctx.library().cell_for(nl.gate(r.gate).cell_group, r.size);
    mark[s] |= kResized;
  }
  const auto cell_of = [&](GateId id) -> const liberty::Cell& {
    const std::uint32_t s = ws.slot(id);
    return s != kNoSlot && (mark[s] & kResized) != 0 ? *t.cand[s] : ctx.cell(id);
  };
  for (auto& [d, driver_load] : loads) {
    // The shared fold (TimingContext::fold_load): the full sum in update()'s
    // exact accumulation order, candidates substituted.
    driver_load = ctx.fold_load(d, cell_of);
    const std::uint32_t s = ws.slot(d);
    if (s != kNoSlot) {
      t.load[s] = driver_load;
      mark[s] |= kRefolded;
    }
  }

  // Re-propagate the change front through the context's slew/arc kernel
  // (TimingContext::relax_gate) with candidate cells and re-folded loads
  // substituted. relax_gate reads only the gate's cell, its load and its
  // fanin slews, so an unmarked node — no seed, every fanin slew bitwise
  // the context's — would recompute the context's own slew and arcs: it is
  // skipped, and arc()/slew_at() read the context for it. Unmapped nodes
  // keep the base slew and zero arcs, exactly as update() leaves them.
  const auto slew_of = [&](GateId fi) {
    const std::uint32_t f = ws.slot(fi);
    return f != kNoSlot ? slew_at(f) : ctx.slew_ps(fi);
  };
  for (std::uint32_t s = 0; s < k; ++s) {
    if (mark[s] == 0 && !debug::kParanoid) continue;
    const GateId id = nodes[s];
    if (!ctx.has_cell(id)) continue;
    const std::size_t n = nl.gate(id).fanins.size();
    const liberty::Cell& cell = (mark[s] & kResized) != 0 ? *t.cand[s] : ctx.cell(id);
    const double load = (mark[s] & kRefolded) != 0 ? t.load[s] : ctx.load_ff(id);
    if (mark[s] == 0) {
      // The audit of the cutoff: the skipped node, re-relaxed, must
      // reproduce the context's values that arc() and slew_at() read.
      if (t.check.size() < 2 * n) t.check.resize(2 * n);
      const double replayed = ctx.relax_gate(id, cell, load, slew_of, t.check.data(),
                                             t.check.data() + n);
      bool same = same_bits(replayed, ctx.slew_ps(id));
      for (std::size_t i = 0; i < n; ++i) {
        same = same && same_bits(t.check[i], ctx.arc_delay_ps(id, i)) &&
               same_bits(t.check[n + i], ctx.arc_sigma_ps(id, i));
      }
      STATSIZER_PARANOID_CHECK(same, "ConeSnapshot::replay",
                               "a node behind the change front relaxed to new values");
      continue;
    }
    const std::size_t a = arc_delay.size();
    arc_delay.resize(a + n);
    arc_sigma.resize(a + n);
    const double out = ctx.relax_gate(id, cell, load, slew_of, arc_delay.data() + a,
                                      arc_sigma.data() + a);
    front_of[s] = static_cast<std::uint32_t>(front.size());
    front.push_back(id);
    slew.push_back(out);
    arc_begin.push_back(static_cast<std::uint32_t>(a + n));
    if (!same_bits(out, ctx.slew_ps(id))) {
      for (const GateId o : nl.gate(id).fanouts) mark[ws.slot(o)] |= kPending;
    }
  }
}

}  // namespace statsizer::timing::detail
