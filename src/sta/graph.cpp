#include "sta/graph.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "debug/validate.h"
#include "netlist/topo.h"
#include "util/check.h"
#include "util/exec.h"

namespace statsizer::sta {

using netlist::GateId;

TimingContext::TimingContext(netlist::Netlist& nl, const liberty::Library& lib,
                             const variation::VariationModel& var, TimingOptions options)
    : nl_(nl), lib_(lib), var_(var), options_(options) {
  order_ = netlist::topological_order(nl_);
  position_.resize(order_.size());
  for (std::uint32_t i = 0; i < order_.size(); ++i) position_[order_[i]] = i;
  structure_version_ = nl_.structure_version();
  arc_offset_.assign(nl_.node_count() + 1, 0);
  for (GateId id = 0; id < nl_.node_count(); ++id) {
    arc_offset_[id + 1] =
        arc_offset_[id] + static_cast<std::uint32_t>(nl_.gate(id).fanins.size());
  }
  // Per-driver load-term lists (CSR), in update()'s historical visit order:
  // walking gates by id and appending to each driver's list reproduces, per
  // driver, the exact sequence of += the one-pass accumulation performed.
  load_term_offset_.assign(nl_.node_count() + 1, 0);
  for (GateId id = 0; id < nl_.node_count(); ++id) {
    const auto& g = nl_.gate(id);
    if (g.po_count > 0) ++load_term_offset_[id + 1];
    if (g.cell_group == netlist::kUnmapped) continue;
    for (const GateId f : g.fanins) ++load_term_offset_[f + 1];
  }
  for (GateId id = 0; id < nl_.node_count(); ++id) {
    load_term_offset_[id + 1] += load_term_offset_[id];
  }
  load_terms_.resize(load_term_offset_[nl_.node_count()]);
  std::vector<std::uint32_t> cursor(load_term_offset_.begin(), load_term_offset_.end() - 1);
  for (GateId id = 0; id < nl_.node_count(); ++id) {
    const auto& g = nl_.gate(id);
    if (g.po_count > 0) load_terms_[cursor[id]++] = LoadTerm{netlist::kNoGate, 0};
    if (g.cell_group == netlist::kUnmapped) continue;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      load_terms_[cursor[g.fanins[i]]++] =
          LoadTerm{id, static_cast<std::uint32_t>(i)};
    }
  }
  update();
}

bool TimingContext::has_cell(GateId id) const {
  return nl_.gate(id).cell_group != netlist::kUnmapped;
}

const liberty::Cell& TimingContext::cell(GateId id) const {
  const auto& g = nl_.gate(id);
  if (g.cell_group == netlist::kUnmapped) {
    throw std::logic_error("TimingContext::cell on unmapped node " + g.name);
  }
  return lib_.cell_for(g.cell_group, g.size_index);
}

double TimingContext::drive(GateId id) const { return has_cell(id) ? cell(id).drive : 1.0; }

double TimingContext::gate_delay_ps(GateId g) const {
  const std::size_t n = nl_.gate(g).fanins.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) worst = std::max(worst, arc_delay_ps(g, i));
  return worst;
}

void TimingContext::update() {
  // The context's derived structure (topo order and positions, arc offsets,
  // load-term lists) is frozen at construction; a structural netlist edit
  // afterwards would make this pass silently wrong, so fail loudly instead
  // (structure_version exists precisely for this check).
  if (structure_version_ != nl_.structure_version() || order_.size() != nl_.node_count()) {
    throw std::logic_error(
        "TimingContext::update: netlist structure changed after construction "
        "(build a fresh TimingContext)");
  }
  if constexpr (debug::kParanoid) {
    // Deep audits of the frozen derived structure (the cheap version-counter
    // check above catches tracked mutations; these catch corruption of the
    // caches themselves).
    debug::validate_topo_order(nl_, order_, position_);
    debug::validate_load_terms(nl_, load_term_offset_, load_terms_);
  }
  ++snapshot_epoch_;
  const std::size_t n = nl_.node_count();
  load_.assign(n, 0.0);
  slew_.assign(n, options_.primary_input_slew_ps);
  arc_delay_.assign(arc_offset_[n], 0.0);
  arc_sigma_.assign(arc_offset_[n], 0.0);

  sum_area();

  // Loads: each driver folds its own term list (TimingContext::load_terms).
  const auto bound_cell = [this](GateId consumer) -> const liberty::Cell& {
    const auto& cg = nl_.gate(consumer);
    return lib_.cell_for(cg.cell_group, cg.size_index);
  };
  for (GateId id = 0; id < n; ++id) load_[id] = fold_load(id, bound_cell);

  // Slews / arc delays / sigmas in topological order: a gate reads only
  // finished fanin slews.
  for (std::size_t s = 0; s < order_.size(); ++s) {
    if ((s & 0xFF) == 0) util::checkpoint("sta/update/level");
    const GateId id = order_[s];
    const auto& g = nl_.gate(id);
    if (g.cell_group == netlist::kUnmapped) continue;  // PI or constant
    slew_[id] = relax_gate(id, lib_.cell_for(g.cell_group, g.size_index), load_[id],
                           [this](GateId f) { return slew_[f]; },
                           arc_delay_.data() + arc_offset_[id],
                           arc_sigma_.data() + arc_offset_[id]);
  }
}

double TimingContext::load_ff_with_resize(GateId driver, GateId center,
                                          const liberty::Cell& candidate) const {
  double load = load_[driver];
  const auto& center_gate = nl_.gate(center);
  if (center_gate.cell_group == netlist::kUnmapped) return load;
  const liberty::Cell& current = lib_.cell_for(center_gate.cell_group, center_gate.size_index);
  for (std::size_t i = 0; i < center_gate.fanins.size(); ++i) {
    if (center_gate.fanins[i] == driver) {
      load += candidate.input_cap_ff(i) - current.input_cap_ff(i);
    }
  }
  return load;
}

double TimingContext::arc_delay_with(GateId g, std::size_t i, const liberty::Cell& cell,
                                     double load_ff) const {
  const GateId fanin = nl_.gate(g).fanins[i];
  return cell.arc_from(i).delay(slew_[fanin], load_ff);
}

double TimingContext::sigma_for(const liberty::Cell& cell, double delay_ps) const {
  return var_.sigma_ps(delay_ps, cell.drive);
}

void TimingContext::apply_snapshot_patch(std::span<const GateId> nodes,
                                         std::span<const std::pair<GateId, double>> loads,
                                         std::span<const double> slew,
                                         std::span<const double> arc_delay,
                                         std::span<const double> arc_sigma) {
  if constexpr (debug::kParanoid) {
    debug::validate_structure_fresh(*this);
    std::size_t arcs = 0;
    for (const GateId id : nodes) arcs += arc_offset_[id + 1] - arc_offset_[id];
    STATSIZER_PARANOID_CHECK(slew.size() == nodes.size() && arc_delay.size() == arcs &&
                                 arc_sigma.size() == arcs,
                             "apply_snapshot_patch", "patch spans do not match the nodes' shape");
  }
  ++snapshot_epoch_;
  for (const auto& [driver, load] : loads) load_[driver] = load;
  std::size_t next = 0;  // the nodes' arcs, back to back
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GateId id = nodes[i];
    slew_[id] = slew[i];
    for (std::uint32_t a = arc_offset_[id]; a < arc_offset_[id + 1]; ++a, ++next) {
      arc_delay_[a] = arc_delay[next];
      arc_sigma_[a] = arc_sigma[next];
    }
  }
  sum_area();
}

void TimingContext::sum_area() {
  // A serial fold in id order: the accumulation sequence is part of the
  // bitwise contract.
  area_um2_ = 0.0;
  for (GateId id = 0; id < nl_.node_count(); ++id) {
    const auto& g = nl_.gate(id);
    if (g.cell_group == netlist::kUnmapped) continue;
    area_um2_ += lib_.cell_for(g.cell_group, g.size_index).area_um2;
  }
}

ConeWorkspace& thread_cone_workspace() {
  thread_local ConeWorkspace ws;
  return ws;
}

void ConeWorkspace::restamp(std::size_t node_count) {
  static std::atomic<std::uint64_t> lists{0};
  generation = lists.fetch_add(1, std::memory_order_relaxed) + 1;
  if (stamps.size() != node_count || ++stamp == 0) {  // resized or wrapped: reset
    stamps.assign(node_count, 0);
    slots.resize(node_count);
    stamp = 1;
  }
  nodes.clear();
}

void ConeWorkspace::index_list(std::size_t node_count, std::span<const GateId> list) {
  restamp(node_count);
  for (std::uint32_t i = 0; i < list.size(); ++i) {
    stamps[list[i]] = stamp;
    slots[list[i]] = i;
  }
}

std::span<const GateId> collect_cone(const TimingContext& ctx, std::span<const GateId> seeds,
                                     ConeWorkspace& ws) {
  const netlist::Netlist& nl = ctx.netlist();
  const std::span<const std::uint32_t> position = ctx.topo_position();
  const std::vector<GateId>& order = ctx.topo_order();
  ws.restamp(nl.node_count());
  std::size_t pending = 0;  // entered, not yet listed
  const auto enter = [&](GateId id) {
    if (ws.stamps[id] == ws.stamp) return;
    ws.stamps[id] = ws.stamp;
    ++pending;
  };
  auto first = static_cast<std::uint32_t>(order.size());  // lowest seed position
  for (const GateId s : seeds) {
    enter(s);
    first = std::min(first, position[s]);
  }

  // Scan topo_order() from the lowest seed position: every member's fanouts
  // come later in the order, hence later in the scan, so listing the entered
  // nodes as they come up yields the closure already sorted. The scan stops
  // at the last member.
  for (std::uint32_t p = first; pending > 0; ++p) {
    const GateId id = order[p];
    if (ws.stamps[id] != ws.stamp) continue;
    --pending;
    ws.slots[id] = static_cast<std::uint32_t>(ws.nodes.size());
    ws.nodes.push_back(id);
    for (const GateId f : nl.gate(id).fanouts) enter(f);
  }
  if constexpr (debug::kParanoid) {
    debug::validate_cone(nl, position, seeds, ws.nodes);
  }
  return ws.nodes;
}

}  // namespace statsizer::sta
