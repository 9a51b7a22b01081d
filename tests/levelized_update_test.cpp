// Propagation pins: TimingContext::update() and ssta::run_fullssta, both
// walks of the context's topo_order(), must be bitwise-identical to
// the original Kahn-order implementations, on cla_adder(8),
// parity_fabric(16), c432, and c880. The original implementation is
// reproduced here from first principles through the public API only (the
// same NLDM lookups, the same accumulation orders), so a regression in
// either pass fails loudly. Below them: the one fanout-cone builder and the
// cone snapshot replay every what-if runs on.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "debug/validate.h"
#include "liberty/synthetic.h"
#include "netlist/topo.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "sta/graph.h"
#include "techmap/mapper.h"
#include "timing/analyzer.h"
#include "timing/cone.h"

namespace statsizer {
namespace {

using netlist::GateId;
using netlist::Netlist;
using pdf::DiscretePdf;

/// Wide balanced XOR fabric (mirrors sizer_parallel_test): wide levels,
/// thousands of near-identical paths.
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

Netlist circuit_for(int kind) {
  switch (kind) {
    case 0: return circuits::make_cla_adder(8);
    case 1: return parity_fabric(16);
    case 2: return circuits::make_table1_circuit("c432");
    default: return circuits::make_table1_circuit("c880");
  }
}

const char* circuit_name(int kind) {
  switch (kind) {
    case 0: return "cla_adder8";
    case 1: return "parity_fabric16";
    case 2: return "c432";
    default: return "c880";
  }
}

/// Mapped circuit + context under default TimingOptions. A deterministic
/// size staircase (gate id mod the group's size count) gives every run the
/// same non-trivial mix of loads and slews without an optimizer pass.
struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    const Status s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    for (GateId g = 0; g < nl.node_count(); ++g) {
      auto& gate = nl.gate(g);
      if (gate.cell_group == netlist::kUnmapped) continue;
      const auto& group = lib.group(gate.cell_group);
      gate.size_index = static_cast<std::uint16_t>(g % group.size_count());
    }
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var);
  }
};

// ---------------------------------------------------------------------------
// The pre-PR serial reference, reproduced through the public API.
// ---------------------------------------------------------------------------

struct RefSnapshot {
  std::vector<double> load;
  std::vector<double> slew;
  std::vector<double> arc_delay;  ///< flattened in (gate, arc) order
  std::vector<double> arc_sigma;
  double area_um2 = 0.0;
};

/// Mirrors the original Kahn-order TimingContext::update() operation for
/// operation: one id-ordered pass accumulating loads (and the area), then
/// the Kahn-ordered slew/arc sweep.
RefSnapshot reference_update(const Netlist& nl, const liberty::Library& lib,
                             const sta::TimingContext& ctx) {
  const sta::TimingOptions& opt = ctx.options();
  const std::size_t n = nl.node_count();
  RefSnapshot ref;
  ref.load.assign(n, 0.0);
  ref.slew.assign(n, opt.primary_input_slew_ps);

  for (GateId id = 0; id < n; ++id) {
    const auto& g = nl.gate(id);
    if (g.po_count > 0) ref.load[id] += opt.primary_output_load_ff * g.po_count;
    if (g.cell_group == netlist::kUnmapped) continue;
    const liberty::Cell& c = lib.cell_for(g.cell_group, g.size_index);
    ref.area_um2 += c.area_um2;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      ref.load[g.fanins[i]] += c.input_cap_ff(i);
    }
  }

  std::vector<std::vector<double>> delay(n), sigma(n);
  for (const GateId id : netlist::topological_order(nl)) {
    const auto& g = nl.gate(id);
    delay[id].assign(g.fanins.size(), 0.0);
    sigma[id].assign(g.fanins.size(), 0.0);
    if (g.cell_group == netlist::kUnmapped) continue;
    const liberty::Cell& c = lib.cell_for(g.cell_group, g.size_index);
    const double load = ref.load[id];
    double out_slew = 0.0;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const liberty::TimingArc& arc = c.arc_from(i);
      const double in_slew = ref.slew[g.fanins[i]];
      const double d = arc.delay(in_slew, load);
      delay[id][i] = d;
      sigma[id][i] = ctx.sigma_for(c, d);
      out_slew = std::max(out_slew, arc.output_slew(in_slew, load));
    }
    ref.slew[id] = out_slew;
  }
  for (GateId id = 0; id < n; ++id) {
    ref.arc_delay.insert(ref.arc_delay.end(), delay[id].begin(), delay[id].end());
    ref.arc_sigma.insert(ref.arc_sigma.end(), sigma[id].begin(), sigma[id].end());
  }
  return ref;
}

/// Mirrors the original Kahn-order ssta::run_fullssta: the topo-order pdf
/// propagation and the output-order RV_O max fold.
ssta::FullSstaResult reference_fullssta(const sta::TimingContext& ctx,
                                        const ssta::FullSstaOptions& options) {
  const auto& nl = ctx.netlist();
  const std::size_t samples = options.samples_per_pdf;

  ssta::FullSstaResult result;
  result.node.assign(nl.node_count(), sta::NodeMoments{});
  std::vector<DiscretePdf> arrival(nl.node_count(), DiscretePdf::point(0.0));
  for (const GateId id : netlist::topological_order(nl)) {
    const auto& g = nl.gate(id);
    if (g.fanins.empty()) continue;
    DiscretePdf acc;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const DiscretePdf delay = DiscretePdf::normal(
          ctx.arc_delay_ps(id, i), ctx.arc_sigma_ps(id, i), samples, options.span_sigmas);
      const DiscretePdf through = pdf::sum(arrival[g.fanins[i]], delay, samples);
      acc = (i == 0) ? through : pdf::max(acc, through, samples);
    }
    result.node[id] = sta::NodeMoments{acc.mean(), acc.stddev()};
    arrival[id] = std::move(acc);
  }
  DiscretePdf out = DiscretePdf::point(0.0);
  bool first = true;
  for (const auto& po : nl.outputs()) {
    out = first ? arrival[po.driver] : pdf::max(out, arrival[po.driver], samples);
    first = false;
  }
  result.output_pdf = std::move(out);
  result.mean_ps = result.output_pdf.mean();
  result.sigma_ps = result.output_pdf.stddev();
  if (options.keep_node_pdfs) result.node_pdf = std::move(arrival);
  return result;
}

// EXPECT_EQ on doubles throughout: the contract is exact bitwise identity,
// not ULP closeness.

void expect_snapshot_equals_reference(const sta::TimingContext& ctx, const RefSnapshot& ref) {
  const auto& nl = ctx.netlist();
  EXPECT_EQ(ctx.area_um2(), ref.area_um2);
  for (GateId id = 0; id < nl.node_count(); ++id) {
    EXPECT_EQ(ctx.load_ff(id), ref.load[id]) << "load of node " << id;
    EXPECT_EQ(ctx.slew_ps(id), ref.slew[id]) << "slew of node " << id;
    for (std::size_t i = 0; i < nl.gate(id).fanins.size(); ++i) {
      EXPECT_EQ(ctx.arc_delay_ps(id, i), ref.arc_delay[ctx.arc_offset(id) + i])
          << "arc delay (" << id << ", " << i << ")";
      EXPECT_EQ(ctx.arc_sigma_ps(id, i), ref.arc_sigma[ctx.arc_offset(id) + i])
          << "arc sigma (" << id << ", " << i << ")";
    }
  }
}

void expect_pdf_eq(const DiscretePdf& a, const DiscretePdf& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.origin(), b.origin());
  EXPECT_EQ(a.step(), b.step());
  EXPECT_EQ(a.masses(), b.masses());
}

void expect_fullssta_eq(const ssta::FullSstaResult& a, const ssta::FullSstaResult& b) {
  EXPECT_EQ(a.mean_ps, b.mean_ps);
  EXPECT_EQ(a.sigma_ps, b.sigma_ps);
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_EQ(a.node[i].mean_ps, b.node[i].mean_ps) << "node " << i;
    EXPECT_EQ(a.node[i].sigma_ps, b.node[i].sigma_ps) << "node " << i;
  }
  expect_pdf_eq(a.output_pdf, b.output_pdf);
  ASSERT_EQ(a.node_pdf.size(), b.node_pdf.size());
  for (std::size_t i = 0; i < a.node_pdf.size(); ++i) {
    expect_pdf_eq(a.node_pdf[i], b.node_pdf[i]);
  }
}

class LevelizedUpdate : public ::testing::TestWithParam<int> {};

// update() runs serially (TimingOptions::threads is the constant 1), so
// this pins the serial pass against the reference.
TEST_P(LevelizedUpdate, UpdateMatchesPrePrSerialReferenceAcrossThreadCounts) {
  const Bench serial(circuit_for(GetParam()));
  const RefSnapshot ref = reference_update(serial.nl, serial.lib, *serial.ctx);
  expect_snapshot_equals_reference(*serial.ctx, ref);
}

// run_fullssta is serial too (FullSstaOptions::threads is the constant 1).
TEST_P(LevelizedUpdate, FullSstaMatchesPrePrSerialReferenceAcrossThreadCounts) {
  const Bench b(circuit_for(GetParam()));
  ssta::FullSstaOptions opt;
  opt.keep_node_pdfs = true;
  expect_fullssta_eq(ssta::run_fullssta(*b.ctx, opt), reference_fullssta(*b.ctx, opt));
}

TEST_P(LevelizedUpdate, ContextCachesAValidTopoOrder) {
  const Bench b(circuit_for(GetParam()));
  EXPECT_EQ(b.ctx->structure_version(), b.nl.structure_version());
  EXPECT_EQ(b.ctx->topo_order(), netlist::topological_order(b.nl));
  EXPECT_NO_THROW(debug::validate_topo_order(b.nl, b.ctx->topo_order(), b.ctx->topo_position()));
}

INSTANTIATE_TEST_SUITE_P(Circuits, LevelizedUpdate, ::testing::Values(0, 1, 2, 3),
                         [](const auto& info) { return circuit_name(info.param); });

// The context's derived structure (topo order and positions, load-term
// lists) is frozen at construction; a structural edit afterwards must make
// update() fail loudly instead of folding stale term lists silently.
TEST(LevelizedUpdate, UpdateThrowsAfterStructuralNetlistEdit) {
  Bench b(circuits::make_cla_adder(8));
  b.ctx->update();  // still structurally valid: fine
  b.nl.add_output("late_po", b.nl.outputs()[0].driver);
  EXPECT_THROW(b.ctx->update(), std::logic_error);
}

// ---------------------------------------------------------------------------
// The one fanout-cone builder (sta::collect_cone) behind every what-if: the
// FULLSSTA/FASSTA/DSTA speculations and FASSTA's candidate scoring.
// ---------------------------------------------------------------------------

Netlist cone_circuit(const std::string& name) {
  if (name == "cla8") return circuits::make_cla_adder(8);
  if (name == "mesh3x3x4") return circuits::make_mesh_interconnect({3, 3, 4});
  return circuits::make_table1_circuit(name);
}

/// Brute-force fanout closure of @p seeds, listed in @p order.
std::vector<GateId> brute_force_cone(const Netlist& nl, const std::vector<GateId>& order,
                                     const std::vector<GateId>& seeds) {
  std::vector<bool> in(nl.node_count(), false);
  std::vector<GateId> stack(seeds.begin(), seeds.end());
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (in[g]) continue;
    in[g] = true;
    for (const GateId f : nl.gate(g).fanouts) stack.push_back(f);
  }
  std::vector<GateId> cone;
  for (const GateId id : order) {
    if (in[id]) cone.push_back(id);
  }
  return cone;
}

/// Collects @p seeds into @p ws and checks the result against the brute-force
/// closure: same members in topo_order() order (hence sorted and
/// duplicate-free), and a slot lookup that answers every node of the netlist.
void expect_cone(const Bench& b, const std::vector<GateId>& seeds, sta::ConeWorkspace& ws) {
  const std::span<const GateId> cone = sta::collect_cone(*b.ctx, seeds, ws);
  const std::vector<GateId> want = brute_force_cone(b.nl, b.ctx->topo_order(), seeds);
  ASSERT_EQ(std::vector<GateId>(cone.begin(), cone.end()), want);

  std::vector<std::uint32_t> slot_of(b.nl.node_count(), sta::ConeWorkspace::kNoSlot);
  for (std::uint32_t s = 0; s < cone.size(); ++s) slot_of[cone[s]] = s;
  for (GateId id = 0; id < b.nl.node_count(); ++id) ASSERT_EQ(ws.slot(id), slot_of[id]);
  debug::validate_cone(b.nl, b.ctx->topo_position(), seeds, cone);
}

/// Multi-resize seed sets: strided gates, a leading batch with duplicates,
/// and every primary-output driver (the shallowest possible cones).
std::vector<std::vector<GateId>> multi_seed_sets(const Bench& b) {
  std::vector<GateId> mapped;
  for (GateId g = 0; g < b.nl.node_count(); ++g) {
    if (b.ctx->has_cell(g)) mapped.push_back(g);
  }
  std::vector<std::vector<GateId>> sets(3);
  for (std::size_t i = 0; i < mapped.size(); i += 7) sets[0].push_back(mapped[i]);
  for (std::size_t i = 0; i < std::min<std::size_t>(6, mapped.size()); ++i) {
    sets[1].push_back(mapped[i]);
    sets[1].push_back(mapped[i]);
  }
  for (const auto& po : b.nl.outputs()) sets[2].push_back(po.driver);
  return sets;
}

class ConeBuilder : public ::testing::TestWithParam<std::string> {};

TEST_P(ConeBuilder, EqualsBruteForceClosureForEveryGateAndSeedSet) {
  const Bench b(cone_circuit(GetParam()));
  sta::ConeWorkspace ws;  // one workspace across every call: stale entries carry over
  std::size_t gates = 0;
  for (GateId g = 0; g < b.nl.node_count(); ++g) {
    if (!b.ctx->has_cell(g)) continue;
    // The speculation seeds: the gate plus its mapped drivers.
    std::vector<GateId> seeds{g};
    for (const GateId d : b.nl.gate(g).fanins) {
      if (b.ctx->has_cell(d)) seeds.push_back(d);
    }
    expect_cone(b, seeds, ws);
    ++gates;
  }
  EXPECT_GT(gates, 0u);
  for (const std::vector<GateId>& seeds : multi_seed_sets(b)) expect_cone(b, seeds, ws);
}

TEST_P(ConeBuilder, SurvivesWorkspaceReuseAndStampWraparound) {
  const Bench b(cone_circuit(GetParam()));
  const std::vector<std::vector<GateId>> sets = multi_seed_sets(b);
  sta::ConeWorkspace ws;
  for (const auto& seeds : sets) expect_cone(b, seeds, ws);
  // Force the stamp to the top of its range: the next collection uses the
  // last stamp, the one after wraps, retires every entry, and restarts at 1.
  ws.stamp = ~std::uint32_t{0} - 1;
  expect_cone(b, sets[0], ws);
  EXPECT_EQ(ws.stamp, ~std::uint32_t{0});
  expect_cone(b, sets[2], ws);
  EXPECT_EQ(ws.stamp, 1u);
  expect_cone(b, sets[1], ws);
  // A workspace moved to a different netlist resizes its index.
  const Bench other(circuits::make_cla_adder(4));
  expect_cone(other, {other.nl.outputs()[0].driver}, ws);
  expect_cone(b, sets[0], ws);
}

TEST_P(ConeBuilder, ScoredConeSnapshotIsSizedByTheCone) {
  const Bench b(cone_circuit(GetParam()));
  // A mid-circuit gate with fanouts, bumped one size.
  GateId gate = netlist::kNoGate;
  for (GateId g = 0; g < b.nl.node_count() && gate == netlist::kNoGate; ++g) {
    if (b.ctx->has_cell(g) && !b.nl.gate(g).fanins.empty() &&
        b.ctx->has_cell(b.nl.gate(g).fanins[0]) && !b.nl.gate(g).fanouts.empty()) {
      gate = g;
    }
  }
  ASSERT_NE(gate, netlist::kNoGate);
  const auto& group = b.lib.group(b.nl.gate(gate).cell_group);
  const timing::Resize r{gate, static_cast<std::uint16_t>(
                                   (b.nl.gate(gate).size_index + 1) % group.size_count())};
  sta::ConeWorkspace ws;
  timing::detail::ConeSnapshot snap;
  snap.collect(*b.ctx, std::span<const timing::Resize>(&r, 1), ws);
  snap.replay(*b.ctx, std::span<const timing::Resize>(&r, 1), ws);

  EXPECT_EQ(snap.nodes, ws.nodes);
  EXPECT_LT(snap.nodes.size(), b.nl.node_count());
  std::size_t arcs = 0;
  for (const GateId id : snap.nodes) arcs += b.nl.gate(id).fanins.size();
  EXPECT_LT(arcs, b.ctx->arc_count());
  EXPECT_EQ(snap.slew.size(), snap.nodes.size());
  EXPECT_EQ(snap.arc_begin.size(), snap.nodes.size() + 1);
  EXPECT_EQ(snap.arc_delay.size(), arcs);
  EXPECT_EQ(snap.arc_sigma.size(), arcs);
  EXPECT_LE(snap.loads.size(), b.nl.gate(gate).fanins.size());
  // Re-binding the gate's current size replays the same cone with the bound
  // cells, which must reproduce the snapshot bitwise.
  const timing::Resize same{gate, b.nl.gate(gate).size_index};
  snap.collect(*b.ctx, std::span<const timing::Resize>(&same, 1), ws);
  snap.replay(*b.ctx, std::span<const timing::Resize>(&same, 1), ws);
  for (std::uint32_t s = 0; s < snap.nodes.size(); ++s) {
    const GateId id = snap.nodes[s];
    EXPECT_EQ(snap.slew[s], b.ctx->slew_ps(id));
    for (std::size_t i = 0; i < b.nl.gate(id).fanins.size(); ++i) {
      EXPECT_EQ(snap.arc(s, i), std::pair(b.ctx->arc_delay_ps(id, i), b.ctx->arc_sigma_ps(id, i)));
    }
  }
  for (const auto& [driver, load] : snap.loads) EXPECT_EQ(load, b.ctx->load_ff(driver));
}

/// The bit pattern of @p v: a bitwise check tells -0.0 from 0.0 and
/// passes a NaN only against its own pattern.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Replays @p resizes over @p b's context and checks every slot's slew and
/// arcs, and every re-folded load, against @p twin after it applies the
/// resizes and runs update(); then restores the twin's sizes. Returns false
/// (after one failure) on the first difference.
bool replay_equals_update(const Bench& b, Bench& twin, std::span<const timing::Resize> resizes,
                          sta::ConeWorkspace& ws, timing::detail::ConeSnapshot& snap) {
  snap.collect(*b.ctx, resizes, ws);
  snap.replay(*b.ctx, resizes, ws);
  std::vector<std::uint16_t> keep;
  for (const timing::Resize& r : resizes) {
    keep.push_back(twin.nl.gate(r.gate).size_index);
    twin.nl.gate(r.gate).size_index = r.size;
  }
  twin.ctx->update();
  const auto where = [&](GateId id) {
    return "resize of gate " + std::to_string(resizes[0].gate) + " to size " +
           std::to_string(resizes[0].size) + " (" + std::to_string(resizes.size()) +
           " resizes), cone node " + std::to_string(id);
  };
  bool same = true;
  for (std::uint32_t s = 0; s < snap.nodes.size() && same; ++s) {
    const GateId id = snap.nodes[s];
    same = bits(snap.slew[s]) == bits(twin.ctx->slew_ps(id));
    EXPECT_TRUE(same) << "slew of " << where(id);
    for (std::size_t i = 0; i < b.nl.gate(id).fanins.size() && same; ++i) {
      const auto [delay, sigma] = snap.arc(s, i);
      same = bits(delay) == bits(twin.ctx->arc_delay_ps(id, i)) &&
             bits(sigma) == bits(twin.ctx->arc_sigma_ps(id, i));
      EXPECT_TRUE(same) << "arc " << i << " of " << where(id);
    }
  }
  for (const auto& [driver, load] : snap.loads) {
    if (!same) break;
    same = bits(load) == bits(twin.ctx->load_ff(driver));
    EXPECT_TRUE(same) << "load of driver " << driver << ", " << where(driver);
  }
  for (std::size_t i = 0; i < resizes.size(); ++i) {
    twin.nl.gate(resizes[i].gate).size_index = keep[i];
  }
  return same;
}

// The change-front cutoff copies every cone slot whose cell, load and fanin
// slews are bitwise the context's. Every mapped gate, each of its other
// sizes, and the multi-resize sets must still replay to exactly what a twin
// context computes with update() — a cutoff that skipped a node whose fanin
// slew moved would leave a stale slew or arc behind.
TEST_P(ConeBuilder, ReplayedSnapshotEqualsUpdateForEveryResize) {
  const Bench b(cone_circuit(GetParam()));
  Bench twin(cone_circuit(GetParam()));
  sta::ConeWorkspace ws;
  timing::detail::ConeSnapshot snap;
  std::size_t replays = 0;
  for (GateId g = 0; g < b.nl.node_count(); ++g) {
    if (!b.ctx->has_cell(g)) continue;
    const auto& group = b.lib.group(b.nl.gate(g).cell_group);
    for (std::uint16_t size = 0; size < group.size_count(); ++size) {
      if (size == b.nl.gate(g).size_index) continue;
      const timing::Resize r{g, size};
      ASSERT_TRUE(replay_equals_update(b, twin, std::span<const timing::Resize>(&r, 1), ws, snap));
      ++replays;
    }
  }
  EXPECT_GT(replays, 0u);
  for (const std::vector<GateId>& seeds : multi_seed_sets(b)) {
    // Distinct mapped gates, each bumped one size.
    std::vector<timing::Resize> resizes;
    for (const GateId g : seeds) {
      const bool seen = std::any_of(resizes.begin(), resizes.end(),
                                    [g](const timing::Resize& r) { return r.gate == g; });
      if (seen || !b.ctx->has_cell(g)) continue;
      const auto& group = b.lib.group(b.nl.gate(g).cell_group);
      resizes.push_back(timing::Resize{
          g, static_cast<std::uint16_t>((b.nl.gate(g).size_index + 1) % group.size_count())});
    }
    ASSERT_TRUE(replay_equals_update(b, twin, resizes, ws, snap));
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ConeBuilder,
                         ::testing::Values("cla8", "c432", "c880", "mesh3x3x4"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace statsizer