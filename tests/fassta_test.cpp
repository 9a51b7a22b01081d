#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "fassta/engine.h"
#include "liberty/synthetic.h"
#include "netlist/subcircuit.h"
#include "ssta/fullssta.h"
#include "techmap/mapper.h"
#include "timing/analyzer.h"

namespace statsizer::fassta {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

TEST(Engine, TracksFullSsta) {
  Bench b(circuits::make_cla_adder(8));
  const Engine eng(*b.ctx);
  sta::NodeMoments circuit;
  const auto node = eng.run(&circuit);
  const auto full = ssta::run_fullssta(*b.ctx);
  EXPECT_NEAR(circuit.mean_ps, full.mean_ps, 0.02 * full.mean_ps);
  EXPECT_NEAR(circuit.sigma_ps, full.sigma_ps, 0.3 * full.sigma_ps);
  // Per-node means track closely too.
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_NEAR(node[id].mean_ps, full.node[id].mean_ps,
                0.03 * std::max(full.node[id].mean_ps, 10.0))
        << b.nl.gate(id).name;
  }
}

TEST(Engine, FastAndExactModesAgree) {
  Bench b(circuits::make_cla_adder(8));
  EngineOptions fast;
  fast.max_mode = MaxMode::kFast;
  EngineOptions exact;
  exact.max_mode = MaxMode::kExact;
  sta::NodeMoments mf, me;
  (void)Engine(*b.ctx, fast).run(&mf);
  (void)Engine(*b.ctx, exact).run(&me);
  EXPECT_NEAR(mf.mean_ps, me.mean_ps, 0.01 * me.mean_ps);
  EXPECT_NEAR(mf.sigma_ps, me.sigma_ps, 0.08 * me.sigma_ps + 0.2);
}

TEST(Engine, RunWithCurrentCellIsIdentity) {
  // Bitwise: the sizer reads the current size's score from base_circuit().
  for (const char* name : {"c432", "c880", "c6288"}) {
    Bench b(circuits::make_table1_circuit(name));
    const Engine eng(*b.ctx);
    sta::NodeMoments base;
    (void)eng.run(&base);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(eng.base_circuit().mean_ps),
              std::bit_cast<std::uint64_t>(base.mean_ps));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(eng.base_circuit().sigma_ps),
              std::bit_cast<std::uint64_t>(base.sigma_ps));
    Engine::Scratch scratch;
    for (GateId id = 0; id < b.nl.node_count(); ++id) {
      if (!b.ctx->has_cell(id)) continue;
      const sta::NodeMoments m = eng.run_with_candidate(id, b.ctx->cell(id), scratch);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.mean_ps), std::bit_cast<std::uint64_t>(base.mean_ps))
          << name << " " << b.nl.gate(id).name;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.sigma_ps),
                std::bit_cast<std::uint64_t>(base.sigma_ps))
          << name << " " << b.nl.gate(id).name;
    }
  }
}

TEST(Engine, RunWithCandidateMatchesCommittedResize) {
  Bench b(circuits::make_ripple_adder(6));
  const Engine eng(*b.ctx);
  // Pick a mid-circuit gate and its largest size.
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id) || b.nl.gate(id).fanouts.empty()) continue;
    const auto& group = b.lib.group(b.nl.gate(id).cell_group);
    const auto big = static_cast<std::uint16_t>(group.size_count() - 1);
    const liberty::Cell& cell = b.lib.cell_for(b.nl.gate(id).cell_group, big);
    Engine::Scratch scratch;
    const sta::NodeMoments what_if = eng.run_with_candidate(id, cell, scratch);

    b.nl.gate(id).size_index = big;
    b.ctx->update();
    sta::NodeMoments committed;
    (void)Engine(*b.ctx).run(&committed);
    // The what-if reuses snapshot slews, so allow a modest tolerance.
    EXPECT_NEAR(what_if.mean_ps, committed.mean_ps, 0.08 * committed.mean_ps);
    return;
  }
  FAIL();
}

TEST(Engine, DownstreamOfPoDriversIsZeroOrSideLoad) {
  Bench b(circuits::make_ripple_adder(4));
  const Engine eng(*b.ctx);
  const auto down = eng.compute_downstream();
  for (const auto& po : b.nl.outputs()) {
    // A pure PO driver (no gate fanouts) has zero downstream.
    if (b.nl.gate(po.driver).fanouts.empty()) {
      EXPECT_DOUBLE_EQ(down[po.driver].mean_ps, 0.0);
      EXPECT_DOUBLE_EQ(down[po.driver].sigma_ps, 0.0);
    }
  }
}

TEST(Engine, DownstreamOnChainIsSuffixSum) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  std::vector<GateId> gates;
  for (int i = 0; i < 6; ++i) {
    prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
    gates.push_back(prev);
  }
  nl.add_output("y", prev);
  Bench b(std::move(nl));
  const Engine eng(*b.ctx);
  const auto down = eng.compute_downstream();
  // Walking backwards, downstream mean accumulates each arc delay.
  double expect = 0.0;
  for (auto it = b.ctx->topo_order().rbegin(); it != b.ctx->topo_order().rend(); ++it) {
    if (!b.ctx->has_cell(*it)) continue;
    EXPECT_NEAR(down[*it].mean_ps, expect, 1e-9);
    expect += b.ctx->arc_delay_ps(*it, 0);
  }
}

TEST(Engine, ArrivalPlusDownstreamIsPathInvariantOnChain) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  for (int i = 0; i < 8; ++i) prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
  nl.add_output("y", prev);
  Bench b(std::move(nl));
  const Engine eng(*b.ctx);
  sta::NodeMoments circuit;
  const auto arrival = eng.run(&circuit);
  const auto down = eng.compute_downstream();
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_NEAR(arrival[id].mean_ps + down[id].mean_ps, circuit.mean_ps, 1e-6);
  }
}

TEST(Engine, SubcircuitStatusQuoConsistent) {
  Bench b(circuits::make_cla_adder(8));
  const Engine eng(*b.ctx);
  const auto full = ssta::run_fullssta(*b.ctx);
  const auto down = eng.compute_downstream();
  Engine::Scratch scratch;

  // Scoring the *current* cell must equal scoring through the projections
  // without any perturbation — and must never be negative or absurd.
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto sc = netlist::extract_subcircuit(b.nl, id, 2, 2);
    const SubcircuitCost cost =
        eng.evaluate_candidate(sc, full.node, down, id, b.ctx->cell(id), 3.0, scratch);
    EXPECT_GT(cost.cost, 0.0);
    EXPECT_GT(cost.worst_mean_ps, 0.0);
    EXPECT_GE(cost.worst_sigma_ps, 0.0);
    EXPECT_NEAR(cost.cost, cost.worst_mean_ps + 3.0 * cost.worst_sigma_ps, 1e-9);
  }
}

TEST(Engine, LambdaScalesCost) {
  Bench b(circuits::make_ripple_adder(4));
  const Engine eng(*b.ctx);
  const auto full = ssta::run_fullssta(*b.ctx);
  const auto down = eng.compute_downstream();
  const GateId id = b.nl.outputs()[0].driver;
  const auto sc = netlist::extract_subcircuit(b.nl, id, 2, 2);
  Engine::Scratch scratch;
  const double c0 =
      eng.evaluate_candidate(sc, full.node, down, id, b.ctx->cell(id), 0.0, scratch).cost;
  const double c9 =
      eng.evaluate_candidate(sc, full.node, down, id, b.ctx->cell(id), 9.0, scratch).cost;
  EXPECT_GT(c9, c0);
}

TEST(Engine, DominanceThresholdOptionRespected) {
  // With an absurdly large threshold, no early-outs occur; results should
  // still be close to the default (the approximation is smooth).
  Bench b(circuits::make_cla_adder(8));
  EngineOptions no_shortcut;
  no_shortcut.dominance_threshold = 1e9;
  sta::NodeMoments a, c;
  (void)Engine(*b.ctx).run(&a);
  (void)Engine(*b.ctx, no_shortcut).run(&c);
  EXPECT_NEAR(a.mean_ps, c.mean_ps, 0.01 * c.mean_ps);
}

// ---------------------------------------------------------------------------
// Cone-bounded candidate scoring
// ---------------------------------------------------------------------------

/// The full-netlist sweep run_with_candidate must reproduce bit for bit:
/// every gate recomputed in topological order, the center with the
/// candidate, the center's drivers with their load_ff_with_resize load
/// where it differs from the snapshot, everything else from snapshot arcs.
sta::NodeMoments full_sweep_with_candidate(const Engine& eng, const sta::TimingContext& ctx,
                                           GateId center, const liberty::Cell& candidate) {
  const auto& nl = ctx.netlist();
  std::vector<sta::NodeMoments> arrival(nl.node_count());
  for (const GateId id : ctx.topo_order()) {
    const auto& g = nl.gate(id);
    if (g.fanins.empty()) continue;
    const bool is_center = (id == center);
    double load = ctx.load_ff(id);
    bool perturbed = is_center;
    if (!is_center &&
        std::find(g.fanouts.begin(), g.fanouts.end(), center) != g.fanouts.end()) {
      load = ctx.load_ff_with_resize(id, center, candidate);
      perturbed = (load != ctx.load_ff(id));
    }
    const liberty::Cell* cell = nullptr;
    if (perturbed) cell = is_center ? &candidate : &ctx.cell(id);
    sta::NodeMoments acc;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const sta::NodeMoments& in = arrival[g.fanins[i]];
      const double d =
          perturbed ? ctx.arc_delay_with(id, i, *cell, load) : ctx.arc_delay_ps(id, i);
      const double sg = perturbed ? ctx.sigma_for(*cell, d) : ctx.arc_sigma_ps(id, i);
      const sta::NodeMoments through{in.mean_ps + d,
                                     std::sqrt(in.sigma_ps * in.sigma_ps + sg * sg)};
      acc = (i == 0) ? through : eng.stat_max(acc, through);
    }
    arrival[id] = acc;
  }
  sta::NodeMoments out{0.0, 0.0};
  bool first = true;
  for (const auto& po : nl.outputs()) {
    out = first ? arrival[po.driver] : eng.stat_max(out, arrival[po.driver]);
    first = false;
  }
  return out;
}

bool bitwise_equal(const sta::NodeMoments& a, const sta::NodeMoments& b) {
  return std::bit_cast<std::uint64_t>(a.mean_ps) == std::bit_cast<std::uint64_t>(b.mean_ps) &&
         std::bit_cast<std::uint64_t>(a.sigma_ps) == std::bit_cast<std::uint64_t>(b.sigma_ps);
}

/// Wide balanced XOR fabric (as in the analyzer conformance suite).
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

struct Candidate {
  GateId gate;
  std::uint16_t size;
};

/// Every mapped gate × every library size of its group.
std::vector<Candidate> all_candidates(const Bench& b) {
  std::vector<Candidate> out;
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto& group = b.lib.group(b.nl.gate(id).cell_group);
    for (std::uint16_t s = 0; s < group.size_count(); ++s) out.push_back(Candidate{id, s});
  }
  return out;
}

const liberty::Cell& cell_of(const Bench& b, const Candidate& c) {
  return b.lib.cell_for(b.nl.gate(c.gate).cell_group, c.size);
}

/// Cone scoring (one shared Scratch, so stamps and stale cone entries carry
/// across calls) against the full-sweep reference, every candidate.
void expect_cone_equals_full_sweep(const Bench& b, const Engine& eng) {
  Engine::Scratch scratch;
  std::size_t checked = 0;
  for (const Candidate& c : all_candidates(b)) {
    const liberty::Cell& cell = cell_of(b, c);
    const sta::NodeMoments cone = eng.run_with_candidate(c.gate, cell, scratch);
    const sta::NodeMoments full = full_sweep_with_candidate(eng, *b.ctx, c.gate, cell);
    ASSERT_TRUE(bitwise_equal(cone, full))
        << b.nl.gate(c.gate).name << " size " << c.size << ": cone (" << cone.mean_ps << ", "
        << cone.sigma_ps << ") vs full (" << full.mean_ps << ", " << full.sigma_ps << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

class FasstaConeScoring : public ::testing::TestWithParam<std::string> {};

Netlist cone_workload(const std::string& name) {
  if (name == "cla8") return circuits::make_cla_adder(8);
  if (name == "parity16") return parity_fabric(16);
  return circuits::make_table1_circuit(name);
}

TEST_P(FasstaConeScoring, EqualsFullSweepBitwiseForEveryGateAndSize) {
  Bench b(cone_workload(GetParam()));
  const Engine eng(*b.ctx);
  expect_cone_equals_full_sweep(b, eng);
  // A fresh Scratch goes through the same cone.
  const Candidate c = all_candidates(b).back();
  Engine::Scratch fresh;
  EXPECT_TRUE(bitwise_equal(eng.run_with_candidate(c.gate, cell_of(b, c), fresh),
                            full_sweep_with_candidate(eng, *b.ctx, c.gate, cell_of(b, c))));
}

TEST_P(FasstaConeScoring, ExactMaxModeEqualsFullSweepBitwise) {
  Bench b(cone_workload(GetParam()));
  EngineOptions exact;
  exact.max_mode = MaxMode::kExact;
  const Engine eng(*b.ctx, exact);
  expect_cone_equals_full_sweep(b, eng);
}

INSTANTIATE_TEST_SUITE_P(Workloads, FasstaConeScoring,
                         ::testing::Values("cla8", "parity16", "c432", "c880"),
                         [](const auto& info) { return info.param; });

/// A mid-circuit gate and a size different from its current one.
Candidate some_resize(const Bench& b, std::size_t skip) {
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id) || b.nl.gate(id).fanouts.empty()) continue;
    if (skip-- > 0) continue;
    const auto& group = b.lib.group(b.nl.gate(id).cell_group);
    const auto size = static_cast<std::uint16_t>(
        (b.nl.gate(id).size_index + 1) % group.size_count());
    return Candidate{id, size};
  }
  throw std::logic_error("no resizable gate");
}

TEST(FasstaStaleEngine, ScoringAfterResizeAndUpdateThrows) {
  Bench b(circuits::make_cla_adder(8));
  const Engine eng(*b.ctx);
  const Candidate c = all_candidates(b).front();
  Engine::Scratch scratch;
  (void)eng.run_with_candidate(c.gate, cell_of(b, c), scratch);  // current: scores

  const std::uint64_t before = b.ctx->snapshot_epoch();
  const Candidate r = some_resize(b, 5);
  b.nl.gate(r.gate).size_index = r.size;
  b.ctx->update();
  EXPECT_GT(b.ctx->snapshot_epoch(), before);
  Engine::Scratch stale;
  EXPECT_THROW((void)eng.run_with_candidate(c.gate, cell_of(b, c), stale), std::logic_error);
  expect_cone_equals_full_sweep(b, Engine(*b.ctx));  // an engine built after the move
}

TEST(FasstaStaleEngine, ScoringAfterCommittedFullsstaSpeculationThrows) {
  Bench b(circuits::make_cla_adder(8));
  const Engine eng(*b.ctx);
  auto analyzer = timing::make_analyzer("fullssta");
  (void)analyzer->analyze(*b.ctx);
  const std::uint64_t before = b.ctx->snapshot_epoch();
  const Candidate r = some_resize(b, 7);
  auto spec = analyzer->propose(r.gate, r.size);
  (void)spec->score();
  spec->commit();  // apply_snapshot_patch, no update()
  ASSERT_EQ(b.nl.gate(r.gate).size_index, r.size);
  EXPECT_GT(b.ctx->snapshot_epoch(), before);
  Engine::Scratch scratch;
  EXPECT_THROW((void)eng.run_with_candidate(r.gate, cell_of(b, r), scratch), std::logic_error);
  expect_cone_equals_full_sweep(b, Engine(*b.ctx));  // an engine built after the move
}

TEST(FasstaConeConcurrency, EightThreadsScoreThroughOneEngineAfterEpochBump) {
  Bench b(circuits::make_table1_circuit("c432"));
  const Candidate r = some_resize(b, 11);
  b.nl.gate(r.gate).size_index = r.size;
  b.ctx->update();
  const Engine eng(*b.ctx);  // immutable from here: the threads only read it
  const auto cands = all_candidates(b);

  constexpr std::size_t kThreads = 8;
  std::vector<sta::NodeMoments> got(cands.size());
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Engine::Scratch scratch;
      start.arrive_and_wait();
      for (std::size_t i = t; i < cands.size(); i += kThreads) {
        got[i] = eng.run_with_candidate(cands[i].gate, cell_of(b, cands[i]), scratch);
      }
    });
  }
  for (auto& w : workers) w.join();

  for (std::size_t i = 0; i < cands.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(
        got[i], full_sweep_with_candidate(eng, *b.ctx, cands[i].gate, cell_of(b, cands[i]))))
        << b.nl.gate(cands[i].gate).name << " size " << cands[i].size;
  }
}

// ---------------------------------------------------------------------------
// Lane scoring: every size of a gate in one cone walk
// ---------------------------------------------------------------------------

Netlist lane_workload(const std::string& name) {
  // A small mesh: 6-size groups and 3-fanin gates.
  if (name == "mesh2") return circuits::make_mesh_interconnect(circuits::MeshOptions{2, 2, 4});
  return cone_workload(name);
}

/// Every gate scored at all of its sizes through run_with_candidates (one
/// shared Scratch), each lane against the full-sweep reference.
void expect_lanes_equal_full_sweep(const Bench& b, const Engine& eng) {
  Engine::Scratch scratch;
  std::vector<const liberty::Cell*> cells;
  std::vector<sta::NodeMoments> lanes;
  std::size_t checked = 0;
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto& group = b.lib.group(b.nl.gate(id).cell_group);
    cells.clear();
    for (std::uint16_t s = 0; s < group.size_count(); ++s) {
      cells.push_back(&b.lib.cell_for(b.nl.gate(id).cell_group, s));
    }
    lanes.assign(cells.size(), sta::NodeMoments{});
    eng.run_with_candidates(id, cells, lanes, scratch);
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const sta::NodeMoments full = full_sweep_with_candidate(eng, *b.ctx, id, *cells[k]);
      ASSERT_TRUE(bitwise_equal(lanes[k], full))
          << b.nl.gate(id).name << " lane " << k << ": (" << lanes[k].mean_ps << ", "
          << lanes[k].sigma_ps << ") vs full (" << full.mean_ps << ", " << full.sigma_ps << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

class FasstaLaneScoring : public ::testing::TestWithParam<std::string> {};

TEST_P(FasstaLaneScoring, EveryLaneEqualsFullSweepBitwise) {
  Bench b(lane_workload(GetParam()));
  expect_lanes_equal_full_sweep(b, Engine(*b.ctx));
}

TEST_P(FasstaLaneScoring, ExactMaxModeLanesEqualFullSweepBitwise) {
  Bench b(lane_workload(GetParam()));
  EngineOptions exact;
  exact.max_mode = MaxMode::kExact;
  expect_lanes_equal_full_sweep(b, Engine(*b.ctx, exact));
}

TEST_P(FasstaLaneScoring, NonDefaultDominanceThresholdLanesEqualFullSweepBitwise) {
  Bench b(lane_workload(GetParam()));
  for (const double threshold : {1.5, 1e9}) {
    EngineOptions options;
    options.dominance_threshold = threshold;
    expect_lanes_equal_full_sweep(b, Engine(*b.ctx, options));
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FasstaLaneScoring,
                         ::testing::Values("cla8", "parity16", "c432", "c880", "mesh2"),
                         [](const auto& info) { return info.param; });

TEST(FasstaLaneCoverage, WorkloadsReachUnreachedLanesAndPrimaryInputDrivers) {
  // Lanes whose own seeds are fewer than their gate's union (a size that
  // leaves a driver's load unchanged while another size changes it, so that
  // driver's cone is not the lane's), and gates fed by a primary input (a
  // driver that is never a seed). In these workloads the only such size is
  // the current one, which changes no load: the suite walks it as a lane for
  // that reason, though the sizer reads its score from the base.
  std::size_t unreached = 0;
  std::size_t pi_fed = 0;
  for (const char* name : {"cla8", "parity16", "c432", "c880", "mesh2"}) {
    Bench b(lane_workload(name));
    for (GateId id = 0; id < b.nl.node_count(); ++id) {
      if (!b.ctx->has_cell(id)) continue;
      const auto& g = b.nl.gate(id);
      const auto& group = b.lib.group(g.cell_group);
      bool fed_by_pi = false;
      for (const GateId f : g.fanins) fed_by_pi = fed_by_pi || b.nl.gate(f).fanins.empty();
      pi_fed += fed_by_pi ? 1 : 0;
      for (const GateId f : g.fanins) {
        if (b.nl.gate(f).fanins.empty()) continue;
        std::size_t changed = 0;
        for (std::uint16_t s = 0; s < group.size_count(); ++s) {
          const liberty::Cell& cell = b.lib.cell_for(g.cell_group, s);
          changed += b.ctx->load_ff_with_resize(f, id, cell) != b.ctx->load_ff(f) ? 1 : 0;
        }
        if (changed > 0) unreached += group.size_count() - changed;
      }
    }
  }
  EXPECT_GT(unreached, 0u);
  EXPECT_GT(pi_fed, 0u);
}

}  // namespace
}  // namespace statsizer::fassta
