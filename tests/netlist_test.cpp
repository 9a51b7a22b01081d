#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "netlist/netlist.h"
#include "netlist/topo.h"

namespace statsizer::netlist {
namespace {

Netlist small_and_or() {
  // y = (a & b) | c
  Netlist nl("small");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId g1 = nl.add_gate(GateFunc::kAnd, {a, b}, "g1");
  const GateId g2 = nl.add_gate(GateFunc::kOr, {g1, c}, "g2");
  nl.add_output("y", g2);
  return nl;
}

TEST(Netlist, ConstructionBasics) {
  const Netlist nl = small_and_or();
  EXPECT_EQ(nl.node_count(), 5u);
  EXPECT_EQ(nl.inputs().size(), 3u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.logic_gate_count(), 2u);
  EXPECT_TRUE(nl.check().ok());
}

TEST(Netlist, NameLookup) {
  const Netlist nl = small_and_or();
  EXPECT_NE(nl.find("g1"), kNoGate);
  EXPECT_NE(nl.find("a"), kNoGate);
  EXPECT_EQ(nl.find("nonexistent"), kNoGate);
  EXPECT_EQ(nl.gate(nl.find("g1")).func, GateFunc::kAnd);
}

TEST(Netlist, FanoutListsMaintained) {
  const Netlist nl = small_and_or();
  const GateId a = nl.find("a");
  const GateId g1 = nl.find("g1");
  ASSERT_EQ(nl.gate(a).fanouts.size(), 1u);
  EXPECT_EQ(nl.gate(a).fanouts[0], g1);
  EXPECT_EQ(nl.gate(g1).fanouts.size(), 1u);
}

TEST(Netlist, DuplicateNamesRejected) {
  Netlist nl;
  (void)nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), std::invalid_argument);
}

TEST(Netlist, AutoNamesAreUnique) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateFunc::kInv, {a});
  const GateId g2 = nl.add_gate(GateFunc::kInv, {a});
  EXPECT_NE(nl.gate(g1).name, nl.gate(g2).name);
}

TEST(Netlist, ArityValidation) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateFunc::kInv, {a, a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateFunc::kAnd, {a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateFunc::kMux2, {a, a}), std::invalid_argument);
  EXPECT_NO_THROW(nl.add_gate(GateFunc::kAnd, {a, a, a, a, a}));  // wide pre-map OK
}

TEST(Netlist, OutputBookkeeping) {
  Netlist nl = small_and_or();
  const GateId g2 = nl.find("g2");
  EXPECT_EQ(nl.gate(g2).po_count, 1u);
  nl.add_output("y2", g2);
  EXPECT_EQ(nl.gate(g2).po_count, 2u);
}

TEST(Netlist, RewireMaintainsEdges) {
  Netlist nl = small_and_or();
  const GateId c = nl.find("c");
  const GateId g1 = nl.find("g1");
  const GateId g2 = nl.find("g2");
  // g2 becomes AND(g1, c) instead of OR.
  const GateId fanins[] = {g1, c};
  nl.rewire(g2, GateFunc::kAnd, fanins);
  EXPECT_TRUE(nl.check().ok());
  EXPECT_EQ(nl.gate(g2).func, GateFunc::kAnd);
}

TEST(Netlist, RewireRemovesStaleBackEdges) {
  Netlist nl = small_and_or();
  const GateId a = nl.find("a");
  const GateId b = nl.find("b");
  const GateId g2 = nl.find("g2");
  const GateId fanins[] = {a, b};
  nl.rewire(g2, GateFunc::kNand, fanins);
  EXPECT_TRUE(nl.check().ok());
  // g1 no longer feeds g2.
  const GateId g1 = nl.find("g1");
  EXPECT_TRUE(nl.gate(g1).fanouts.empty());
}

TEST(Netlist, TransferFanouts) {
  Netlist nl = small_and_or();
  const GateId a = nl.find("a");
  const GateId g1 = nl.find("g1");
  const GateId buf = nl.add_gate(GateFunc::kBuf, {a}, "buf");
  nl.transfer_fanouts(g1, buf);
  EXPECT_TRUE(nl.check().ok());
  EXPECT_TRUE(nl.gate(g1).fanouts.empty());
  const GateId g2 = nl.find("g2");
  EXPECT_EQ(nl.gate(g2).fanins[0], buf);
}

TEST(Netlist, SizesSnapshotRoundTrip) {
  Netlist nl = small_and_or();
  nl.gate(nl.find("g1")).size_index = 3;
  const auto snapshot = nl.sizes();
  nl.gate(nl.find("g1")).size_index = 0;
  nl.set_sizes(snapshot);
  EXPECT_EQ(nl.gate(nl.find("g1")).size_index, 3);
  std::vector<std::uint16_t> wrong(2, 0);
  EXPECT_THROW(nl.set_sizes(wrong), std::invalid_argument);
}

TEST(FuncMeta, Names) {
  EXPECT_EQ(func_name(GateFunc::kNand), "NAND");
  EXPECT_EQ(func_name(GateFunc::kAoi21), "AOI21");
}

TEST(FuncMeta, InvertingClassification) {
  EXPECT_TRUE(is_inverting(GateFunc::kInv));
  EXPECT_TRUE(is_inverting(GateFunc::kNor));
  EXPECT_TRUE(is_inverting(GateFunc::kOai21));
  EXPECT_FALSE(is_inverting(GateFunc::kAnd));
  EXPECT_FALSE(is_inverting(GateFunc::kMux2));
  EXPECT_FALSE(is_inverting(GateFunc::kBuf));
}

// ---------------------------------------------------------------------------
// topological utilities
// ---------------------------------------------------------------------------

TEST(Topo, OrderRespectsEdges) {
  const Netlist nl = small_and_or();
  const auto order = topological_order(nl);
  ASSERT_EQ(order.size(), nl.node_count());
  std::vector<std::size_t> pos(nl.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId id = 0; id < nl.node_count(); ++id) {
    for (GateId f : nl.gate(id).fanins) {
      EXPECT_LT(pos[f], pos[id]);
    }
  }
}

TEST(Topo, Levels) {
  const Netlist nl = small_and_or();
  const auto lv = levels(nl);
  EXPECT_EQ(lv[nl.find("a")], 0u);
  EXPECT_EQ(lv[nl.find("g1")], 1u);
  EXPECT_EQ(lv[nl.find("g2")], 2u);
  EXPECT_EQ(depth(nl), 2u);
}

TEST(Topo, ObservableMask) {
  Netlist nl = small_and_or();
  const GateId a = nl.find("a");
  const GateId dangling = nl.add_gate(GateFunc::kInv, {a}, "dangling");
  const auto mask = observable_mask(nl);
  EXPECT_TRUE(mask[nl.find("g2")]);
  EXPECT_TRUE(mask[nl.find("g1")]);
  EXPECT_TRUE(mask[a]);
  EXPECT_FALSE(mask[dangling]);
}

TEST(Topo, EmptyNetlist) {
  const Netlist nl;
  EXPECT_TRUE(is_acyclic(nl));
  EXPECT_EQ(depth(nl), 0u);
  EXPECT_TRUE(topological_order(nl).empty());
}

// -- Levels and the one walk order ------------------------------------------

std::vector<Netlist> random_dag_corpus(std::uint64_t seeds) {
  std::vector<Netlist> corpus;
  corpus.push_back(small_and_or());
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    circuits::RandomDagOptions opt;
    opt.n_inputs = 6;
    opt.n_gates = 80;
    opt.n_outputs = 5;
    opt.seed = seed;
    corpus.push_back(circuits::make_random_dag(opt));
  }
  return corpus;
}

TEST(Levels, EveryEdgeGoesStrictlyLevelUp) {
  // A gate's fanins all live in strictly lower levels, so gates inside one
  // level never feed each other.
  for (const Netlist& nl : random_dag_corpus(3)) {
    SCOPED_TRACE(nl.name());
    const std::vector<std::uint32_t> lv = levels(nl);
    ASSERT_EQ(lv.size(), nl.node_count());
    for (GateId id = 0; id < nl.node_count(); ++id) {
      if (nl.gate(id).fanins.empty()) EXPECT_EQ(lv[id], 0u);
      for (GateId f : nl.gate(id).fanins) EXPECT_LT(lv[f], lv[id]);
    }
  }
}

/// Kahn's FIFO ready list pops nodes level by level: along
/// topological_order(), levels() start at 0 and step up by 0 or 1. This is
/// why one order serves every walk: it is a level order too.
void expect_levels_step_along_topo_order(const Netlist& nl) {
  SCOPED_TRACE(nl.name());
  const std::vector<std::uint32_t> lv = levels(nl);
  const std::vector<GateId> order = topological_order(nl);
  ASSERT_EQ(order.size(), nl.node_count());
  std::uint32_t prev = 0;
  for (const GateId id : order) {
    ASSERT_TRUE(lv[id] == prev || lv[id] == prev + 1)
        << "node " << id << " at level " << lv[id] << " follows level " << prev;
    prev = lv[id];
  }
  EXPECT_EQ(prev, depth(nl));
}

TEST(Levels, NonDecreasingAlongTopologicalOrder) {
  for (const std::string& name : circuits::table1_names()) {
    expect_levels_step_along_topo_order(circuits::make_table1_circuit(name));
  }
  for (const std::string& name : circuits::scaled_workload_names()) {
    expect_levels_step_along_topo_order(circuits::make_table1_circuit(name));
  }
  for (const Netlist& nl : random_dag_corpus(200)) expect_levels_step_along_topo_order(nl);
}

TEST(Levelization, LevelBucketsPartitionTheNodeSet) {
  // Bucketing the nodes by levels() gives depth() + 1 buckets, none empty,
  // holding every node exactly once.
  for (const Netlist& nl : random_dag_corpus(3)) {
    SCOPED_TRACE(nl.name());
    const std::vector<std::uint32_t> lv = levels(nl);
    ASSERT_EQ(lv.size(), nl.node_count());
    std::vector<std::size_t> bucket_size(depth(nl) + 1, 0);
    for (const std::uint32_t l : lv) {
      ASSERT_LT(l, bucket_size.size());
      ++bucket_size[l];
    }
    std::size_t total = 0;
    for (std::size_t l = 0; l < bucket_size.size(); ++l) {
      EXPECT_GT(bucket_size[l], 0u) << "empty level " << l;
      total += bucket_size[l];
    }
    EXPECT_EQ(total, nl.node_count());
  }
}

TEST(Levelization, OrderByLevelIsStablePartitionOfTopoOrder) {
  // Stable-partitioning topological_order() by level changes nothing: the
  // one walk order already is the order-by-level.
  for (const Netlist& nl : random_dag_corpus(3)) {
    SCOPED_TRACE(nl.name());
    const std::vector<std::uint32_t> lv = levels(nl);
    const std::vector<GateId> topo = topological_order(nl);
    std::vector<GateId> by_level = topo;
    std::stable_sort(by_level.begin(), by_level.end(),
                     [&lv](GateId a, GateId b) { return lv[a] < lv[b]; });
    EXPECT_EQ(by_level, topo);
  }
}

TEST(Levelization, EmptyNetlist) {
  const Netlist nl;
  EXPECT_TRUE(levels(nl).empty());
  EXPECT_EQ(depth(nl), 0u);
}

TEST(Topo, StructureVersionMovesOnStructuralEditsNotOnSizing) {
  Netlist nl = small_and_or();
  const std::uint64_t built = nl.structure_version();

  // Sizing is not structure.
  nl.gate(nl.find("g1")).size_index = 3;
  EXPECT_EQ(nl.structure_version(), built);

  // Gate insertion, rewire and output declaration are.
  const GateId inv = nl.add_gate(GateFunc::kInv, {nl.find("g2")}, "late_inv");
  const std::uint64_t inserted = nl.structure_version();
  EXPECT_GT(inserted, built);
  EXPECT_EQ(levels(nl)[inv], levels(nl)[nl.find("g2")] + 1);
  nl.rewire(inv, GateFunc::kInv, std::vector<GateId>{nl.find("g1")});
  const std::uint64_t rewired = nl.structure_version();
  EXPECT_GT(rewired, inserted);
  nl.add_output("z", inv);
  EXPECT_GT(nl.structure_version(), rewired);
}

}  // namespace
}  // namespace statsizer::netlist
