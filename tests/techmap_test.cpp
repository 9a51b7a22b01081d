#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "netlist/sim.h"
#include "netlist/topo.h"
#include "techmap/mapper.h"

namespace statsizer::techmap {
namespace {

using netlist::GateFunc;
using netlist::GateId;
using netlist::Netlist;

const liberty::Library& lib() {
  static const liberty::Library instance = liberty::build_synthetic_90nm();
  return instance;
}

TEST(Techmap, SimpleNetlistMapsDirectly) {
  auto nl = circuits::make_cla_adder(8);
  ASSERT_TRUE(map_to_library(nl, lib()).ok());
  EXPECT_TRUE(is_mapped(nl, lib()));
}

TEST(Techmap, WideGatesDecomposed) {
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < 11; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  const GateId wide = nl.add_gate(GateFunc::kAnd, ins, "wide");
  nl.add_output("y", wide);

  Netlist original = nl;  // copy for equivalence check
  ASSERT_TRUE(map_to_library(nl, lib()).ok());
  EXPECT_TRUE(is_mapped(nl, lib()));
  for (GateId id = 0; id < nl.node_count(); ++id) {
    EXPECT_LE(nl.gate(id).fanins.size(), 4u);
  }
  EXPECT_TRUE(netlist::probably_equivalent(original, nl, 42));
}

class WideFunctionTest : public ::testing::TestWithParam<std::tuple<GateFunc, int>> {};

TEST_P(WideFunctionTest, DecompositionPreservesLogic) {
  const auto [func, width] = GetParam();
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < width; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  nl.add_output("y", nl.add_gate(func, ins, "wide"));

  Netlist original = nl;
  ASSERT_TRUE(map_to_library(nl, lib()).ok())
      << netlist::func_name(func) << " width " << width;
  EXPECT_TRUE(is_mapped(nl, lib()));
  EXPECT_TRUE(netlist::probably_equivalent(original, nl, 7))
      << netlist::func_name(func) << " width " << width;
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctionsAndWidths, WideFunctionTest,
    ::testing::Combine(::testing::Values(GateFunc::kAnd, GateFunc::kNand, GateFunc::kOr,
                                         GateFunc::kNor, GateFunc::kXor, GateFunc::kXnor),
                       ::testing::Values(2, 3, 4, 5, 7, 9, 16, 23)),
    [](const auto& info) {
      return std::string(netlist::func_name(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Techmap, PoReferencesSurviveDecomposition) {
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < 9; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  const GateId wide = nl.add_gate(GateFunc::kNor, ins, "wide");
  nl.add_output("y", wide);
  nl.add_output("y2", wide);
  ASSERT_TRUE(map_to_library(nl, lib()).ok());
  // The original gate id still drives both POs.
  EXPECT_EQ(nl.outputs()[0].driver, wide);
  EXPECT_EQ(nl.outputs()[1].driver, wide);
  EXPECT_EQ(nl.gate(wide).po_count, 2u);
}

TEST(Techmap, InitialSizeSeeding) {
  auto nl = circuits::make_ripple_adder(4);
  ASSERT_TRUE(map_to_library(nl, lib()).ok());
  for (GateId id = 0; id < nl.node_count(); ++id) {
    if (!nl.is_input(id)) EXPECT_EQ(nl.gate(id).size_index, 0);
  }
}

TEST(Techmap, AllGeneratorsMap) {
  const auto check = [](Netlist nl) {
    Netlist original = nl;
    ASSERT_TRUE(map_to_library(nl, lib()).ok()) << nl.name();
    EXPECT_TRUE(is_mapped(nl, lib())) << nl.name();
    EXPECT_TRUE(nl.check().ok()) << nl.name();
    EXPECT_TRUE(netlist::probably_equivalent(original, nl, 5)) << nl.name();
  };
  check(circuits::make_ripple_adder(16));
  check(circuits::make_cla_adder(16));
  check(circuits::make_array_multiplier(6, false));
  check(circuits::make_hamming_sec(16));
  check(circuits::make_interrupt_controller(18, 3));
  circuits::AluOptions alu;
  alu.bits = 8;
  check(circuits::make_alu(alu));
}

TEST(Techmap, RandomDagsMapAndStayEquivalent) {
  for (std::uint64_t seed = 10; seed < 18; ++seed) {
    circuits::RandomDagOptions opt;
    opt.seed = seed;
    opt.n_gates = 120;
    opt.max_arity = 6;  // forces some decomposition
    Netlist nl = circuits::make_random_dag(opt);
    Netlist original = nl;
    ASSERT_TRUE(map_to_library(nl, lib()).ok()) << "seed " << seed;
    EXPECT_TRUE(is_mapped(nl, lib())) << "seed " << seed;
    EXPECT_TRUE(netlist::probably_equivalent(original, nl, seed)) << "seed " << seed;
  }
}

TEST(Techmap, IsMappedDetectsUnmapped) {
  auto nl = circuits::make_ripple_adder(4);
  EXPECT_FALSE(is_mapped(nl, lib()));
}

}  // namespace
}  // namespace statsizer::techmap
