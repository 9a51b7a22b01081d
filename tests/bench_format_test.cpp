#include <gtest/gtest.h>

#include "bench_format/bench_reader.h"
#include "bench_format/bench_writer.h"
#include "drc/drc.h"
#include "circuits/generators.h"
#include "netlist/sim.h"

namespace statsizer::bench_format {
namespace {

using netlist::GateFunc;

constexpr const char* kSmall = R"(
# ISCAS-style example
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G7)
G5 = NAND(G1, G2)
G6 = NOT(G3)
G7 = OR(G5, G6)
)";

TEST(BenchReader, ParsesSmall) {
  auto parsed = read_bench(kSmall, "small");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const auto& nl = *parsed;
  EXPECT_EQ(nl.inputs().size(), 3u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.logic_gate_count(), 3u);
  EXPECT_EQ(nl.gate(nl.find("G5")).func, GateFunc::kNand);
  EXPECT_EQ(nl.gate(nl.find("G6")).func, GateFunc::kInv);
}

TEST(BenchReader, OutOfOrderDefinitions) {
  // G7 defined before its fanins — must still resolve.
  constexpr const char* text = R"(
INPUT(A)
OUTPUT(Y)
Y = AND(M, N)
M = NOT(A)
N = BUFF(A)
)";
  auto parsed = read_bench(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->check().ok());
}

TEST(BenchReader, AllFunctionsAccepted) {
  constexpr const char* text = R"(
INPUT(A)
INPUT(B)
OUTPUT(O1)
O1 = XOR(T1, T2)
T1 = NXOR(A, B)
T2 = NOR(A, B)
)";
  auto parsed = read_bench(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->gate(parsed->find("T1")).func, GateFunc::kXnor);
}

TEST(BenchReader, WideGates) {
  constexpr const char* text = R"(
INPUT(A)
INPUT(B)
INPUT(C)
INPUT(D)
INPUT(E)
OUTPUT(Y)
Y = AND(A, B, C, D, E)
)";
  auto parsed = read_bench(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->gate(parsed->find("Y")).fanins.size(), 5u);
}

TEST(BenchReader, SingleInputAndNormalizesToBuf) {
  constexpr const char* text = "INPUT(A)\nOUTPUT(Y)\nY = AND(A)\n";
  auto parsed = read_bench(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->gate(parsed->find("Y")).func, GateFunc::kBuf);
}

TEST(BenchReader, PortPrefixedSignalNamesAreGates) {
  // Regression: a gate assignment whose target merely *starts with*
  // INPUT/OUTPUT must not be parsed as a port declaration.
  constexpr const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(OUTPUT_BUS_0)
INPUT_REG_3 = AND(a, b)
OUTPUT_BUS_0 = NOT(INPUT_REG_3)
)";
  auto parsed = read_bench(text, "prefixed");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->inputs().size(), 2u);
  EXPECT_EQ(parsed->outputs().size(), 1u);
  EXPECT_EQ(parsed->gate(parsed->find("INPUT_REG_3")).func, GateFunc::kAnd);
  EXPECT_EQ(parsed->gate(parsed->find("OUTPUT_BUS_0")).func, GateFunc::kInv);
}

TEST(BenchReader, PortKeywordMustBeExact) {
  // "INPUTX(a)" starts with INPUT but is neither a port nor an assignment.
  const auto r = read_bench("INPUTX(a)\nOUTPUT(Y)\nY = NOT(a)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos) << r.status().message();
}

TEST(BenchReader, EmptyFaninArgumentIsAnError) {
  // Regression: "AND(a,,b)" used to silently parse as a 2-input AND.
  const auto mid = read_bench("INPUT(a)\nINPUT(b)\nOUTPUT(Y)\nY = AND(a,,b)\n");
  ASSERT_FALSE(mid.ok());
  EXPECT_NE(mid.status().message().find("line 4"), std::string::npos) << mid.status().message();

  const auto trailing = read_bench("INPUT(a)\nINPUT(b)\nOUTPUT(Y)\nY = AND(a,b,)\n");
  EXPECT_FALSE(trailing.ok());
  const auto leading = read_bench("INPUT(a)\nINPUT(b)\nOUTPUT(Y)\nY = AND(,a,b)\n");
  EXPECT_FALSE(leading.ok());
  // An empty argument list still reports "no fanins".
  EXPECT_FALSE(read_bench("INPUT(a)\nOUTPUT(Y)\nY = AND()\n").ok());
}

TEST(BenchReader, DuplicateOutputDeclarationParsesForTheDrcToCatch) {
  // The reader accepts the duplicate (both entries resolve to the same
  // driver) so the design-rule checker can report it as a structured
  // multi-driven-net diagnostic; core::Flow then refuses the circuit.
  const auto r = read_bench("INPUT(a)\nOUTPUT(Y)\nOUTPUT(Y)\nY = NOT(a)\n");
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_EQ(r.value().outputs().size(), 2u);
  EXPECT_EQ(r.value().outputs()[0].driver, r.value().outputs()[1].driver);
  const drc::DrcReport report = drc::check_netlist(r.value());
  ASSERT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.first_error()->rule, drc::Rule::kMultiDrivenNet);
  EXPECT_EQ(report.first_error()->object, "Y");
}

TEST(BenchReader, TrailingJunkIsAnError) {
  EXPECT_FALSE(read_bench("INPUT(a) junk\nOUTPUT(Y)\nY = NOT(a)\n").ok());
  EXPECT_FALSE(read_bench("INPUT(a)\nOUTPUT(Y) extra\nY = NOT(a)\n").ok());
  const auto gate = read_bench("INPUT(a)\nOUTPUT(Y)\nY = NOT(a) garbage\n");
  ASSERT_FALSE(gate.ok());
  EXPECT_NE(gate.status().message().find("line 3"), std::string::npos)
      << gate.status().message();
  // Comments after the ')' remain fine.
  EXPECT_TRUE(read_bench("INPUT(a)  # in\nOUTPUT(Y)\nY = NOT(a)  # gate\n").ok());
}

TEST(BenchReader, Errors) {
  EXPECT_FALSE(read_bench("INPUT(A)\nOUTPUT(Y)\nY = DFF(A)\n").ok());
  EXPECT_FALSE(read_bench("INPUT(A)\nOUTPUT(Y)\nY = FROB(A)\n").ok());
  EXPECT_FALSE(read_bench("INPUT(A)\nOUTPUT(Y)\nY = AND(A, UNDEFINED)\n").ok());
  EXPECT_FALSE(read_bench("INPUT(A)\nOUTPUT(Y)\nY AND(A)\n").ok());            // no '='
  EXPECT_FALSE(read_bench("INPUT(A)\nINPUT(A)\nOUTPUT(A)\n").ok());            // dup input
  EXPECT_FALSE(read_bench("INPUT(A)\nOUTPUT(Y)\nY = AND(A, Z)\nZ = NOT(Y)\n").ok());  // cycle
  EXPECT_FALSE(read_bench("INPUT(A)\nOUTPUT(Y)\nY = NOT(A)\nY = BUFF(A)\n").ok());    // redef
  EXPECT_FALSE(read_bench("INPUT(a)\nOUTPUT(y)\ny = XOR(a)\n").ok());                // arity
  EXPECT_FALSE(read_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n").ok());  // arity
}

TEST(BenchReader, ErrorMessagesCarryLineNumbers) {
  const auto r = read_bench("INPUT(A)\nOUTPUT(Y)\nY = DFF(A)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
  const auto arity = read_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n");
  ASSERT_FALSE(arity.ok());
  EXPECT_NE(arity.status().message().find("line 4"), std::string::npos)
      << arity.status().message();
}

TEST(BenchReader, CommentsAndBlankLines) {
  constexpr const char* text = R"(
# header comment

INPUT(A)   # trailing comment
OUTPUT(Y)
Y = NOT(A)
)";
  auto parsed = read_bench(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
}

TEST(BenchWriter, RoundTripPreservesFunction) {
  const auto nl = circuits::make_cla_adder(8);
  const std::string text = write_bench(nl);
  auto reparsed = read_bench(text, nl.name());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  // Interfaces and behaviour must match (names survive the round trip).
  EXPECT_TRUE(netlist::probably_equivalent(nl, *reparsed, 99));
}

TEST(BenchWriter, ExpandsNonBenchFunctions) {
  // MUX2 / AOI21 / OAI21 have no .bench spelling; the writer must expand
  // them into primitive trees that still compute the same function.
  circuits::Builder b("mix");
  const auto a = b.input("a");
  const auto c = b.input("c");
  const auto s = b.input("s");
  b.output("m", b.mux(a, c, s));
  b.output("x", b.netlist().add_gate(GateFunc::kAoi21, {a, c, s}));
  b.output("y", b.netlist().add_gate(GateFunc::kOai21, {a, c, s}));
  const auto nl = b.take();

  const std::string text = write_bench(nl);
  auto reparsed = read_bench(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  // Output names match but internal names differ; compare by simulation on
  // matching PIs/POs.
  EXPECT_TRUE(netlist::probably_equivalent(nl, *reparsed, 7));
}

TEST(BenchWriter, RandomDagsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    circuits::RandomDagOptions opt;
    opt.seed = seed;
    opt.n_gates = 80;
    const auto nl = circuits::make_random_dag(opt);
    auto reparsed = read_bench(write_bench(nl));
    ASSERT_TRUE(reparsed.ok()) << "seed " << seed << ": " << reparsed.status().message();
    EXPECT_TRUE(netlist::probably_equivalent(nl, *reparsed, seed)) << "seed " << seed;
  }
}

TEST(BenchFile, MissingFileFails) {
  EXPECT_FALSE(read_bench_file("/nonexistent/path.bench").ok());
}

}  // namespace
}  // namespace statsizer::bench_format
