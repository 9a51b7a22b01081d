// Ingestion-layer tests: structural-Verilog and SDC readers, writer
// round-trip properties over every generator workload, the malformed-input
// corpus, and the scaled 10k+-gate fabrics running the full flow
// (ingest -> STA -> statistical sizing -> write-back).
//
// Round-trip contract: the exchange formats are lossless on the *named
// structure* — gate names, functions, fanin name lists, PI/PO name order,
// and (for Verilog, which carries cell bindings) cell_group/size_index.
// GateId numbering is NOT preserved (readers number inputs first), so the
// comparison matches gates by name, not by id.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_format/bench_reader.h"
#include "bench_format/bench_writer.h"
#include "bench_format/sdc_reader.h"
#include "bench_format/verilog_reader.h"
#include "bench_format/verilog_writer.h"
#include "circuits/iscas_suite.h"
#include "core/flow.h"
#include "liberty/synthetic.h"
#include "netlist/sim.h"
#include "netlist/topo.h"
#include "ssta/fullssta.h"
#include "sta/dsta.h"
#include "techmap/mapper.h"
#include "util/thread_pool.h"

namespace statsizer {
namespace {

using netlist::GateFunc;
using netlist::GateId;
using netlist::Netlist;

std::filesystem::path corpus_dir() {
  return std::filesystem::path(STATSIZER_SOURCE_DIR) / "tests" / "corpus";
}

/// Named-structure equality (see file comment). @p check_cells compares the
/// cell bindings too — on for Verilog (the format carries sizes), off for
/// .bench (which does not).
::testing::AssertionResult same_named_structure(const Netlist& a, const Netlist& b,
                                                bool check_cells) {
  if (a.name() != b.name())
    return ::testing::AssertionFailure() << "names differ: " << a.name() << " vs " << b.name();
  if (a.node_count() != b.node_count())
    return ::testing::AssertionFailure()
           << "node counts differ: " << a.node_count() << " vs " << b.node_count();
  if (a.inputs().size() != b.inputs().size())
    return ::testing::AssertionFailure() << "input counts differ";
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    if (a.gate(a.inputs()[i]).name != b.gate(b.inputs()[i]).name)
      return ::testing::AssertionFailure() << "input " << i << " name/order differs";
  }
  if (a.outputs().size() != b.outputs().size())
    return ::testing::AssertionFailure() << "output counts differ";
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    if (a.outputs()[i].name != b.outputs()[i].name)
      return ::testing::AssertionFailure() << "output " << i << " name differs";
    if (a.gate(a.outputs()[i].driver).name != b.gate(b.outputs()[i].driver).name)
      return ::testing::AssertionFailure()
             << "output '" << a.outputs()[i].name << "' driver differs";
  }
  for (GateId id = 0; id < a.node_count(); ++id) {
    const auto& g = a.gate(id);
    const GateId bid = b.find(g.name);
    if (bid == netlist::kNoGate)
      return ::testing::AssertionFailure() << "gate '" << g.name << "' missing";
    const auto& h = b.gate(bid);
    if (g.func != h.func)
      return ::testing::AssertionFailure() << "gate '" << g.name << "': func differs";
    if (check_cells && (g.cell_group != h.cell_group || g.size_index != h.size_index))
      return ::testing::AssertionFailure() << "gate '" << g.name << "': cell binding differs";
    if (g.fanins.size() != h.fanins.size())
      return ::testing::AssertionFailure() << "gate '" << g.name << "': fanin count differs";
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (a.gate(g.fanins[i]).name != b.gate(h.fanins[i]).name)
        return ::testing::AssertionFailure() << "gate '" << g.name << "': fanin " << i
                                             << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Deterministically scrambles every mapped gate's drive strength so a size
/// round-trip is non-trivial (freshly mapped netlists are mostly one size).
void scramble_sizes(core::Flow& flow) {
  auto& nl = flow.timing().mutable_netlist();
  for (GateId id = 0; id < nl.node_count(); ++id) {
    auto& g = nl.gate(id);
    if (g.cell_group == netlist::kUnmapped) continue;
    const auto& group = flow.library().group(g.cell_group);
    g.size_index = static_cast<std::uint16_t>(id % group.size_count());
  }
}

std::vector<std::string> all_workload_names() {
  std::vector<std::string> names = circuits::table1_names();
  const auto& scaled = circuits::scaled_workload_names();
  names.insert(names.end(), scaled.begin(), scaled.end());
  return names;
}

// ---------------------------------------------------------------------------
// Verilog round trip: bitwise named structure including cell sizes
// ---------------------------------------------------------------------------

class VerilogRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VerilogRoundTripTest, NamedStructureWithSizesIsLossless) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1(GetParam()).ok());
  scramble_sizes(flow);
  const Netlist& nl = flow.netlist();

  const auto text = bench_format::write_verilog(nl, flow.library());
  ASSERT_TRUE(text.ok()) << text.status().message();
  const auto back = bench_format::read_verilog(*text, flow.library());
  ASSERT_TRUE(back.ok()) << back.status().message();

  EXPECT_TRUE(same_named_structure(nl, *back, /*check_cells=*/true));
  EXPECT_TRUE(techmap::is_mapped(*back, flow.library()));
  // Logic equivalence on the small circuits (simulation on the 48k-gate
  // fabrics adds nothing once the structure matched gate-for-gate).
  if (nl.logic_gate_count() < 5000) {
    EXPECT_TRUE(netlist::probably_equivalent(nl, *back, /*seed=*/7));
  }
  // The first trip normalizes GateId numbering (the reader numbers inputs
  // first); from there on write∘read is a byte-for-byte textual fixpoint.
  const auto text2 = bench_format::write_verilog(*back, flow.library());
  ASSERT_TRUE(text2.ok());
  const auto back2 = bench_format::read_verilog(*text2, flow.library());
  ASSERT_TRUE(back2.ok()) << back2.status().message();
  const auto text3 = bench_format::write_verilog(*back2, flow.library());
  ASSERT_TRUE(text3.ok());
  EXPECT_EQ(*text2, *text3);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, VerilogRoundTripTest,
                         ::testing::ValuesIn(all_workload_names()),
                         [](const auto& info) { return info.param; });

TEST(VerilogRoundTrip, AdversarialNamesSurviveEscaping) {
  // Names .bench/Verilog cannot spell plainly: bus bits, keywords, leading
  // digits, '$', and port-keyword prefixes (the historical .bench misparse).
  Netlist nl("top");
  const GateId a = nl.add_input("a[0]");
  const GateId b = nl.add_input("2fast");
  const GateId c = nl.add_input("module");
  const GateId t1 = nl.add_gate(GateFunc::kNand, {a, b}, "INPUT_REG_3");
  const GateId t2 = nl.add_gate(GateFunc::kNor, {t1, c}, "n$odd");
  const GateId t3 = nl.add_gate(GateFunc::kInv, {t2}, "assign");
  nl.add_output("OUTPUT_BUS[1]", t3);
  nl.add_output("wire", t2);
  ASSERT_TRUE(nl.check().ok());

  core::Flow flow;
  ASSERT_TRUE(flow.load_circuit(std::move(nl)).ok());
  const auto text = bench_format::write_verilog(flow.netlist(), flow.library());
  ASSERT_TRUE(text.ok()) << text.status().message();
  const auto back = bench_format::read_verilog(*text, flow.library());
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(same_named_structure(flow.netlist(), *back, /*check_cells=*/true));
}

TEST(VerilogRoundTrip, SizedWriteBackPreservesEveryDriveStrength) {
  // The point of the Verilog pair: a *sized* netlist written to disk and read
  // back carries the optimizer's decisions, gate for gate.
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c880").ok());
  scramble_sizes(flow);
  const std::string path = ::testing::TempDir() + "/c880_sized.v";
  ASSERT_TRUE(flow.write_verilog_file(path).ok());

  core::Flow flow2;
  ASSERT_TRUE(flow2.load_verilog_file(path).ok());
  EXPECT_TRUE(same_named_structure(flow.netlist(), flow2.netlist(), /*check_cells=*/true));
}

// ---------------------------------------------------------------------------
// .bench round trip: the format drops cell bindings and expands MUX/AOI/OAI,
// so the property is equivalence + fixpoint, and strict named-structure
// equality whenever the circuit stays inside the primitive .bench subset.
// ---------------------------------------------------------------------------

bool in_bench_subset(const Netlist& nl) {
  for (GateId id = 0; id < nl.node_count(); ++id) {
    switch (nl.gate(id).func) {
      case GateFunc::kMux2:
      case GateFunc::kAoi21:
      case GateFunc::kOai21:
      case GateFunc::kConst0:
      case GateFunc::kConst1:
        return false;
      default:
        break;
    }
  }
  // The .bench writer aliases a PO whose name differs from its driving net
  // through an inserted BUFF, which also leaves the subset.
  for (const auto& out : nl.outputs()) {
    if (nl.gate(out.driver).name != out.name) return false;
  }
  return true;
}

class BenchRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchRoundTripTest, WriteReadReproducesEveryGenerator) {
  const Netlist nl = circuits::make_table1_circuit(GetParam());
  const auto trip1 = bench_format::read_bench(bench_format::write_bench(nl), nl.name());
  ASSERT_TRUE(trip1.ok()) << trip1.status().message();

  if (in_bench_subset(nl)) {
    // Primitive circuits reproduce bitwise on the first trip.
    EXPECT_TRUE(same_named_structure(nl, *trip1, /*check_cells=*/false));
  } else if (nl.logic_gate_count() < 5000) {
    EXPECT_TRUE(netlist::probably_equivalent(nl, *trip1, /*seed=*/11));
  }
  // Expansion happens at most once: the first trip's image is a fixpoint.
  const auto trip2 = bench_format::read_bench(bench_format::write_bench(*trip1), nl.name());
  ASSERT_TRUE(trip2.ok()) << trip2.status().message();
  EXPECT_TRUE(same_named_structure(*trip1, *trip2, /*check_cells=*/false));
  EXPECT_EQ(bench_format::write_bench(*trip1), bench_format::write_bench(*trip2));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BenchRoundTripTest,
                         ::testing::ValuesIn(all_workload_names()),
                         [](const auto& info) { return info.param; });

TEST(BenchRoundTrip, PortPrefixedNamesSurvive) {
  // Regression companion to the reader's port-prefix fix: signals named
  // INPUT_*/OUTPUT_* must write and read back as ordinary gates.
  Netlist nl("prefix");
  const GateId a = nl.add_input("INPUT_A");
  const GateId b = nl.add_input("OUTPUT_B");
  const GateId t = nl.add_gate(GateFunc::kAnd, {a, b}, "INPUT_REG_3");
  nl.add_output("INPUT_REG_3", t);
  ASSERT_TRUE(nl.check().ok());
  const auto back = bench_format::read_bench(bench_format::write_bench(nl), "prefix");
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(same_named_structure(nl, *back, /*check_cells=*/false));
}

// ---------------------------------------------------------------------------
// Definition order: both readers build fanins first, whatever the line order
// and however deep the input
// ---------------------------------------------------------------------------

/// Node-for-node equality under the same GateIds.
::testing::AssertionResult same_numbering(const Netlist& a, const Netlist& b) {
  if (a.node_count() != b.node_count())
    return ::testing::AssertionFailure() << "node counts differ";
  for (GateId id = 0; id < a.node_count(); ++id) {
    const auto& g = a.gate(id);
    const auto& h = b.gate(id);
    if (g.name != h.name || g.func != h.func || g.fanins != h.fanins ||
        g.cell_group != h.cell_group || g.size_index != h.size_index)
      return ::testing::AssertionFailure() << "node " << id << " differs";
  }
  if (!std::ranges::equal(a.inputs(), b.inputs()))
    return ::testing::AssertionFailure() << "inputs differ";
  if (!std::ranges::equal(a.outputs(), b.outputs(), [](const auto& x, const auto& y) {
        return x.name == y.name && x.driver == y.driver;
      }))
    return ::testing::AssertionFailure() << "outputs differ";
  return ::testing::AssertionSuccess();
}

/// The inverter chain a -> n1 -> ... -> y of @p gates, as .bench or as
/// structural Verilog, its gate lines inputs-first or outputs-first.
std::string inverter_chain(int gates, bool verilog, bool outputs_first) {
  const auto net = [gates](int i) {
    return i == 0 ? std::string("a") : i == gates ? std::string("y") : "n" + std::to_string(i);
  };
  std::string text =
      verilog ? "module chain (a, y);\n  input a;\n  output y;\n" : "INPUT(a)\nOUTPUT(y)\n";
  for (int i = 1; verilog && i < gates; ++i) text += "  wire " + net(i) + ";\n";
  for (int k = 1; k <= gates; ++k) {
    const int i = outputs_first ? gates + 1 - k : k;
    text += verilog ? "  INV_X1 g" + std::to_string(i) + " (.A(" + net(i - 1) + "), .ZN(" +
                          net(i) + "));\n"
                    : net(i) + " = NOT(" + net(i - 1) + ")\n";
  }
  return verilog ? text + "endmodule\n" : text;
}

TEST(DefinitionOrder, DeepOutputsFirstChainMatchesForwardOrder) {
  // Outputs-first, every gate waits on the whole chain below it: the build
  // is 200k levels deep, far past any call stack.
  constexpr int kGates = 200000;
  const liberty::Library lib = liberty::build_synthetic_90nm({});
  for (const bool verilog : {false, true}) {
    const auto read = [&](bool outputs_first) {
      const std::string text = inverter_chain(kGates, verilog, outputs_first);
      return verilog ? bench_format::read_verilog(text, lib)
                     : bench_format::read_bench(text, "chain");
    };
    const auto forward = read(false);
    const auto backward = read(true);
    ASSERT_TRUE(forward.ok()) << forward.status().message();
    ASSERT_TRUE(backward.ok()) << backward.status().message();
    EXPECT_EQ(forward->node_count(), kGates + 1u);
    EXPECT_TRUE(same_numbering(*forward, *backward)) << (verilog ? ".v" : ".bench");
  }
}

/// @p text with its gate lines (those with an '=') in reverse order.
std::string reverse_gate_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::vector<std::string> gates;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
    if (line.find('=') != std::string::npos) gates.push_back(line);
  }
  std::string out;
  for (const std::string& line : lines) {
    if (line.find('=') == std::string::npos) {
      out += line;
    } else {
      out += gates.back();
      gates.pop_back();
    }
    out += '\n';
  }
  return out;
}

TEST(DefinitionOrder, ReversedTable1BenchGivesTheSameNetlist) {
  // Ids follow the post-order from each definition in file order, so the
  // gates may number differently; the inputs keep theirs, every gate's
  // fanins precede it, and the named structure is the forward file's.
  for (const std::string& name : circuits::table1_names()) {
    const std::string text = bench_format::write_bench(circuits::make_table1_circuit(name));
    const auto forward = bench_format::read_bench(text, name);
    const auto reversed = bench_format::read_bench(reverse_gate_lines(text), name);
    ASSERT_TRUE(forward.ok()) << name << ": " << forward.status().message();
    ASSERT_TRUE(reversed.ok()) << name << ": " << reversed.status().message();
    EXPECT_TRUE(same_named_structure(*forward, *reversed, /*check_cells=*/false)) << name;
    EXPECT_TRUE(std::ranges::equal(forward->inputs(), reversed->inputs())) << name;
    bool fanins_first = true;
    for (GateId id = 0; id < reversed->node_count(); ++id) {
      for (const GateId f : reversed->gate(id).fanins) fanins_first &= f < id;
    }
    EXPECT_TRUE(fanins_first) << name;
  }
}

// ---------------------------------------------------------------------------
// SDC: parsing and application
// ---------------------------------------------------------------------------

TEST(Sdc, ParsesTheSupportedSubset) {
  const auto sdc = bench_format::read_sdc(
      "# layered constraints\n"
      "create_clock -period 800 -name clk [get_ports clock]\n"
      "set_input_delay -clock clk 60 [all_inputs]\n"
      "set_input_delay -clock clk 120.5 [get_ports {a b[3]}]\n"
      "set_output_delay -clock clk 50 [get_ports y]\n");
  ASSERT_TRUE(sdc.ok()) << sdc.status().message();
  ASSERT_TRUE(sdc->clock_period_ps.has_value());
  EXPECT_EQ(*sdc->clock_period_ps, 800.0);
  EXPECT_EQ(sdc->clock_name, "clk");
  ASSERT_EQ(sdc->input_delays.size(), 2u);
  EXPECT_TRUE(sdc->input_delays[0].all_ports);
  EXPECT_EQ(sdc->input_delays[0].delay_ps, 60.0);
  EXPECT_FALSE(sdc->input_delays[1].all_ports);
  EXPECT_EQ(sdc->input_delays[1].ports, (std::vector<std::string>{"a", "b[3]"}));
  EXPECT_EQ(sdc->input_delays[1].delay_ps, 120.5);
  ASSERT_EQ(sdc->output_delays.size(), 1u);
  EXPECT_EQ(sdc->output_delays[0].ports, (std::vector<std::string>{"y"}));
}

TEST(Sdc, AppliedConstraintsShapeDstaArrivalAndSlack) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_bench_file((corpus_dir() / "valid_small.bench").string()).ok());
  const double base_arrival = sta::run_dsta(flow.timing()).max_arrival_ps;

  ASSERT_TRUE(flow.apply_sdc("create_clock -period 800 -name clk\n"
                             "set_input_delay -clock clk 60 [all_inputs]\n"
                             "set_output_delay -clock clk 50 [get_ports y]\n")
                  .ok());
  const sta::DstaResult after = sta::run_dsta(flow.timing());
  // Every PI shifted by the same 60 ps, so the critical arrival shifts with
  // them; the single output's slack is period - margin - arrival.
  EXPECT_NEAR(after.max_arrival_ps, base_arrival + 60.0, 1e-9);
  EXPECT_NEAR(after.wns_ps, 800.0 - 50.0 - after.max_arrival_ps, 1e-9);
}

TEST(Sdc, LaterCommandsOverridePerPort) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  const Netlist& nl = flow.netlist();
  const std::string pi0 = nl.gate(nl.inputs()[0]).name;
  ASSERT_TRUE(flow.apply_sdc("set_input_delay 10 [all_inputs]\n"
                             "set_input_delay 500 [get_ports {" + pi0 + "}]\n")
                  .ok());
  const auto& arr = flow.timing().constraints().input_arrival_ps;
  ASSERT_EQ(arr.size(), nl.node_count());
  EXPECT_EQ(arr[nl.inputs()[0]], 500.0);
  EXPECT_EQ(arr[nl.inputs()[1]], 10.0);
}

TEST(Sdc, UnknownPortIsALoudError) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  const Status s = flow.apply_sdc("set_input_delay 60 [get_ports no_such_port]\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no_such_port"), std::string::npos);
}

TEST(Sdc, EmptyConstraintsKeepEnginesBitwiseIdentical) {
  // The constraints hooks must not perturb the unconstrained paths: engines
  // with a default-constructed TimingConstraints produce bit-for-bit the
  // results of the pre-constraints code.
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c880").ok());
  const sta::DstaResult d0 = sta::run_dsta(flow.timing());
  const ssta::FullSstaResult f0 = ssta::run_fullssta(flow.timing());

  flow.timing().set_constraints(sta::TimingConstraints{});
  const sta::DstaResult d1 = sta::run_dsta(flow.timing());
  const ssta::FullSstaResult f1 = ssta::run_fullssta(flow.timing());
  EXPECT_EQ(d0.max_arrival_ps, d1.max_arrival_ps);
  EXPECT_EQ(d0.wns_ps, d1.wns_ps);
  EXPECT_EQ(f0.mean_ps, f1.mean_ps);
  EXPECT_EQ(f0.sigma_ps, f1.sigma_ps);
  ASSERT_EQ(f0.node.size(), f1.node.size());
  for (std::size_t i = 0; i < f0.node.size(); ++i) {
    EXPECT_EQ(f0.node[i].mean_ps, f1.node[i].mean_ps) << "node " << i;
    EXPECT_EQ(f0.node[i].sigma_ps, f1.node[i].sigma_ps) << "node " << i;
  }
}

TEST(Sdc, ConstrainedFullSstaIsThreadCountInvariant) {
  // FULLSSTA is one serial level-order walk, and parallel what-ifs and
  // served jobs run it from several pool workers at once: with input
  // arrivals installed, every concurrent caller must get the lone caller's
  // result bitwise.
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("mesh8").ok());
  ASSERT_TRUE(flow.apply_sdc("create_clock -period 20000\n"
                             "set_input_delay 75 [all_inputs]\n")
                  .ok());
  const ssta::FullSstaResult ref = ssta::run_fullssta(flow.timing());
  for (const std::size_t threads : {2u, 4u}) {
    std::vector<ssta::FullSstaResult> got(threads);
    util::parallel_for(threads, 1, threads, [&](std::size_t lo, std::size_t hi, std::size_t) {
      for (std::size_t i = lo; i < hi; ++i) got[i] = ssta::run_fullssta(flow.timing());
    });
    for (const ssta::FullSstaResult& r : got) {
      EXPECT_EQ(ref.mean_ps, r.mean_ps) << threads << " threads";
      EXPECT_EQ(ref.sigma_ps, r.sigma_ps) << threads << " threads";
      ASSERT_EQ(ref.node.size(), r.node.size());
      for (std::size_t i = 0; i < ref.node.size(); ++i) {
        ASSERT_EQ(ref.node[i].mean_ps, r.node[i].mean_ps) << "node " << i;
        ASSERT_EQ(ref.node[i].sigma_ps, r.node[i].sigma_ps) << "node " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed corpus: every committed file must fail loudly — an error Status
// with a message, never a crash or a silent success.
// ---------------------------------------------------------------------------

TEST(MalformedCorpus, EveryFileFailsLoudly) {
  const std::filesystem::path dir = corpus_dir() / "malformed";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    const std::string ext = entry.path().extension().string();
    Status status;
    if (ext == ".bench") {
      status = bench_format::read_bench_file(path).status();
    } else if (ext == ".v") {
      core::Flow flow;
      status = flow.load_verilog_file(path);
    } else if (ext == ".sdc") {
      // SDC errors surface either at parse time or when the constraints are
      // matched against a netlist; both count as loud.
      core::Flow flow;
      ASSERT_TRUE(flow.load_bench_file((corpus_dir() / "valid_small.bench").string()).ok());
      status = flow.apply_sdc_file(path);
    } else {
      FAIL() << "unexpected corpus file " << path;
    }
    EXPECT_FALSE(status.ok()) << path << " parsed without error";
    EXPECT_FALSE(status.message().empty()) << path;
    ++checked;
  }
  EXPECT_GE(checked, 15u) << "malformed corpus went missing";
}

// ---------------------------------------------------------------------------
// Scaled fabrics: shape guarantees and the full flow end-to-end
// ---------------------------------------------------------------------------

struct FabricShape {
  std::string name;
  std::size_t min_gates;
  std::uint32_t min_median_width;
};

std::uint32_t median_level_width(const Netlist& nl) {
  std::vector<std::uint32_t> widths(netlist::depth(nl) + 1, 0);
  for (const std::uint32_t l : netlist::levels(nl)) ++widths[l];
  std::sort(widths.begin(), widths.end());
  return widths[widths.size() / 2];
}

TEST(ScaledFabrics, ShapesMatchTheirBillings) {
  // pipe64 is the deliberate deep/narrow contrast workload (median width
  // below the parallel cutoff); the others must keep their levels wide
  // enough for the wavefront kernels (cutoff: 16).
  const std::vector<FabricShape> shapes = {
      {"mul32", 10000, 16}, {"mul64", 40000, 16}, {"pipe64", 10000, 1}, {"mesh8", 10000, 16}};
  for (const auto& s : shapes) {
    const Netlist nl = circuits::make_table1_circuit(s.name);
    EXPECT_GE(nl.logic_gate_count(), s.min_gates) << s.name;
    EXPECT_GT(median_level_width(nl), s.min_median_width) << s.name;
  }
}

TEST(ScaledFabrics, FullFlowOnTenThousandGateFabric) {
  // ingest -> STA -> statistical sizing -> write-back on mul32 (11.7k
  // gates), with a bounded sizing run; the written netlist must carry the
  // sizer's decisions bit-for-bit.
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("mul32").ok());
  ASSERT_GE(flow.netlist().logic_gate_count(), 10000u);

  const sta::DstaResult dsta = sta::run_dsta(flow.timing());
  EXPECT_GT(dsta.max_arrival_ps, 0.0);
  const opt::CircuitStats before = flow.analyze();
  EXPECT_GT(before.sigma_ps, 0.0);

  opt::StatisticalSizerOptions bounded;
  bounded.objective.lambda = 3.0;
  bounded.max_iterations = 1;
  const core::OptimizationRecord rec = flow.optimize(3.0, &bounded);
  EXPECT_GT(rec.resizes, 0u);

  const std::string path = ::testing::TempDir() + "/mul32_sized.v";
  ASSERT_TRUE(flow.write_verilog_file(path).ok());
  core::Flow reread;
  ASSERT_TRUE(reread.load_verilog_file(path).ok());
  EXPECT_TRUE(same_named_structure(flow.netlist(), reread.netlist(), /*check_cells=*/true));
}

TEST(ScaledFabrics, FullFlowFromVerilogWithSdc) {
  // The new front door end-to-end: a Verilog netlist plus SDC constraints
  // ingested, analyzed, sized, and written back.
  const std::string path = ::testing::TempDir() + "/c880_flow.v";
  {
    core::Flow writer;
    ASSERT_TRUE(writer.load_table1("c880").ok());
    ASSERT_TRUE(writer.write_verilog_file(path).ok());
  }
  core::Flow flow;
  ASSERT_TRUE(flow.load_verilog_file(path).ok());
  ASSERT_TRUE(flow.apply_sdc("create_clock -period 2000 -name clk\n"
                             "set_input_delay -clock clk 40 [all_inputs]\n"
                             "set_output_delay -clock clk 25 [all_outputs]\n")
                  .ok());
  const sta::DstaResult constrained = sta::run_dsta(flow.timing());
  EXPECT_GT(constrained.max_arrival_ps, 40.0);

  opt::StatisticalSizerOptions bounded;
  bounded.objective.lambda = 3.0;
  bounded.max_iterations = 3;
  const core::OptimizationRecord rec = flow.optimize(3.0, &bounded);
  EXPECT_LE(rec.after.sigma_ps, rec.before.sigma_ps);

  const std::string out = ::testing::TempDir() + "/c880_flow_sized.v";
  ASSERT_TRUE(flow.write_verilog_file(out).ok());
  core::Flow reread;
  ASSERT_TRUE(reread.load_verilog_file(out).ok());
  EXPECT_TRUE(same_named_structure(flow.netlist(), reread.netlist(), /*check_cells=*/true));
}

}  // namespace
}  // namespace statsizer
