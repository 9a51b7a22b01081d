// Design-rule-checker tests: per-rule units over hand-built netlists, the
// semantic corpus (every rule firing with its expected id and witness), a
// clean pass over all builtin workloads, bitwise thread-count invariance of
// the diagnostic vector, and the Flow preflight gate.
//
// The semantic corpus contract: each file under tests/corpus/semantic/
// carries one or more `expect-drc: <rule-id> [object]` comment markers.
// Linting the file must produce a diagnostic for every marker (matching the
// rule id, and — when the marker names an object — that name as the
// diagnostic's object or inside its witness). .sdc cases ride
// tests/corpus/valid_small.bench.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flow.h"
#include "core/lint.h"
#include "drc/drc.h"
#include "netlist/netlist.h"
#include "sta/graph.h"
#include "util/json.h"

namespace statsizer {
namespace {

using netlist::GateFunc;
using netlist::GateId;
using netlist::Netlist;

std::filesystem::path corpus_dir() {
  return std::filesystem::path(STATSIZER_SOURCE_DIR) / "tests" / "corpus";
}

bool has_rule(const drc::DrcReport& report, drc::Rule rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [rule](const drc::Diagnostic& d) { return d.rule == rule; });
}

// ---------------------------------------------------------------------------
// structural rules (check_netlist on hand-built netlists)
// ---------------------------------------------------------------------------

/// a feeds y = AND(a, z), z = NOT(y): a two-gate loop closed by rewire —
/// exactly the shape topological_order() throws std::logic_error on.
Netlist make_cyclic() {
  Netlist nl("cyclic");
  const GateId a = nl.add_input("a");
  const GateId z = nl.add_gate(GateFunc::kInv, {a}, "z");
  const GateId y = nl.add_gate(GateFunc::kAnd, {a, z}, "y");
  nl.add_output("y", y);
  const GateId loop[] = {y};
  nl.rewire(z, GateFunc::kInv, loop);
  return nl;
}

TEST(DrcStructural, CycleBecomesDiagnosticWithWitnessPath) {
  const drc::DrcReport report = drc::check_netlist(make_cyclic());
  ASSERT_EQ(report.errors(), 1u);
  const drc::Diagnostic& d = *report.first_error();
  EXPECT_EQ(d.rule, drc::Rule::kCombinationalCycle);
  // Witness is the loop in signal-flow order with the first node repeated.
  ASSERT_GE(d.witness.size(), 3u);
  EXPECT_EQ(d.witness.front(), d.witness.back());
  EXPECT_NE(std::find(d.witness.begin(), d.witness.end(), "y"), d.witness.end());
  EXPECT_NE(std::find(d.witness.begin(), d.witness.end(), "z"), d.witness.end());
}

TEST(DrcStructural, FlowRefusesCyclicCircuitWithoutThrowing) {
  core::Flow flow;
  const Status s = flow.load_circuit(make_cyclic());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("combinational-cycle"), std::string::npos) << s.message();
  EXPECT_TRUE(flow.last_drc().has_errors());
  EXPECT_FALSE(flow.has_circuit());
}

TEST(DrcStructural, FloatingInput) {
  Netlist nl("floating");
  const GateId a = nl.add_input("a");
  (void)nl.add_input("b");  // drives nothing
  nl.add_output("y", nl.add_gate(GateFunc::kInv, {a}, "y"));
  const drc::DrcReport report = drc::check_netlist(nl);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, drc::Rule::kFloatingInput);
  EXPECT_EQ(report.diagnostics[0].severity, drc::Severity::kWarning);
  EXPECT_EQ(report.diagnostics[0].object, "b");
}

TEST(DrcStructural, DanglingOutput) {
  Netlist nl("dangling");
  const GateId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(GateFunc::kInv, {a}, "y"));
  (void)nl.add_gate(GateFunc::kInv, {a}, "u");  // feeds nothing
  const drc::DrcReport report = drc::check_netlist(nl);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, drc::Rule::kDanglingOutput);
  EXPECT_EQ(report.diagnostics[0].object, "u");
}

TEST(DrcStructural, DeadConeAggregatesBehindTheDanglingSink) {
  Netlist nl("deadcone");
  const GateId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(GateFunc::kInv, {a}, "y"));
  const GateId d1 = nl.add_gate(GateFunc::kInv, {a}, "d1");
  (void)nl.add_gate(GateFunc::kInv, {d1}, "d2");
  const drc::DrcReport report = drc::check_netlist(nl);
  EXPECT_TRUE(has_rule(report, drc::Rule::kDanglingOutput));
  ASSERT_TRUE(has_rule(report, drc::Rule::kDeadCone));
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.severity, drc::Severity::kWarning);
    if (d.rule == drc::Rule::kDeadCone) {
      EXPECT_NE(std::find(d.witness.begin(), d.witness.end(), "d1"), d.witness.end());
    }
  }
}

TEST(DrcStructural, MultiDrivenOutputNamesBothDrivers) {
  Netlist nl("multi");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g1 = nl.add_gate(GateFunc::kInv, {a}, "g1");
  const GateId g2 = nl.add_gate(GateFunc::kInv, {b}, "g2");
  nl.add_output("y", g1);
  nl.add_output("y", g2);
  const drc::DrcReport report = drc::check_netlist(nl);
  ASSERT_EQ(report.errors(), 1u);
  const drc::Diagnostic& d = *report.first_error();
  EXPECT_EQ(d.rule, drc::Rule::kMultiDrivenNet);
  EXPECT_EQ(d.object, "y");
  EXPECT_NE(std::find(d.witness.begin(), d.witness.end(), "g1"), d.witness.end());
  EXPECT_NE(std::find(d.witness.begin(), d.witness.end(), "g2"), d.witness.end());
}

// ---------------------------------------------------------------------------
// binding + electrical rules (run_drc on a timing snapshot)
// ---------------------------------------------------------------------------

TEST(DrcBinding, CorruptedCellGroupIsAnUnknownCellError) {
  // No text format can produce a bad binding (readers validate), so corrupt
  // a mapped netlist programmatically through the timing context.
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("alu1").ok());
  Netlist& nl = flow.timing().mutable_netlist();
  GateId victim = netlist::kNoGate;
  for (std::size_t i = 0; i < nl.node_count(); ++i) {
    const auto id = static_cast<GateId>(i);
    if (!nl.is_input(id) && !nl.is_constant(id)) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, netlist::kNoGate);
  nl.gate(victim).cell_group = 0x00FFFFFFu;  // far out of library range
  const drc::DrcReport report = drc::run_drc(flow.timing());
  ASSERT_TRUE(report.has_errors());
  EXPECT_EQ(report.first_error()->rule, drc::Rule::kUnknownCell);
  EXPECT_EQ(report.first_error()->object, nl.gate(victim).name);
}

TEST(DrcElectrical, TightFanoutBoundFiresOnRealWorkload) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  drc::DrcOptions opt;
  opt.max_fanout = 2;
  const drc::DrcReport report = drc::run_drc(flow.timing(), opt);
  EXPECT_TRUE(has_rule(report, drc::Rule::kFanoutExceeded));
  EXPECT_EQ(report.errors(), 0u);  // electrical findings are warnings
}

TEST(DrcElectrical, TightLoadScaleFiresOnRealWorkload) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  drc::DrcOptions opt;
  opt.load_limit_scale = 0.05;
  const drc::DrcReport report = drc::run_drc(flow.timing(), opt);
  ASSERT_TRUE(has_rule(report, drc::Rule::kLoadExceedsLimit));
  for (const auto& d : report.diagnostics) {
    if (d.rule == drc::Rule::kLoadExceedsLimit) {
      EXPECT_FALSE(d.witness.empty()) << "load finding should name its consumers";
      break;
    }
  }
}

TEST(DrcElectrical, TightLibrarySlewLimitFiresOnRealWorkload) {
  core::FlowOptions options;
  options.library.max_transition_ps = 40.0;  // real slews are hundreds of ps
  core::Flow flow(options);
  ASSERT_TRUE(flow.load_table1("c432").ok());
  const drc::DrcReport report = drc::run_drc(flow.timing());
  EXPECT_TRUE(has_rule(report, drc::Rule::kSlewExceedsLimit));
}

// ---------------------------------------------------------------------------
// determinism: electrical findings come in GateId order, sweep after sweep
// ---------------------------------------------------------------------------

TEST(DrcDeterminism, ElectricalFindingsComeInGateIdOrder) {
  std::set<drc::Rule> seen;
  for (const char* name : {"mesh8", "mul32"}) {
    // Tight thresholds + a tight library slew limit make hundreds of
    // findings across all three electrical rules.
    core::FlowOptions options;
    options.library.max_transition_ps = 60.0;
    core::Flow flow(options);
    ASSERT_TRUE(flow.load_table1(name).ok()) << name;
    drc::DrcOptions opt;
    opt.max_fanout = 4;
    opt.load_limit_scale = 0.25;
    const drc::DrcReport report = drc::run_drc(flow.timing(), opt);
    ASSERT_GT(report.diagnostics.size(), 100u) << name;

    std::unordered_map<std::string, GateId> id_of;
    const Netlist& nl = flow.timing().netlist();
    for (GateId id = 0; id < nl.node_count(); ++id) id_of.emplace(nl.gate(id).name, id);
    // A gate's findings come as fanout, load, then slew.
    const auto rank = [](drc::Rule r) {
      return r == drc::Rule::kFanoutExceeded ? 0 : r == drc::Rule::kLoadExceedsLimit ? 1 : 2;
    };
    std::pair<GateId, int> last{0, -1};
    for (const drc::Diagnostic& d : report.diagnostics) {
      if (d.rule != drc::Rule::kFanoutExceeded && d.rule != drc::Rule::kLoadExceedsLimit &&
          d.rule != drc::Rule::kSlewExceedsLimit) {
        continue;
      }
      seen.insert(d.rule);
      const auto it = id_of.find(d.object);
      ASSERT_NE(it, id_of.end()) << name << ": " << d.object;
      const std::pair<GateId, int> key{it->second, rank(d.rule)};
      EXPECT_LT(last, key) << name << ": " << d.object << " out of GateId order";
      last = key;
    }
    EXPECT_EQ(drc::run_drc(flow.timing(), opt).diagnostics, report.diagnostics) << name;
  }
  EXPECT_EQ(seen.size(), 3u) << "every electrical rule should fire";
}

// ---------------------------------------------------------------------------
// clean pass: every builtin workload lints with zero findings
// ---------------------------------------------------------------------------

TEST(DrcCleanPass, AllBuiltinWorkloadsLintClean) {
  const char* const kWorkloads[] = {"alu1",  "alu2",  "alu3",  "c432",  "c499",  "c880",
                                    "c1355", "c1908", "c2670", "c3540", "c5315", "c6288",
                                    "c7552", "mul32", "mul64", "pipe64", "mesh8"};
  for (const char* name : kWorkloads) {
    const core::LintResult result = core::lint_workload(name);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status.message();
    EXPECT_TRUE(result.report.empty())
        << name << " is not DRC-clean:\n"
        << drc::format_text(result.report);
  }
}

// ---------------------------------------------------------------------------
// semantic corpus: every rule fires with its expected id and witness
// ---------------------------------------------------------------------------

struct Expectation {
  std::string rule;
  std::string object;  // empty = any object
};

/// Parses `expect-drc: <rule-id> [object]` markers from # or // comments.
std::vector<Expectation> read_markers(const std::filesystem::path& path) {
  std::vector<Expectation> markers;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find("expect-drc:");
    if (pos == std::string::npos) continue;
    std::istringstream rest(line.substr(pos + std::strlen("expect-drc:")));
    Expectation e;
    rest >> e.rule >> e.object;
    if (!e.rule.empty()) markers.push_back(std::move(e));
  }
  return markers;
}

bool matches(const drc::Diagnostic& d, const Expectation& e) {
  if (drc::rule_id(d.rule) != e.rule) return false;
  if (e.object.empty() || d.object == e.object) return true;
  return std::find(d.witness.begin(), d.witness.end(), e.object) != d.witness.end();
}

TEST(DrcSemanticCorpus, EveryCaseFiresItsExpectedRules) {
  const std::filesystem::path dir = corpus_dir() / "semantic";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    const std::string ext = entry.path().extension().string();
    const std::vector<Expectation> markers = read_markers(entry.path());
    ASSERT_FALSE(markers.empty()) << path << " has no expect-drc markers";

    core::LintOptions options;
    std::string lint_target = path;
    if (ext == ".sdc") {
      // SDC cases are constraint files checked against the small host design.
      options.sdc_path = path;
      lint_target = (corpus_dir() / "valid_small.bench").string();
    }
    const core::LintResult result = core::lint_file(lint_target, options);
    ASSERT_TRUE(result.ok()) << path << ": " << result.status.message();

    for (const Expectation& e : markers) {
      const bool hit =
          std::any_of(result.report.diagnostics.begin(), result.report.diagnostics.end(),
                      [&e](const drc::Diagnostic& d) { return matches(d, e); });
      EXPECT_TRUE(hit) << path << ": no diagnostic matched expect-drc: " << e.rule << " "
                       << e.object << "\nreport:\n"
                       << drc::format_text(result.report);
    }
    // Provenance: every diagnostic from a file-based lint names its source.
    for (const auto& d : result.report.diagnostics) {
      EXPECT_FALSE(d.file.empty()) << path << ": diagnostic without file attribution";
    }
    ++checked;
  }
  EXPECT_GE(checked, 12u);
}

// ---------------------------------------------------------------------------
// SDC rules + the Flow preflight gate
// ---------------------------------------------------------------------------

TEST(DrcSdc, NonPositiveClockIsAnErrorAndBlocksSizing) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_bench_file((corpus_dir() / "valid_small.bench").string()).ok());
  ASSERT_TRUE(flow.apply_sdc("create_clock -period 0 -name clk\n").ok());
  const drc::DrcReport& report = flow.preflight();
  ASSERT_TRUE(report.has_errors());
  EXPECT_EQ(report.first_error()->rule, drc::Rule::kNonPositiveClock);
  EXPECT_THROW((void)flow.run_baseline(), std::logic_error);
}

TEST(DrcSdc, PreflightGateCanBeDisabled) {
  core::FlowOptions options;
  options.preflight = false;
  core::Flow flow(options);
  ASSERT_TRUE(flow.load_bench_file((corpus_dir() / "valid_small.bench").string()).ok());
  ASSERT_TRUE(flow.apply_sdc("create_clock -period 0 -name clk\n").ok());
  EXPECT_NO_THROW((void)flow.run_baseline());
}

TEST(DrcSdc, PartialInputCoverageWarnsButDoesNotBlock) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_bench_file((corpus_dir() / "valid_small.bench").string()).ok());
  ASSERT_TRUE(flow.apply_sdc("create_clock -period 800 -name clk\n"
                             "set_input_delay -clock clk 60 [get_ports a]\n")
                  .ok());
  const drc::DrcReport& report = flow.preflight();
  EXPECT_EQ(report.errors(), 0u);
  bool saw = false;
  for (const auto& d : report.diagnostics) {
    if (d.rule != drc::Rule::kUnconstrainedInput) continue;
    saw = true;
    EXPECT_NE(std::find(d.witness.begin(), d.witness.end(), "b"), d.witness.end());
    EXPECT_NE(std::find(d.witness.begin(), d.witness.end(), "c"), d.witness.end());
  }
  EXPECT_TRUE(saw);
  EXPECT_NO_THROW((void)flow.run_baseline());  // warnings never block
}

// ---------------------------------------------------------------------------
// renderers
// ---------------------------------------------------------------------------

TEST(DrcFormat, TextAndJsonCarryTheRuleId) {
  Netlist nl("fmt");
  const GateId a = nl.add_input("a");
  (void)nl.add_input("b");
  nl.add_output("y", nl.add_gate(GateFunc::kInv, {a}, "y"));
  const drc::DrcReport report = drc::check_netlist(nl);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const std::string text = drc::format_text(report);
  EXPECT_NE(text.find("[floating-input]"), std::string::npos) << text;
  EXPECT_NE(text.find("warning"), std::string::npos) << text;
  const std::string json = drc::format_json(report);
  EXPECT_NE(json.find("\"rule\":\"floating-input\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos) << json;

  // Strings needing escapes survive a round trip through the JSON parser.
  drc::DrcReport hostile = report;
  drc::Diagnostic d;
  d.rule = drc::Rule::kUnknownCell;
  d.severity = drc::Severity::kError;
  d.object = "g\"1\\";
  d.message = "bad\ncell \x01\"x\"";
  d.witness = {"a\\b", "c\nd", std::string("e\x01f\"")};
  d.file = "dir\\in\"put.v";
  d.line = 7;
  hostile.diagnostics.push_back(d);
  const std::string out = drc::format_json(hostile);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  const auto parsed = util::Json::parse(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message() << "\n" << out;
  EXPECT_EQ(parsed->find("errors")->as_number(), 1.0);
  EXPECT_EQ(parsed->find("warnings")->as_number(), 1.0);
  const util::Json::Array& diags = parsed->find("diagnostics")->as_array();
  ASSERT_EQ(diags.size(), hostile.diagnostics.size());
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const drc::Diagnostic& want = hostile.diagnostics[i];
    const util::Json& got = diags[i];
    EXPECT_EQ(got.find("rule")->as_string(), drc::rule_id(want.rule));
    EXPECT_EQ(got.find("severity")->as_string(), drc::severity_name(want.severity));
    EXPECT_EQ(got.find("object")->as_string(), want.object);
    EXPECT_EQ(got.find("message")->as_string(), want.message);
    EXPECT_EQ(got.find("file")->as_string(), want.file);
    EXPECT_EQ(got.find("line")->as_number(), static_cast<double>(want.line));
    std::vector<std::string> witness;
    for (const util::Json& w : got.find("witness")->as_array()) witness.push_back(w.as_string());
    EXPECT_EQ(witness, want.witness);
  }
}

TEST(DrcReportApi, CountsAndFirstError) {
  drc::DrcReport report;
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(report.first_error(), nullptr);
  drc::Diagnostic w;
  w.rule = drc::Rule::kFloatingInput;
  w.severity = drc::Severity::kWarning;
  drc::Diagnostic e;
  e.rule = drc::Rule::kUnknownCell;
  e.severity = drc::Severity::kError;
  e.object = "g1";
  report.diagnostics = {w, e};
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.errors(), 1u);
  ASSERT_NE(report.first_error(), nullptr);
  EXPECT_EQ(report.first_error()->object, "g1");
}

}  // namespace
}  // namespace statsizer
