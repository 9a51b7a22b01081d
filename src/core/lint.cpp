#include "core/lint.h"

#include <optional>
#include <utility>

#include "bench_format/sdc_reader.h"

namespace statsizer::core {

namespace {

/// Runs the sweep on a loaded flow, folding in the optional SDC. SDC parse
/// failures abort (malformed syntax has no DRC interpretation); port-name
/// and coverage problems come back as diagnostics.
LintResult sweep(Flow& flow, const LintOptions& options) {
  LintResult result;
  std::optional<bench_format::Sdc> sdc;
  if (!options.sdc_path.empty()) {
    auto parsed = bench_format::read_sdc_file(options.sdc_path);
    if (!parsed.ok()) {
      result.status = parsed.status();
      return result;
    }
    sdc = std::move(parsed.value());
  }
  result.report = drc::run_drc(flow.timing(), options.drc, &flow.provenance(),
                               sdc.has_value() ? &*sdc : nullptr, options.sdc_path);
  result.analyzed = true;
  return result;
}

/// Converts a load failure into a report when the failure has a DRC shape:
/// a reader-detected cycle (witness recorded in provenance) or a structural
/// refusal (the screen's findings are in last_drc()). Returns nullopt for
/// plain parse errors.
std::optional<LintResult> diagnose_load_failure(const Flow& flow, const Status& load,
                                                const std::string& path) {
  if (!flow.provenance().cycle.empty()) {
    LintResult result;
    drc::Diagnostic d;
    d.rule = drc::Rule::kCombinationalCycle;
    d.severity = drc::Severity::kError;
    d.witness = flow.provenance().cycle;
    d.object = d.witness.front();
    d.message = load.message();
    d.file = path;
    d.line = flow.provenance().line(d.object);
    result.report.diagnostics.push_back(std::move(d));
    return result;
  }
  if (flow.last_drc().has_errors()) {
    LintResult result;
    result.report = flow.last_drc();
    return result;
  }
  return std::nullopt;
}

}  // namespace

LintResult lint_file(const std::string& path, const LintOptions& options) {
  FlowOptions flow_options;
  flow_options.drc = options.drc;
  Flow flow(flow_options);

  const Status load = flow.load_file(path);
  if (!load.ok()) {
    if (auto diagnosed = diagnose_load_failure(flow, load, path); diagnosed.has_value()) {
      return *std::move(diagnosed);
    }
    LintResult result;
    result.status = load;
    return result;
  }
  return sweep(flow, options);
}

LintResult lint_workload(std::string_view name, const LintOptions& options) {
  FlowOptions flow_options;
  flow_options.drc = options.drc;
  Flow flow(flow_options);
  if (const Status load = flow.load_table1(name); !load.ok()) {
    LintResult result;
    result.status = load;
    return result;
  }
  return sweep(flow, options);
}

}  // namespace statsizer::core
