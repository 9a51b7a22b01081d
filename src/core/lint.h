// Lint driver: load a design (netlist file or builtin workload), run the
// full DRC sweep, and hand back a structured report — the engine behind
// `example_ingest --lint` and `check.sh --drc`.
//
// The driver is deliberately forgiving where Flow is strict: a parse failure
// caused by a combinational cycle, a structural refusal (multi-driven
// output), or an SDC that names unknown ports all come back as diagnostics
// in the report instead of bare Status errors, so the CLI can print every
// finding with file:line provenance and exit with a meaningful code.
#pragma once

#include <string>
#include <string_view>

#include "core/flow.h"
#include "drc/drc.h"
#include "util/status.h"

namespace statsizer::core {

struct LintOptions {
  /// DRC thresholds for the sweep.
  drc::DrcOptions drc;
  /// Optional SDC file checked for coverage against the design.
  std::string sdc_path;
};

struct LintResult {
  drc::DrcReport report;
  /// Set when the input could not be analyzed at all (unreadable file,
  /// malformed syntax with no DRC interpretation). A cycle or a structural
  /// refusal leaves status OK and puts the finding in @p report.
  Status status;
  /// True when the full sweep ran (false = structural findings only).
  bool analyzed = false;

  [[nodiscard]] bool ok() const { return status.ok(); }
};

/// Lints a netlist file, read by Flow::load_file (.bench or .v).
[[nodiscard]] LintResult lint_file(const std::string& path, const LintOptions& options = {});

/// Lints one of the builtin workloads (circuits::make_table1_circuit names).
[[nodiscard]] LintResult lint_workload(std::string_view name,
                                       const LintOptions& options = {});

}  // namespace statsizer::core
