// The katana-style ingestion flow as a command-line tool: cell library +
// netlist (+ optional SDC constraints) -> timing graph -> STA -> statistical
// sizing -> sized write-back.
//
//   ingest <netlist.(bench|v)> [--sdc file.sdc] [--optimize lambda]
//          [--out sized.v] [--threads n]
//   ingest --lint <netlist.(bench|v)> [--sdc file.sdc] [--json] [--strict]
//   ingest --lint --workload <name> [--json] [--strict]
//
// --optimize takes a finite lambda >= 0 (the whole token); --threads n
// (0..1024, 0 = hardware concurrency) sets the flow's sizing and yield
// workers; omitted, the library defaults apply. Results are identical for
// any thread count. A malformed value, or --threads with --lint (the DRC
// sweep is serial), is a usage error (exit 2).
//
// The netlist format is picked by extension: .bench (ISCAS, mapped with the
// default mapper) or .v (structural Verilog, cell bindings adopted as-is).
// Exits non-zero with the parser's line-numbered message on any malformed
// input — scripts/check.sh --parser-smoke drives this binary over a corpus
// of malformed files and expects exactly that.
//
// --lint runs the static design-rule sweep (src/drc) instead of the sizing
// flow and prints every diagnostic with file:line provenance (--json for the
// machine-readable form). Exit codes: 0 = clean or warnings only, 1 = any
// error-severity finding (or unparseable input), 2 = usage; --strict
// promotes warnings to exit 1. scripts/check.sh --drc drives this mode over
// the semantic corpus and the builtin workloads.
#include <cstdio>
#include <optional>
#include <string>

#include "core/flow.h"
#include "core/lint.h"
#include "netlist/topo.h"
#include "sta/dsta.h"
#include "util/numeric.h"

using namespace statsizer;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <netlist.(bench|v)> [--sdc file.sdc] [--optimize lambda] "
               "[--out sized.v] [--threads n]\n"
               "       %s --lint (<netlist.(bench|v)> | --workload name) [--sdc file.sdc] "
               "[--json] [--strict]\n",
               argv0, argv0);
  return 2;
}

int run_lint(const std::string& netlist_path, const std::string& workload,
             const std::string& sdc_path, bool json, bool strict) {
  core::LintOptions options;
  options.sdc_path = sdc_path;
  const core::LintResult result = workload.empty() ? core::lint_file(netlist_path, options)
                                                   : core::lint_workload(workload, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status.message().c_str());
    return 1;
  }
  if (json) {
    std::fputs(drc::format_json(result.report).c_str(), stdout);
  } else {
    std::fputs(drc::format_text(result.report).c_str(), stdout);
    std::printf("%zu error(s), %zu warning(s)\n", result.report.errors(),
                result.report.warnings());
  }
  if (result.report.has_errors()) return 1;
  if (strict && result.report.warnings() > 0) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string netlist_path;
  std::string workload;
  std::string sdc_path;
  std::string out_path;
  double lambda = 0.0;
  bool optimize = false;
  bool lint = false;
  bool json = false;
  bool strict = false;
  std::optional<std::size_t> threads;  // unset: the library defaults
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sdc" && i + 1 < argc) {
      sdc_path = argv[++i];
    } else if (arg == "--optimize" && i + 1 < argc) {
      const std::optional<double> value = util::parse_lambda(argv[++i]);
      if (!value) return usage(argv[0]);
      lambda = *value;
      optimize = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const std::optional<std::uint64_t> n = util::parse_uint(argv[++i], 1024);
      if (!n) return usage(argv[0]);
      threads = *n;
    } else if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (!arg.empty() && arg[0] != '-' && netlist_path.empty()) {
      netlist_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (lint) {
    if (netlist_path.empty() == workload.empty() || threads) return usage(argv[0]);
    return run_lint(netlist_path, workload, sdc_path, json, strict);
  }
  if (netlist_path.empty() || !workload.empty()) return usage(argv[0]);

  // --threads sets the sizer and yield workers; without it the library
  // defaults (hardware concurrency) apply.
  core::FlowOptions options;
  if (threads) {
    options.sizer_threads = *threads;
    options.isle.threads = *threads;
  }
  core::Flow flow(options);

  // 1. Ingest: library is the synthetic 90nm; netlist by extension (Flow::load_file).
  const Status load = flow.load_file(netlist_path);
  if (!load.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", netlist_path.c_str(), load.message().c_str());
    return 1;
  }
  const auto& nl = flow.netlist();
  std::printf("loaded %s: %zu inputs, %zu outputs, %zu gates, depth %u\n",
              nl.name().c_str(), nl.inputs().size(), nl.outputs().size(),
              nl.logic_gate_count(), netlist::depth(nl));

  // 2. Constraints (optional).
  if (!sdc_path.empty()) {
    if (const Status s = flow.apply_sdc_file(sdc_path); !s.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", sdc_path.c_str(), s.message().c_str());
      return 1;
    }
    std::printf("applied constraints from %s\n", sdc_path.c_str());
  }

  // 3. STA + statistical analysis of the ingested state.
  const sta::DstaResult dsta = sta::run_dsta(flow.timing());
  const opt::CircuitStats before = flow.analyze();
  std::printf("ingested: arrival %.1f ps, wns %.1f ps | mean %.1f ps, sigma %.1f ps, "
              "area %.1f um2\n",
              dsta.max_arrival_ps, dsta.wns_ps, before.mean_ps, before.sigma_ps,
              before.area_um2);

  // 4. Statistical sizing (optional).
  if (optimize) {
    (void)flow.run_baseline();
    const core::OptimizationRecord rec = flow.optimize(lambda);
    std::printf("optimized (lambda=%.1f): mean %+.1f%%, sigma %+.1f%%, area %+.1f%% "
                "(%zu resizes)\n",
                lambda, 100.0 * rec.mean_change, 100.0 * rec.sigma_change,
                100.0 * rec.area_change, rec.resizes);
  }

  // 5. Write-back (optional): the sized netlist as structural Verilog.
  if (!out_path.empty()) {
    if (const Status s = flow.write_verilog_file(out_path); !s.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", out_path.c_str(), s.message().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
