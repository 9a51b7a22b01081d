// Reproduces the paper's Table 1: for each workload, the "original"
// (mean-delay-optimized) sigma/mu, then for lambda = 3 and lambda = 9 the
// change in mean, change in sigma, resulting sigma/mu, change in area, and
// runtime. The paper's values are printed alongside for comparison.
//
// Usage: bench_table1 [--quick] [--threads N] [--inject SPEC] [circuit ...]
//   --quick       only the sub-1000-gate circuits (CI-friendly)
//   --threads N   (0..1024; 0 = hardware concurrency; anything else,
//                 including a negative or non-numeric value, exits 2)
//                 shard circuits across N job-system workers (the
//                 serve::JobManager fan-out pattern). Each run's sizing and
//                 yield loops run inline on its worker, so N = 1 (default)
//                 runs the circuits one after another on one core. Either
//                 way the table values are identical — the sizer is
//                 thread-count-invariant.
//   --inject SPEC deterministic fault rule (util::parse_fault_rule syntax;
//                 repeatable). Scope = the circuit's index in the work list.
//                 A poisoned circuit fails its row with the structured
//                 status; sibling rows are untouched. For exercising the
//                 per-job isolation path from automation.
//   circuits      subset by name (default: the 13 paper rows). The scaled
//                 fabrics (mul32/mul64/pipe64/mesh8) are also accepted; they
//                 have no paper reference, so those columns print "-".
//
// Exit status is nonzero when any circuit name is unknown or any run fails,
// so automation (scripts/check.sh --table1-smoke) can trust it.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "circuits/iscas_suite.h"
#include "core/flow.h"
#include "netlist/topo.h"
#include "serve/job.h"
#include "util/fault.h"
#include "util/numeric.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace statsizer;

namespace {

/// Upper bound for --threads, as in statsizer_serve: far above any real core
/// count, low enough that a typo cannot ask for millions of workers.
constexpr std::size_t kMaxThreads = 1024;

struct RowResult {
  std::vector<std::string> row;
  std::string error;  ///< non-empty when the run failed
};

/// @p ref is null for the scaled fabrics (circuits::scaled_workload_names),
/// which have no paper row — their reference columns print "-".
RowResult run_circuit(const std::string& name, const circuits::Table1Reference* ref) {
  RowResult out;
  core::FlowOptions flow_options;
  // Yield-column estimator: importance sampling to a 0.2% standard error
  // (or the 4096-draw cap), at the clock fixed from the baseline 3-sigma
  // corner below.
  flow_options.isle.target_yield_se = 2e-3;

  core::Flow flow(flow_options);
  if (const Status s = flow.load_table1(name); !s.ok()) {
    out.error = s.message();
    return out;
  }
  std::fprintf(stderr, "[table1] %s: %zu gates, baseline...\n", name.c_str(),
               flow.netlist().logic_gate_count());
  (void)flow.run_baseline();
  const opt::CircuitStats original = flow.analyze();
  const auto baseline_sizes = flow.netlist().sizes();

  // Yield at the baseline 3-sigma corner, held fixed across the lambda runs
  // so the per-lambda yield columns show what the sigma harvest buys.
  const double yield_clock_ps = original.mean_ps + 3.0 * original.sigma_ps;
  const auto yield_cell = [&flow, yield_clock_ps]() {
    const core::YieldReport y = flow.estimate_yield(yield_clock_ps);
    return util::fmt(y.yield(), 4) + (y.result.degenerate ? "!" : "");
  };
  out.row = {
      name,
      std::to_string(flow.netlist().logic_gate_count()),
      std::to_string(netlist::depth(flow.netlist())),
      util::fmt(original.sigma_over_mu(), 4),
      ref ? util::fmt(ref->paper_sigma_over_mu, 3) : "-",
      yield_cell(),
  };
  // Size-adaptive effort: the >1500-gate circuits get a bounded iteration
  // budget so the full table stays within a practical wall-clock (the
  // trends survive; see EXPERIMENTS.md), and the 10k+-gate scaled fabrics a
  // tighter one still.
  opt::StatisticalSizerOptions overrides;
  overrides.threads = flow_options.sizer_threads;
  if (flow.netlist().logic_gate_count() > 1500) {
    overrides.max_iterations = 40;
    overrides.exact_fallback_gate_limit = 10;
    overrides.max_global_sweeps = 2;
  }
  if (flow.netlist().logic_gate_count() > 8000) {
    overrides.max_iterations = 10;
    overrides.max_global_sweeps = 1;
  }
  for (const double lambda : {3.0, 9.0}) {
    flow.timing().mutable_netlist().set_sizes(baseline_sizes);
    flow.timing().update();
    std::fprintf(stderr, "[table1] %s: lambda = %.0f...\n", name.c_str(), lambda);
    const core::OptimizationRecord rec = flow.optimize(lambda, &overrides);
    out.row.push_back(util::fmt_pct(rec.mean_change, 1));
    out.row.push_back(util::fmt_pct(rec.sigma_change, 0));
    out.row.push_back(ref ? util::fmt_pct(lambda == 3.0 ? ref->paper_sigma_reduction_l3
                                                        : ref->paper_sigma_reduction_l9,
                                          0)
                          : "-");
    out.row.push_back(util::fmt_pct(rec.area_change, 0));
    out.row.push_back(yield_cell());
    out.row.push_back(util::fmt(rec.runtime_seconds, 2));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t threads = 1;
  util::FaultPlan faults;
  faults.seed = 1;
  std::vector<std::string> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--inject") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--inject requires a value\n");
        return 2;
      }
      auto rule = util::parse_fault_rule(argv[++i]);
      if (!rule.ok()) {
        std::fprintf(stderr, "--inject: %s\n", std::string(rule.status().message()).c_str());
        return 2;
      }
      faults.rules.push_back(std::move(rule.value()));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads requires a value\n");
        return 2;
      }
      const char* value = argv[++i];
      const auto n = util::parse_uint(value, kMaxThreads);
      if (!n.has_value()) {
        std::fprintf(stderr, "--threads: want an integer in [0, %zu], got '%s'\n", kMaxThreads,
                     value);
        return 2;
      }
      threads = *n == 0 ? util::ThreadPool::default_thread_count() : *n;
    } else {
      selected.emplace_back(argv[i]);
    }
  }
  if (selected.empty()) selected = circuits::table1_names();

  // Resolve and validate the workload list up front: an unknown name must
  // fail the whole invocation, not silently shrink the table. Scaled fabrics
  // (mul32/mul64/pipe64/mesh8) are valid workloads without a paper row.
  const auto& scaled = circuits::scaled_workload_names();
  std::vector<std::pair<std::string, std::optional<circuits::Table1Reference>>> work;
  bool bad_name = false;
  for (const std::string& name : selected) {
    const auto ref = circuits::table1_reference(name);
    const bool is_scaled = std::find(scaled.begin(), scaled.end(), name) != scaled.end();
    if (!ref.has_value() && !is_scaled) {
      std::fprintf(stderr, "unknown circuit '%s'\n", name.c_str());
      bad_name = true;
      continue;
    }
    // --quick keeps the CI-sized circuits only; every scaled fabric is 10k+.
    if (quick && (is_scaled || ref->paper_gates > 1000)) continue;
    work.emplace_back(name, ref);
  }
  if (bad_name) return 1;

  // Shard whole circuits across the job system: results land in
  // index-aligned slots, so the table order (and every value in it) is
  // independent of the thread count, and a failing circuit — including one
  // poisoned by --inject — is isolated to its own row's structured status.
  // The effective shard count is bounded by the work list: a worker with no
  // circuit would sit idle.
  const std::size_t shards = std::min(threads, std::max<std::size_t>(work.size(), 1));
  std::vector<RowResult> results(work.size());
  {
    serve::JobManagerOptions manager_options;
    manager_options.threads = shards;
    manager_options.limits.max_queue_depth = std::max<std::size_t>(work.size(), 1);
    manager_options.faults = faults.empty() ? nullptr : &faults;
    serve::JobManager manager(manager_options);
    std::vector<serve::JobRef> handles(work.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
      serve::JobOptions job_options;
      job_options.fault_scope = i;  // --inject addresses circuits by index
      handles[i] = manager.submit(
          [&work, &results, i] {
            results[i] =
                run_circuit(work[i].first, work[i].second ? &*work[i].second : nullptr);
            if (!results[i].error.empty()) {
              throw StatusError(Status::error(results[i].error));
            }
          },
          job_options);
    }
    manager.wait_all();
    for (std::size_t i = 0; i < work.size(); ++i) {
      const Status status = handles[i]->status();
      if (!status.ok()) {
        results[i].error = std::string(to_string(status.code())) + ": " +
                           std::string(status.message());
      }
    }
  }

  util::Table table({"Circuit", "Gates", "Depth", "s/m orig", "s/m paper", "Y orig",  //
                     "L3 dMu", "L3 dSg", "L3 dSg paper", "L3 dA", "L3 Y", "L3 t(s)",
                     "L9 dMu", "L9 dSg", "L9 dSg paper", "L9 dA", "L9 Y", "L9 t(s)"});
  bool failed = false;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (!results[i].error.empty()) {
      std::fprintf(stderr, "%s: %s\n", work[i].first.c_str(), results[i].error.c_str());
      failed = true;
      continue;
    }
    table.add_row(std::move(results[i].row));
  }

  std::printf("Table 1 — statistical gate sizing on Table-1 workloads\n");
  std::printf("(paper columns shown for reference; see EXPERIMENTS.md)\n\n");
  std::printf("%s\n", table.to_string().c_str());
  if (failed) {
    std::fprintf(stderr, "bench_table1: one or more circuits failed\n");
    return 1;
  }
  return 0;
}
