// perfbench — the end-to-end benchmark program for statsizer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//   perfbench --selftest
//
// Each workload runs the Table-1 flow on one design (read Verilog ->
// preflight -> baseline -> yield -> optimize -> yield). --trace 0 reports
// the flow's end-to-end metrics. --trace 1 is a separate run that reports
// per-layer numbers. It replays the flow stage by stage inside spans, checked
// bitwise against this build's untraced flows, and times single layers from
// the outside. It serves the flow's baseline design to closed-loop protocol
// clients for S/3 seconds and replays that stream in-process for S/3 seconds.
// It writes the spans as Chrome trace JSON to DIR and prints a self-time
// table. The last stdout line is the result object; correctness-gate
// failures exit 1.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "bench_util.h"
#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "flow_bench.h"
#include "serve/server.h"
#include "serve_bench.h"
#include "util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace sz = statsizer;
using sz::util::Json;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Deep: 16x16 NAND array multiplier, ~148 levels of narrow width.
      {"table1-c6288", [] { return sz::circuits::make_table1_circuit("c6288"); }, 9.0},
      // Wide and shallow: mesh interconnect, 55 levels, median width 64.
      {"fabric-mesh6",
       [] { return sz::circuits::make_mesh_interconnect(sz::circuits::MeshOptions{6, 6, 8}); },
       3.0},
      // Smoke-sized input for the benchmark's own tests.
      {"smoke", [] { return sz::circuits::make_table1_circuit("c432"); }, 3.0},
  };
  return all;
}

void write_design(const Workload& w, const std::string& path) {
  sz::core::Flow flow;
  if (const sz::Status s = flow.load_circuit(w.make_design()); !s.ok()) {
    throw std::runtime_error(w.name + ": " + s.message());
  }
  if (const sz::Status s = flow.write_verilog_file(path); !s.ok()) {
    throw std::runtime_error(path + ": " + s.message());
  }
}

/// The flow's baseline operating point as mapped Verilog: what serving loads.
void write_baseline(const std::string& design_path, const std::vector<std::uint16_t>& sizes,
                    const std::string& path) {
  sz::core::Flow flow;
  if (const sz::Status s = flow.load_verilog_file(design_path); !s.ok()) {
    throw std::runtime_error(design_path + ": " + s.message());
  }
  flow.timing().mutable_netlist().set_sizes(sizes);
  flow.timing().update();
  if (const sz::Status s = flow.write_verilog_file(path); !s.ok()) {
    throw std::runtime_error(path + ": " + s.message());
  }
}

/// Result digests must repeat across runs: the sizes and moments for every
/// seed, the yields for the same seed. The first run of a key records it.
void check_digest(const std::string& out_dir, const std::string& key, const std::string& value,
                  Report& report) {
  const std::string path = out_dir + "/digests.txt";
  std::map<std::string, std::string> known;
  {
    std::ifstream in(path);
    std::string k, v;
    while (in >> k >> v) known[k] = v;
  }
  const auto it = known.find(key);
  report.check(it == known.end() || it->second == value,
               "digest " + key + " changed: " + (it == known.end() ? "" : it->second) + " -> " +
                   value);
  if (it == known.end()) std::ofstream(path, std::ios::app) << key << ' ' << value << '\n';
}

/// Median cost of opening and closing one span, on a tracer of its own.
double span_cost_s() {
  Tracer scratch;
  std::vector<double> per_span;
  for (int rep = 0; rep < 9; ++rep) {
    constexpr int kSpans = 2000;
    const double t0 = now_s();
    for (int i = 0; i < kSpans; ++i) Tracer::Scope s(scratch, "overhead");
    per_span.push_back((now_s() - t0) / kSpans);
  }
  return median(per_span);
}

void flow_gates(const RunConfig& cfg, const FlowOutcome& f, Report& report) {
  check_digest(cfg.out_dir, cfg.workload.name + "/design", f.design_digest(), report);
  check_digest(cfg.out_dir, cfg.workload.name + "/seed" + std::to_string(cfg.seed) + "/yield",
               f.yield_digest(), report);
  report.check(f.record.sigma_change < 0.0,
               "sigma not reduced: change " + std::to_string(f.record.sigma_change));
  // An estimator that saw no failing draw reports a standard error of about
  // 0, and ISLE on a deep design sees only a few among ~1000 effective draws.
  // So each side's standard error is floored at the binomial one of the
  // pooled failure probability over its effective draws (ISLE's ESS; MC's
  // draws), which keeps false alarms near 1e-6 per run.
  const sz::ssta::IsleResult& isle = f.isle_base.result;
  const sz::ssta::IsleResult& mc = f.mc_base.result;
  const double pooled = (isle.failure_probability * isle.ess + mc.failure_probability * mc.ess) /
                        (isle.ess + mc.ess);
  const auto floored = [pooled](const sz::ssta::IsleResult& r) {
    return std::max(r.std_error, std::sqrt(pooled * (1.0 - pooled) / r.ess));
  };
  const double se = std::hypot(floored(isle), floored(mc));
  const double gap = std::abs(isle.yield - mc.yield);
  report.check(gap <= 3.0 * se, "isle yield " + std::to_string(f.isle_base.yield()) +
                                    " not within 3 SE (" + std::to_string(se) + ") of mc " +
                                    std::to_string(f.mc_base.yield()));
}

Json context(const RunConfig& cfg) {
  const sz::core::FlowOptions flow = flow_options(cfg.seed);
  const sz::serve::ServerOptions server;
  Json c;
  c["workload"] = cfg.workload.name;
  c["seed"] = cfg.seed;
  c["seconds"] = cfg.seconds;
  c["trace"] = cfg.trace;
  c["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  c["build_type"] = PERFBENCH_BUILD_TYPE;
  c["compiler"] = std::string("gcc ") + __VERSION__;
#ifdef __GLIBCXX__
  c["stdlib"] = "libstdc++ " + std::to_string(__GLIBCXX__);
#else
  c["stdlib"] = "unknown";
#endif
  Json threads;
  threads["sizer"] = flow.sizer_threads;
  threads["isle"] = flow.isle.threads;
  threads["fullssta"] = flow.fullssta.threads;
  threads["timing_update"] = flow.timing.threads;
  threads["drc"] = flow.drc.threads;
  threads["server_workers"] = server.threads;
  threads["serve_clients"] = cfg.clients;
  c["threads"] = threads;
  return c;
}

double span_seconds(const std::vector<SpanRecord>& spans, const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

void run_untraced(const RunConfig& cfg, const std::string& design_path, Report& report) {
  // Set-ups in batches of 20 before, between the phases of, and after the
  // flows, and setup_s is the median of the fastest batch. The 4-vCPU
  // development host switches between a fast state and one about 40% slower
  // for seconds at a time, so the median over all of a run's set-ups lands in
  // either state: it spread 39% over ten runs. One set-up takes 8-18 ms.
  std::vector<double> batch_medians;
  const auto set_up = [&] {
    std::vector<double> times;
    for (int rep = 0; rep < 20; ++rep) {
      const double t0 = now_s();
      sz::core::Flow flow(flow_options(cfg.seed));
      if (!flow.load_verilog_file(design_path).ok() || flow.preflight().has_errors()) {
        throw std::runtime_error("flow setup failed on " + design_path);
      }
      times.push_back(now_s() - t0);
    }
    batch_medians.push_back(median(times));
  };
  set_up();

  // Whole flows, repeated while another one fits in the run's time.
  std::vector<FlowOutcome> flows;
  const double start = now_s();
  do {
    report.attempt();
    flows.push_back(run_flow(design_path, cfg.workload.lambda, cfg.seed, set_up));
    flow_gates(cfg, flows.back(), report);
  } while (now_s() - start + flows.back().flow_s <= cfg.seconds);
  set_up();

  const auto med = [&flows](double FlowOutcome::*field) {
    std::vector<double> v;
    for (const FlowOutcome& f : flows) v.push_back(f.*field);
    return median(v);
  };
  const FlowOutcome& f = flows.front();
  report.add("flow_s", med(&FlowOutcome::flow_s), "s");
  report.note("phases (median s): baseline " + std::to_string(med(&FlowOutcome::baseline_s)) +
              ", optimize " + std::to_string(med(&FlowOutcome::optimize_s)) + ", yield " +
              std::to_string(med(&FlowOutcome::yield_s)));
  report.add("sigma_reduction_pct", -100.0 * f.record.sigma_change, "%");
  report.add("area_increase_pct", 100.0 * f.record.area_change, "%");
  report.add("setup_s", *std::min_element(batch_medians.begin(), batch_medians.end()), "s");
  report.note("flows: " + std::to_string(flows.size()));
}

void run_traced(const RunConfig& cfg, const std::string& design_path, Tracer& tracer,
                Report& report) {
  // The staged replay shares its digests with this build's untraced runs, so
  // it must reproduce them bitwise whichever of the two runs first.
  report.attempt();
  const FlowOutcome staged = run_flow_staged(design_path, cfg.workload.lambda, cfg.seed, tracer);
  flow_gates(cfg, staged, report);

  // Tracing overhead is measured, not taken as the difference from an
  // untraced flow: run-to-run noise in a whole flow is seconds, while its few
  // dozen spans cost microseconds.
  const std::vector<SpanRecord> spans = tracer.spans();
  std::uint64_t root = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "flow" && s.parent == 0) root = s.id;
  }
  double covered = 0.0;
  for (const SpanRecord& s : spans) {
    if (root != 0 && s.parent == root) covered += s.seconds();
  }
  const double coverage = 100.0 * covered / staged.flow_s;
  report.check(coverage >= 95.0,
               "top-level flow spans cover only " + std::to_string(coverage) + "% of flow_s");
  report.add("trace.coverage_pct", coverage, "%");
  report.add("flow.baseline_s", staged.baseline_s, "s");
  report.add("flow.optimize_s", staged.optimize_s, "s");
  report.add("flow.yield_s", staged.yield_s, "s");
  report.add("trace.overhead_s", static_cast<double>(spans.size()) * span_cost_s(), "s");

  for (const char* phase : {"initial_sizing", "tilos", "polish", "recovery", "repolish", "sizer",
                            "stat_recovery"}) {
    report.add(std::string("opt.") + phase + "_s", span_seconds(spans, std::string("opt.") + phase),
               "s");
  }
  const sz::opt::StatisticalSizerStats& sizer = staged.sizer;
  sz::opt::AreaRecoveryStats rec = staged.baseline_recovery;
  rec.screen_trials += staged.recovery.screen_trials;
  rec.downsizes += staged.recovery.downsizes;
  rec.exact_verifications += staged.recovery.exact_verifications;
  rec.chunk_rollbacks += staged.recovery.chunk_rollbacks;
  const auto count = [&report](const char* name, std::size_t v) {
    report.add(name, static_cast<double>(v), "count");
  };
  count("opt.sizer_iterations", sizer.iterations);
  count("opt.sizer_candidates", sizer.fassta_evaluations);
  count("opt.sizer_resizes", sizer.resizes);
  count("opt.sizer_exact_resizes", sizer.exact_resizes);
  count("opt.recovery_screen_trials", rec.screen_trials);
  count("opt.recovery_downsizes", rec.downsizes);
  count("opt.recovery_exact_verifications", rec.exact_verifications);
  count("opt.recovery_chunk_rollbacks", rec.chunk_rollbacks);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report.add("opt.sizer_accept_ratio",
             ratio(static_cast<double>(sizer.resizes), static_cast<double>(sizer.fassta_evaluations)),
             "ratio");
  report.add("opt.recovery_accept_ratio",
             ratio(static_cast<double>(rec.downsizes), static_cast<double>(rec.screen_trials)),
             "ratio");
  report.add("opt.sizer_us_per_candidate",
             1e6 * ratio(span_seconds(spans, "opt.sizer"),
                         static_cast<double>(sizer.fassta_evaluations)),
             "us");

  const double isle_s = span_seconds(spans, "ssta.isle");
  const double isle_draws =
      static_cast<double>(staged.isle_base.draws() + staged.isle_final.draws());
  const double mc_s = span_seconds(spans, "ssta.mc");
  report.add("ssta.isle_ms", 1e3 * isle_s, "ms");
  report.add("ssta.isle_draws", isle_draws, "count");
  report.add("ssta.isle_us_per_draw", 1e6 * ratio(isle_s, isle_draws), "us");
  report.add("ssta.isle_ess_ratio",
             ratio(staged.isle_base.result.ess, static_cast<double>(staged.isle_base.draws())),
             "ratio");
  report.add("ssta.mc_ms", 1e3 * mc_s, "ms");
  report.add("ssta.mc_us_per_draw",
             1e6 * ratio(mc_s, static_cast<double>(staged.mc_base.draws())), "us");

  const std::string baseline_path = cfg.out_dir + "/" + cfg.workload.name + "-baseline.v";
  write_baseline(design_path, staged.baseline_sizes, baseline_path);
  const double idle_whatif_us =
      measure_layers(design_path, baseline_path, cfg.seed, tracer, report);
  // The protocol stream and its in-process replay get a third of the run's
  // time each, which keeps a traced run of the slowest workload within its
  // time limit on a slow host.
  RunConfig serve_cfg = cfg;
  serve_cfg.seconds = cfg.seconds / 3;
  measure_protocol(cfg, baseline_path, tracer, report);
  run_serve(serve_cfg, baseline_path, tracer, report);
  run_serve_inprocess(serve_cfg, baseline_path, idle_whatif_us, tracer, report);
}

int selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = percentile(v, 0.99);
  expect(p99.value == 990.0 && p99.beyond == 10 && p99.ok, "p99 of 1..1000");
  const Percentile p999 = percentile(v, 0.999);
  expect(p999.value == 990.0 && p999.beyond == 10 && p999.q == 0.99 && !p999.ok,
         "p99.9 of 1..1000 falls back to p99");
  expect(percentile(v, 0.5).value == 500.0, "p50 of 1..1000");
  expect(!percentile({}, 0.5).ok, "empty percentile");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({1.0, 2.0, 3.0, 4.0}) == 2.5, "median");
  Rng a(7), b(7);
  expect(a.next() == b.next() && derive_seed(7, 1) != derive_seed(7, 2), "rng determinism");
  // Self time: a parent [0,10] with children [1,3] and [2,5] has 6 s of its own.
  const std::vector<SpanRecord> spans = {
      {1, 0, "p", 0, 0.0, 10.0}, {2, 1, "c", 0, 1.0, 3.0}, {3, 1, "c", 1, 2.0, 5.0}};
  const std::vector<double> self = self_times(spans);
  expect(self[0] == 6.0 && self[1] == 2.0 && self[2] == 3.0, "self time");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

std::string arg_value(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return selftest();

  RunConfig cfg;
  const std::string name = arg_value(argc, argv, "--workload", "");
  bool known = false;
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      cfg.workload = w;
      known = true;
    }
  }
  cfg.out_dir = arg_value(argc, argv, "--out-dir", "");
  if (!known || cfg.out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  cfg.seed = std::strtoull(arg_value(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  cfg.seconds = std::strtod(arg_value(argc, argv, "--seconds", "10").c_str(), nullptr);
  cfg.trace = arg_value(argc, argv, "--trace", "0") == "1";
  cfg.clients = std::max(1u, std::thread::hardware_concurrency());
  ::mkdir(cfg.out_dir.c_str(), 0755);

  Tracer tracer;
  Report report;
  try {
    const std::string design_path = cfg.out_dir + "/" + cfg.workload.name + ".v";
    write_design(cfg.workload, design_path);
    if (cfg.trace) {
      run_traced(cfg, design_path, tracer, report);
    } else {
      run_untraced(cfg, design_path, report);
    }
  } catch (const std::exception& e) {
    report.attempt();
    report.fail(std::string("run aborted: ") + e.what());
  }
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("success_pct",
             report.attempted() > 0
                 ? 100.0 * static_cast<double>(report.attempted() - report.failed()) /
                       static_cast<double>(report.attempted())
                 : 0.0,
             "%");

  if (cfg.trace) {
    const std::string trace_path = cfg.out_dir + "/trace-" + cfg.workload.name + "-seed" +
                                   std::to_string(cfg.seed) + ".json";
    std::ofstream out(trace_path);
    tracer.write_chrome_json(out);
    std::ostringstream table;
    tracer.print_self_time(table);
    std::printf("# trace: %s\n", trace_path.c_str());
    std::istringstream lines(table.str());
    for (std::string line; std::getline(lines, line);) std::printf("# %s\n", line.c_str());
  }
  for (const std::string& n : report.notes()) std::printf("# %s\n", n.c_str());
  for (const std::string& f : report.failures()) std::printf("# FAILED: %s\n", f.c_str());

  Json result;
  result["correct"] = report.failed() == 0;
  result["attempted"] = static_cast<std::uint64_t>(report.attempted());
  result["failed"] = static_cast<std::uint64_t>(report.failed());
  Json metrics = Json::Object{};
  for (const Metric& m : report.metrics()) {
    Json entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = entry;
  }
  result["metrics"] = metrics;
  result["context"] = context(cfg);
  std::printf("%s\n", result.dump().c_str());
  return report.failed() == 0 ? 0 : 1;
}
