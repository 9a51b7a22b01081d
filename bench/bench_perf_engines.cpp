// P1 — engine throughput microbenchmarks (google-benchmark): how much
// cheaper is FASSTA than FULLSSTA and Monte Carlo on real workloads. These
// ratios justify the paper's two-engine nesting.
//
// `--json <path>` writes the per-benchmark wall/CPU times as machine-
// readable JSON (google-benchmark's JSON schema) for the perf trajectory
// snapshots under scripts/bench_snapshot.sh.
#include <benchmark/benchmark.h>

#include <bit>
#include <string>
#include <vector>

#include "bench_main.h"
#include "circuits/generators.h"
#include "core/flow.h"
#include "drc/drc.h"
#include "fassta/engine.h"
#include "opt/wnss.h"
#include "ssta/canonical.h"
#include "ssta/fullssta.h"
#include "ssta/monte_carlo.h"
#include "timing/analyzer.h"
#include "util/thread_pool.h"

namespace {

using namespace statsizer;

/// Shared fixture: a baselined Table-1 workload per circuit name, or
/// "mesh6", perfbench's fabric-mesh6 design (a 6x6 mesh of 8-bit nodes).
core::Flow& flow_for(const std::string& name) {
  static std::map<std::string, std::unique_ptr<core::Flow>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto flow = std::make_unique<core::Flow>();
    const Status s =
        name == "mesh6"
            ? flow->load_circuit(circuits::make_mesh_interconnect(circuits::MeshOptions{6, 6, 8}))
            : flow->load_table1(name);
    if (!s.ok()) {
      throw std::runtime_error(s.message());
    }
    (void)flow->run_baseline();
    it = cache.emplace(name, std::move(flow)).first;
  }
  return *it->second;
}

/// Lightweight fixture for the propagation-kernel benches: a mapped Table-1
/// workload with no optimizer passes (run_fullssta and DRC cost do not
/// depend on the sizing state).
core::Flow& raw_flow_for(const std::string& name) {
  static std::map<std::string, std::unique_ptr<core::Flow>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto flow = std::make_unique<core::Flow>();
    if (const Status s = flow->load_table1(name); !s.ok()) {
      throw std::runtime_error(s.message());
    }
    it = cache.emplace(name, std::move(flow)).first;
  }
  return *it->second;
}

void BM_Fassta(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  const fassta::Engine engine(flow.timing());
  for (auto _ : state) {
    sta::NodeMoments m;
    benchmark::DoNotOptimize(engine.run(&m));
    benchmark::DoNotOptimize(m);
  }
  state.SetLabel(std::to_string(flow.netlist().logic_gate_count()) + " gates");
}

void BM_FasstaCandidate(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  const fassta::Engine engine(flow.timing());
  // Representative inner-loop call: re-scoring one candidate size.
  const auto g = flow.netlist().outputs()[0].driver;
  const auto& cell = flow.timing().cell(g);
  fassta::Engine::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_with_candidate(g, cell, scratch));
  }
}

/// Plan scoring, the sizer's largest CPU consumer, two ways over the
/// baselined workload's WNSS path gates (the sizer's first plan), fanned
/// across state.range(1) workers one gate per chunk:
///   state.range(0) == 0: one run_with_candidate() call per (gate, size);
///   state.range(0) == 1: one run_with_candidates() walk per gate over its
///     other sizes, the current size read from base_circuit() (the sizer).
/// A one-shot check asserts both ways agree bitwise. The counters are exact
/// per-pass counts, identical run to run: cone_nodes (cone nodes walked) and
/// lane_nodes (node x lane evaluations), so the work a change removes can be
/// read apart from host noise.
void BM_FasstaGateScoring(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  const auto& ctx = flow.timing();
  const auto& nl = flow.netlist();
  const auto& lib = flow.library();
  const fassta::Engine engine(ctx);
  const std::vector<netlist::GateId> gates =
      opt::trace_wnss(ctx, ssta::run_fullssta(ctx, flow.options().fullssta).node).path;
  std::vector<std::size_t> offsets;  // gate i's scores: [offsets[i], offsets[i + 1])
  offsets.push_back(0);
  for (const netlist::GateId g : gates) {
    offsets.push_back(offsets.back() + lib.group(nl.gate(g).cell_group).size_count());
  }
  const bool use_lanes = state.range(0) != 0;
  const auto threads = static_cast<std::size_t>(state.range(1));

  // Scores gate i at every size into scores[offsets[i]...]; returns the walk's
  // (cone nodes, node x lane evaluations).
  const auto score_gate = [&](std::size_t i, bool lanes, std::vector<sta::NodeMoments>& scores) {
    thread_local fassta::Engine::Scratch scratch;
    thread_local std::vector<const liberty::Cell*> cells;
    thread_local std::vector<sta::NodeMoments> out;
    const netlist::Gate& gate = nl.gate(gates[i]);
    const std::size_t sizes = offsets[i + 1] - offsets[i];
    std::pair<std::size_t, std::size_t> work{0, 0};
    if (!lanes) {
      for (std::uint16_t s = 0; s < sizes; ++s) {
        scores[offsets[i] + s] =
            engine.run_with_candidate(gates[i], lib.cell_for(gate.cell_group, s), scratch);
        work.first += sta::thread_cone_workspace().nodes.size();
      }
      work.second = work.first;
      return work;
    }
    cells.clear();
    for (std::uint16_t s = 0; s < sizes; ++s) {
      if (s != gate.size_index) cells.push_back(&lib.cell_for(gate.cell_group, s));
    }
    out.resize(cells.size());
    engine.run_with_candidates(gates[i], cells, out, scratch);
    for (std::uint16_t s = 0, k = 0; s < sizes; ++s) {
      scores[offsets[i] + s] = s == gate.size_index ? engine.base_circuit() : out[k++];
    }
    work.first = sta::thread_cone_workspace().nodes.size();
    for (std::size_t n = 0; n < work.first; ++n) {
      work.second += static_cast<std::size_t>(std::popcount(scratch.slots[n].reached));
    }
    return work;
  };
  const auto score_all = [&](bool lanes, std::size_t workers) {
    std::vector<sta::NodeMoments> scores(offsets.back());
    util::parallel_for(gates.size(), 1, workers,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) (void)score_gate(i, lanes, scores);
                       });
    return scores;
  };

  const auto reference = score_all(false, 1);
  const auto mine = score_all(use_lanes, threads);
  for (std::size_t j = 0; j < reference.size(); ++j) {
    if (std::bit_cast<std::uint64_t>(mine[j].mean_ps) !=
            std::bit_cast<std::uint64_t>(reference[j].mean_ps) ||
        std::bit_cast<std::uint64_t>(mine[j].sigma_ps) !=
            std::bit_cast<std::uint64_t>(reference[j].sigma_ps)) {
      state.SkipWithError("gate scoring diverged from one call per size");
      return;
    }
  }
  std::vector<sta::NodeMoments> sink(offsets.back());
  std::size_t cone_nodes = 0;
  std::size_t lane_nodes = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const auto [nodes, evaluations] = score_gate(i, use_lanes, sink);
    cone_nodes += nodes;
    lane_nodes += evaluations;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(score_all(use_lanes, threads));
  }
  state.counters["gates"] = static_cast<double>(gates.size());
  state.counters["candidates"] = static_cast<double>(offsets.back());
  state.counters["cone_nodes"] = static_cast<double>(cone_nodes);
  state.counters["lane_nodes"] = static_cast<double>(lane_nodes);
  state.SetLabel(use_lanes ? "one lane walk per gate" : "one call per size");
}

/// The full FULLSSTA pass: one serial topological walk. The c880, c6288
/// and mesh8 points are the serial baseline a parallel schedule must beat.
void BM_Fullssta(benchmark::State& state, const std::string& name) {
  auto& flow = raw_flow_for(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta::run_fullssta(flow.timing()));
  }
}

void BM_Canonical(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta::run_canonical(flow.timing()));
  }
}

void BM_MonteCarlo1k(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  ssta::MonteCarloOptions opt;
  opt.samples = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta::run_monte_carlo(flow.timing(), opt));
  }
}

/// Parallel Monte-Carlo scaling: state.range(0) worker threads, plus a
/// one-shot check that every thread count reproduces the 1-thread result
/// bitwise (counter-based per-sample RNG streams).
void BM_MonteCarloThreads(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  ssta::MonteCarloOptions opt;
  opt.samples = 4000;
  opt.threads = static_cast<std::size_t>(state.range(0));

  ssta::MonteCarloOptions serial = opt;
  serial.threads = 1;
  const auto reference = ssta::run_monte_carlo(flow.timing(), serial);
  const auto parallel = ssta::run_monte_carlo(flow.timing(), opt);
  if (parallel.mean_ps != reference.mean_ps || parallel.sigma_ps != reference.sigma_ps ||
      parallel.circuit_samples != reference.circuit_samples) {
    state.SkipWithError("parallel Monte Carlo diverged from the serial reference");
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta::run_monte_carlo(flow.timing(), opt));
  }
  state.SetLabel("mean=" + std::to_string(reference.mean_ps) +
                 "ps sigma=" + std::to_string(reference.sigma_ps) + "ps");
}

/// Parallel StatisticalGreedy scaling: candidate scoring fans across
/// state.range(0) workers, with a one-shot check that every thread count
/// reproduces the 1-thread run bitwise (trajectory, stats, final sizes).
/// Each iteration restores the baseline sizes so successive runs optimize
/// the same starting point.
void BM_SizerThreads(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  const auto baseline_sizes = flow.netlist().sizes();

  opt::StatisticalSizerOptions opt;
  opt.objective.lambda = 3.0;
  opt.max_iterations = 3;  // a few plan rounds: scoring-dominated, bench-sized
  const auto run_with = [&](std::size_t threads) {
    flow.timing().mutable_netlist().set_sizes(baseline_sizes);
    flow.timing().update();
    auto o = opt;
    o.threads = threads;
    return opt::size_statistically(flow.timing(), o);
  };

  const auto reference = run_with(1);
  const auto ref_sizes = flow.netlist().sizes();
  const auto parallel = run_with(static_cast<std::size_t>(state.range(0)));
  if (parallel.resizes != reference.resizes ||
      parallel.fassta_evaluations != reference.fassta_evaluations ||
      parallel.final_.mean_ps != reference.final_.mean_ps ||
      parallel.final_.sigma_ps != reference.final_.sigma_ps ||
      flow.netlist().sizes() != ref_sizes) {
    state.SkipWithError("parallel sizer diverged from the serial reference");
    flow.timing().mutable_netlist().set_sizes(baseline_sizes);
    flow.timing().update();
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(run_with(static_cast<std::size_t>(state.range(0))));
  }
  state.SetLabel(std::to_string(reference.fassta_evaluations) + " fassta evals/run");

  // Leave the shared fixture at its baseline point for later benchmarks.
  flow.timing().mutable_netlist().set_sizes(baseline_sizes);
  flow.timing().update();
}

/// Parallel speculative FULLSSTA confirmation — the rescue-sweep pattern:
/// one wave of what-if speculations (every alternative size of the gates
/// with the fattest arc sigmas) is scored across state.range(0) workers
/// through timing::Analyzer, with a one-shot check that every thread count
/// reproduces the 1-thread scores bitwise (each speculation re-propagates
/// only its fanout cone against a private overlay; the shared base is
/// read-only).
void BM_WhatIfConfirm(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  const auto analyzer = flow.make_analyzer("fullssta");
  (void)analyzer->analyze(flow.timing());

  // The wave: all alternative sizes of the 16 gates with the worst arc
  // sigmas (what a global rescue sweep confirms).
  const auto& nl = flow.netlist();
  const auto& ctx = flow.timing();
  std::vector<netlist::GateId> gates;
  for (netlist::GateId g = 0; g < nl.node_count(); ++g) {
    if (flow.timing().has_cell(g)) gates.push_back(g);
  }
  std::vector<double> worst_sigma(nl.node_count(), 0.0);
  for (const netlist::GateId g : gates) {
    for (std::size_t i = 0; i < nl.gate(g).fanins.size(); ++i) {
      worst_sigma[g] = std::max(worst_sigma[g], ctx.arc_sigma_ps(g, i));
    }
  }
  // Gate-id tie-break: identical instances tie on sigma, and the wave must
  // be the same on every platform for the numbers to be comparable.
  std::sort(gates.begin(), gates.end(), [&](netlist::GateId a, netlist::GateId b) {
    if (worst_sigma[a] != worst_sigma[b]) return worst_sigma[a] > worst_sigma[b];
    return a < b;
  });
  gates.resize(std::min<std::size_t>(gates.size(), 16));
  std::vector<timing::Resize> wave;
  for (const netlist::GateId g : gates) {
    const auto& group = flow.library().group(nl.gate(g).cell_group);
    for (std::uint16_t s = 0; s < group.size_count(); ++s) {
      if (s != nl.gate(g).size_index) wave.push_back(timing::Resize{g, s});
    }
  }

  const auto score_wave = [&](std::size_t threads) {
    std::vector<std::unique_ptr<timing::Speculation>> specs(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      specs[i] = analyzer->propose(wave[i].gate, wave[i].size);
    }
    std::vector<double> costs(wave.size());
    util::parallel_for(wave.size(), 1, threads,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) {
                           const timing::Summary& s = specs[i]->score();
                           costs[i] = s.mean_ps + 3.0 * s.sigma_ps;
                         }
                       });
    return costs;
  };

  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const auto reference = score_wave(1);
  if (score_wave(threads) != reference) {
    state.SkipWithError("parallel what-if scores diverged from the serial reference");
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(score_wave(threads));
  }
  state.SetLabel(std::to_string(wave.size()) + " speculations/wave");
}

/// Parallel area recovery — the constrained-mode cleanup on the analyzer
/// what-if API: screening waves of per-gate downsize speculations fan across
/// state.range(0) workers (each holds a private fanout-cone overlay),
/// commits apply serially in descending-area order, and every kChunk
/// accepted downsizes are re-verified by one atomic multi-resize FULLSSTA
/// speculation. A one-shot check re-asserts that every thread count
/// reproduces the 1-thread run bitwise (sizes, stats, final summary).
void BM_AreaRecoveryThreads(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  const auto baseline_sizes = flow.netlist().sizes();

  opt::AreaRecoveryOptions opt;
  opt.criterion = opt::RecoveryCriterion::kStatisticalCost;
  opt.objective.lambda = 3.0;
  opt.tolerance = 0.01;  // enough budget for a bench-sized downsize stream
  opt.sigma_tolerance = 0.05;
  opt.fullssta = flow.options().fullssta;
  const auto run_with = [&](std::size_t threads) {
    flow.timing().mutable_netlist().set_sizes(baseline_sizes);
    flow.timing().update();
    auto o = opt;
    o.threads = threads;
    return opt::recover_area(flow.timing(), o);
  };

  const auto reference = run_with(1);
  const auto ref_sizes = flow.netlist().sizes();
  const auto parallel = run_with(static_cast<std::size_t>(state.range(0)));
  if (parallel.downsizes != reference.downsizes ||
      parallel.screen_trials != reference.screen_trials ||
      parallel.area_after_um2 != reference.area_after_um2 ||
      parallel.final_summary.mean_ps != reference.final_summary.mean_ps ||
      parallel.final_summary.sigma_ps != reference.final_summary.sigma_ps ||
      flow.netlist().sizes() != ref_sizes) {
    state.SkipWithError("parallel area recovery diverged from the serial reference");
    flow.timing().mutable_netlist().set_sizes(baseline_sizes);
    flow.timing().update();
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(run_with(static_cast<std::size_t>(state.range(0))));
  }
  state.SetLabel(std::to_string(reference.downsizes) + " downsizes, " +
                 std::to_string(reference.screen_trials) + " screen trials/run");

  // Leave the shared fixture at its baseline point for later benchmarks.
  flow.timing().mutable_netlist().set_sizes(baseline_sizes);
  flow.timing().update();
}

void BM_TimingUpdate(benchmark::State& state, const std::string& name) {
  auto& flow = flow_for(name);
  for (auto _ : state) {
    flow.timing().update();
  }
}

// ---------------------------------------------------------------------------
// Importance-sampled yield: draws-to-target-CI, ISLE vs plain Monte Carlo.
// ---------------------------------------------------------------------------

/// Yield-estimation fixture: a mapped workload under the inter-die variation
/// scenario ISLE targets (half the systematic variance global). No optimizer
/// passes — the estimators' cost does not depend on the sizing state.
core::Flow& yield_flow_for(const std::string& name) {
  static std::map<std::string, std::unique_ptr<core::Flow>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    core::FlowOptions options;
    options.variation.global_fraction = 0.5;
    auto flow = std::make_unique<core::Flow>(options);
    if (const Status s = flow->load_table1(name); !s.ok()) {
      throw std::runtime_error(s.message());
    }
    it = cache.emplace(name, std::move(flow)).first;
  }
  return *it->second;
}

/// Shared configuration for the two yield benches: a deep-tail clock and the
/// matched adaptive target both estimators must reach. Only `proposal`
/// differs between them. The clock is calibrated from a fixed-seed 1024-draw
/// plain-MC pilot (the surrogate underestimates mesh8's spread, which would
/// park the tail at p ~ 7e-2 where any proposal is as good as nominal):
/// T = pilot mean + 3 sigma pins the true p_fail near 1.3e-3 on every
/// workload, and the 5e-4 target then makes the MC baseline need
/// p(1-p)/se^2 ~ 5k draws — a tail deep enough that the proposal is doing
/// the work, shallow enough that the baseline stays runnable on mesh8.
ssta::IsleOptions yield_bench_options(core::Flow& flow, ssta::IsleProposal proposal) {
  ssta::IsleOptions pilot;
  pilot.samples = 1024;
  pilot.proposal = ssta::IsleProposal::kNominal;
  const ssta::IsleResult s = ssta::run_isle(flow.timing(), pilot);

  ssta::IsleOptions opt;
  opt.proposal = proposal;
  opt.clock_period_ps = s.weighted_mean_ps + 3.0 * s.weighted_sigma_ps;
  opt.target_yield_se = 5e-4;
  opt.min_draws = 64;
  opt.batch = 64;
  opt.samples = 65536;  // adaptive cap
  return opt;
}

/// One adaptive ISLE estimate per iteration, with a one-shot check that the
/// sharded sampler is bitwise-identical to the serial one (estimate, draws,
/// per-draw weights and delays).
void BM_IsleYield(benchmark::State& state, const std::string& name) {
  auto& flow = yield_flow_for(name);
  ssta::IsleOptions opt = yield_bench_options(flow, ssta::IsleProposal::kImportance);
  opt.threads = 1;
  const ssta::IsleResult reference = ssta::run_isle(flow.timing(), opt);
  opt.threads = 4;
  const ssta::IsleResult parallel = ssta::run_isle(flow.timing(), opt);
  if (parallel.yield != reference.yield || parallel.std_error != reference.std_error ||
      parallel.draws != reference.draws || parallel.weights != reference.weights ||
      parallel.delay_samples != reference.delay_samples) {
    state.SkipWithError("parallel ISLE diverged from the serial reference");
    return;
  }
  opt.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssta::run_isle(flow.timing(), opt));
  }
  state.counters["draws"] = static_cast<double>(reference.draws);
  state.counters["yield_se"] = reference.std_error;
  state.SetLabel("p_fail=" + std::to_string(reference.failure_probability) +
                 " draws=" + std::to_string(reference.draws));
}

/// Full static design-rule sweep (structural + binding + electrical + SDC
/// screen), serial.
void BM_DrcFullSweep(benchmark::State& state, const std::string& name) {
  auto& flow = raw_flow_for(name);
  std::size_t findings = 0;
  for (auto _ : state) {
    const drc::DrcReport report = drc::run_drc(flow.timing());
    findings = report.diagnostics.size();
    benchmark::DoNotOptimize(findings);
  }
  state.SetLabel(std::to_string(flow.netlist().logic_gate_count()) + " gates, " +
                 std::to_string(findings) + " findings");
}

/// The same adaptive loop with the nominal proposal (= plain Monte Carlo,
/// bitwise; see IsleYield.NominalProposalIsBitwisePlainMonteCarlo): the
/// draws-to-target-CI baseline ISLE is measured against.
void BM_PlainMcYield(benchmark::State& state, const std::string& name) {
  auto& flow = yield_flow_for(name);
  const ssta::IsleOptions opt = yield_bench_options(flow, ssta::IsleProposal::kNominal);
  ssta::IsleResult last;
  for (auto _ : state) {
    last = ssta::run_isle(flow.timing(), opt);
    benchmark::DoNotOptimize(last);
  }
  state.counters["draws"] = static_cast<double>(last.draws);
  state.counters["yield_se"] = last.std_error;
  state.SetLabel("p_fail=" + std::to_string(last.failure_probability) +
                 " draws=" + std::to_string(last.draws));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Fassta, alu2, std::string("alu2"));
BENCHMARK_CAPTURE(BM_Fassta, c880, std::string("c880"));
BENCHMARK_CAPTURE(BM_FasstaCandidate, c880, std::string("c880"));
// Plan scoring per call vs per gate at 1 and 4 workers. The committed
// snapshot point is scripts/bench_snapshot.sh BENCH_fassta_scoring.json.
BENCHMARK_CAPTURE(BM_FasstaGateScoring, c6288, std::string("c6288"))
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->ArgNames({"lanes", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FasstaGateScoring, mesh6, std::string("mesh6"))
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->ArgNames({"lanes", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fullssta, alu2, std::string("alu2"));
BENCHMARK_CAPTURE(BM_Fullssta, c880, std::string("c880"));
BENCHMARK_CAPTURE(BM_Fullssta, c6288, std::string("c6288"))->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fullssta, mesh8, std::string("mesh8"))->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Canonical, c880, std::string("c880"));
BENCHMARK_CAPTURE(BM_MonteCarlo1k, c880, std::string("c880"));
BENCHMARK_CAPTURE(BM_MonteCarloThreads, c880, std::string("c880"))
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SizerThreads, c880, std::string("c880"))
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WhatIfConfirm, c880, std::string("c880"))
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AreaRecoveryThreads, c880, std::string("c880"))
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TimingUpdate, c880, std::string("c880"));
// Preflight cost on real workloads: the DRC must stay cheap enough to run
// on every load. The committed snapshot point is
// scripts/bench_snapshot.sh BENCH_drc_sweep.json.
BENCHMARK_CAPTURE(BM_DrcFullSweep, c880, std::string("c880"))
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DrcFullSweep, mesh8, std::string("mesh8"))
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DrcFullSweep, mul64, std::string("mul64"))
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
// Draws-to-target-CI head-to-head: both estimators run the identical
// adaptive loop to the same standard-error target; the draws/yield_se
// counters (not just the wall time) are the result. mesh8 is the committed
// snapshot point (scripts/bench_snapshot.sh BENCH_isle_yield.json).
BENCHMARK_CAPTURE(BM_IsleYield, c880, std::string("c880"))->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlainMcYield, c880, std::string("c880"))->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_IsleYield, mesh8, std::string("mesh8"))->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlainMcYield, mesh8, std::string("mesh8"))->Unit(benchmark::kMillisecond);

// --json / --context main (bench/bench_main.h).
int main(int argc, char** argv) { return statsizer::bench::run_benchmarks(argc, argv); }
