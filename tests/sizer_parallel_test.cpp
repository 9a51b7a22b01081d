// Parallel StatisticalGreedy: candidate scoring and each exact confirmation's
// FULLSSTA cone walk fan across the thread pool, and the contract (mirroring
// the parallel Monte-Carlo engine) is that the whole optimization — resize
// trajectory, stats, final sizes, final moments — is bitwise-identical for
// any thread count.
#include <memory>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "opt/initial_sizing.h"
#include "opt/sizer_statistical.h"
#include "ssta/fullssta.h"
#include "techmap/mapper.h"

namespace statsizer::opt {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

/// Wide balanced XOR fabric: thousands of near-identical paths, so per-gate
/// greedy stalls and the optimizer falls through to the global-sweep and
/// population-bump rescues.
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

struct RunResult {
  StatisticalSizerStats stats;
  std::vector<std::uint16_t> sizes;
  double final_mean_ps = 0.0;
  double final_sigma_ps = 0.0;
};

RunResult run_once(Netlist nl, double lambda, std::size_t threads) {
  Bench b(std::move(nl));
  (void)apply_initial_sizing(*b.ctx);
  StatisticalSizerOptions opt;
  opt.objective.lambda = lambda;
  opt.threads = threads;
  opt.record_trajectory = true;
  RunResult r;
  r.stats = size_statistically(*b.ctx, opt);
  r.sizes = b.nl.sizes();
  const auto full = ssta::run_fullssta(*b.ctx);
  r.final_mean_ps = full.mean_ps;
  r.final_sigma_ps = full.sigma_ps;
  return r;
}

void expect_identical(const RunResult& ref, const RunResult& r, std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  // The full trajectory: same moves, same order, same sources.
  EXPECT_EQ(r.stats.trajectory, ref.stats.trajectory);
  // Every counter the run reports.
  EXPECT_EQ(r.stats.iterations, ref.stats.iterations);
  EXPECT_EQ(r.stats.resizes, ref.stats.resizes);
  EXPECT_EQ(r.stats.fassta_evaluations, ref.stats.fassta_evaluations);
  EXPECT_EQ(r.stats.exact_resizes, ref.stats.exact_resizes);
  EXPECT_EQ(r.stats.global_sweeps, ref.stats.global_sweeps);
  EXPECT_EQ(r.stats.uniform_bump_rounds, ref.stats.uniform_bump_rounds);
  EXPECT_EQ(r.stats.constraints_met, ref.stats.constraints_met);
  // Bitwise-equal analysis results and final netlist state (EXPECT_EQ, not
  // EXPECT_DOUBLE_EQ: the contract is exact identity, not 4-ULP closeness).
  EXPECT_EQ(r.stats.initial.mean_ps, ref.stats.initial.mean_ps);
  EXPECT_EQ(r.stats.initial.sigma_ps, ref.stats.initial.sigma_ps);
  EXPECT_EQ(r.stats.final_.mean_ps, ref.stats.final_.mean_ps);
  EXPECT_EQ(r.stats.final_.sigma_ps, ref.stats.final_.sigma_ps);
  EXPECT_EQ(r.stats.final_.area_um2, ref.stats.final_.area_um2);
  EXPECT_EQ(r.final_mean_ps, ref.final_mean_ps);
  EXPECT_EQ(r.final_sigma_ps, ref.final_sigma_ps);
  EXPECT_EQ(r.sizes, ref.sizes);
}

TEST(SizerParallel, WnssPathCircuitIdenticalAcrossThreadCounts) {
  // A carry chain: WNSS-path-driven optimization, exercising the fast-engine
  // plan plus the exact rescue sweeps on the way to convergence.
  const auto ref = run_once(circuits::make_cla_adder(8), 3.0, 1);
  EXPECT_GT(ref.stats.resizes, 0u);
  EXPECT_GT(ref.stats.fassta_evaluations, 0u);
  // The run must reach past the plan stage into the exact rescue machinery,
  // otherwise this test would not cover the sweeps' determinism.
  EXPECT_GT(ref.stats.exact_resizes, 0u);
  for (const std::size_t threads : {2u, 8u, 0u}) {
    expect_identical(ref, run_once(circuits::make_cla_adder(8), 3.0, threads), threads);
  }
}

TEST(SizerParallel, BalancedFabricGlobalSweepIdenticalAcrossThreadCounts) {
  const auto ref = run_once(parity_fabric(16), 9.0, 1);
  EXPECT_GT(ref.stats.resizes, 0u);
  // The balanced fabric must stall single-gate greedy and reach the
  // netlist-wide rescue sweep (and typically the population bump too).
  EXPECT_GT(ref.stats.global_sweeps, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    expect_identical(ref, run_once(parity_fabric(16), 9.0, threads), threads);
  }
}

TEST(SizerParallel, OddSpeculationWindowsIdenticalToSerial) {
  // The thread count is the worker count of every confirmation's FULLSSTA
  // cone walk (util::dataflow_for) and of the candidate scoring: 3 and 5
  // workers split the cones' slots and the score arrays in ways no other
  // case does.
  const auto chain = run_once(circuits::make_cla_adder(8), 3.0, 1);
  const auto fabric = run_once(parity_fabric(16), 9.0, 1);
  ASSERT_GT(chain.stats.exact_resizes, 0u);
  ASSERT_GT(fabric.stats.global_sweeps, 0u);
  for (const std::size_t threads : {3u, 5u}) {
    expect_identical(chain, run_once(circuits::make_cla_adder(8), 3.0, threads), threads);
    expect_identical(fabric, run_once(parity_fabric(16), 9.0, threads), threads);
  }
}

TEST(SizerParallel, SubcircuitScoringModeIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    Bench b(circuits::make_ripple_adder(8));
    (void)apply_initial_sizing(*b.ctx);
    StatisticalSizerOptions opt;
    opt.objective.lambda = 3.0;
    opt.scoring = InnerScoring::kSubcircuit;
    opt.max_iterations = 8;
    opt.threads = threads;
    opt.record_trajectory = true;
    RunResult r;
    r.stats = size_statistically(*b.ctx, opt);
    r.sizes = b.nl.sizes();
    return r;
  };
  const auto ref = run(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto r = run(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.stats.trajectory, ref.stats.trajectory);
    EXPECT_EQ(r.stats.fassta_evaluations, ref.stats.fassta_evaluations);
    EXPECT_EQ(r.sizes, ref.sizes);
  }
}

TEST(SizerParallel, TrajectoryOffByDefault) {
  Bench b(circuits::make_ripple_adder(4));
  (void)apply_initial_sizing(*b.ctx);
  StatisticalSizerOptions opt;
  opt.max_iterations = 2;
  const auto stats = size_statistically(*b.ctx, opt);
  EXPECT_TRUE(stats.trajectory.empty());
}

}  // namespace
}  // namespace statsizer::opt
