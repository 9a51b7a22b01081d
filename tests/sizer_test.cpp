#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "opt/area_recovery.h"
#include "opt/initial_sizing.h"
#include "opt/sizer_deterministic.h"
#include "opt/sizer_statistical.h"
#include "sta/dsta.h"
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

// ---------------------------------------------------------------------------
// initial sizing
// ---------------------------------------------------------------------------

TEST(InitialSizing, BoundsElectricalFanout) {
  Bench b(circuits::make_cla_adder(16));
  InitialSizingOptions opt;
  opt.target_electrical_fanout = 4.0;
  (void)apply_initial_sizing(*b.ctx, opt);
  // After sizing, no gate that has headroom left should see electrical
  // fanout wildly above target.
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto& group = b.lib.group(b.nl.gate(id).cell_group);
    if (b.nl.gate(id).size_index + 1u < group.size_count()) continue;  // saturated
    // saturated gates may exceed target; skip.
  }
  // It converges: re-running changes nothing.
  const auto again = apply_initial_sizing(*b.ctx, opt);
  EXPECT_EQ(again.changed_gates, 0u);
}

TEST(InitialSizing, ReducesCriticalDelayVersusAllMinimum) {
  Bench b(circuits::make_cla_adder(16));
  const double before = run_dsta(*b.ctx).max_arrival_ps;
  (void)apply_initial_sizing(*b.ctx);
  const double after = run_dsta(*b.ctx).max_arrival_ps;
  EXPECT_LT(after, before);
}

// ---------------------------------------------------------------------------
// deterministic (TILOS-style) sizer
// ---------------------------------------------------------------------------

TEST(DeterministicSizer, ImprovesOrHoldsArrival) {
  Bench b(circuits::make_cla_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  const double before = run_dsta(*b.ctx).max_arrival_ps;
  const DeterministicSizerStats stats = size_for_mean_delay(*b.ctx);
  const double after = run_dsta(*b.ctx).max_arrival_ps;
  EXPECT_LE(after, before + 1e-9);
  EXPECT_NEAR(stats.final_arrival_ps, after, 1e-9);
  EXPECT_GE(stats.passes, 1u);
}

TEST(DeterministicSizer, NeverWorsensOnAnyGenerator) {
  const auto try_one = [](Netlist nl) {
    Bench b(std::move(nl));
    (void)apply_initial_sizing(*b.ctx);
    const double before = run_dsta(*b.ctx).max_arrival_ps;
    (void)size_for_mean_delay(*b.ctx);
    EXPECT_LE(run_dsta(*b.ctx).max_arrival_ps, before + 1e-9) << b.nl.name();
  };
  try_one(circuits::make_ripple_adder(12));
  try_one(circuits::make_interrupt_controller(18, 3));
  try_one(circuits::make_hamming_sec(8));
}

// Only kept resizes count. On this decoder the first batch overshoots and is
// reverted, so nothing is kept; on the carry-lookahead adder every pass is
// kept, and each changed gate was resized at least once.
TEST(DeterministicSizer, CountsOnlyKeptResizes) {
  Bench b(circuits::make_hamming_sec(8));
  (void)apply_initial_sizing(*b.ctx);
  const std::vector<std::uint16_t> sizes = b.nl.sizes();
  const DeterministicSizerStats reverted = size_for_mean_delay(*b.ctx);
  EXPECT_EQ(reverted.passes, 0u);
  EXPECT_EQ(reverted.resizes, 0u);
  EXPECT_EQ(b.nl.sizes(), sizes);
  EXPECT_EQ(reverted.final_arrival_ps, reverted.initial_arrival_ps);

  Bench kept(circuits::make_cla_adder(8));
  (void)apply_initial_sizing(*kept.ctx);
  const std::vector<std::uint16_t> before = kept.nl.sizes();
  const DeterministicSizerStats stats = size_for_mean_delay(*kept.ctx);
  const std::vector<std::uint16_t> after = kept.nl.sizes();
  std::size_t changed = 0;
  for (std::size_t g = 0; g < before.size(); ++g) changed += after[g] != before[g];
  EXPECT_GT(changed, 0u);
  EXPECT_GE(stats.resizes, changed);
  EXPECT_LT(stats.final_arrival_ps, stats.initial_arrival_ps);
}

// ---------------------------------------------------------------------------
// statistical sizer
// ---------------------------------------------------------------------------

TEST(StatisticalSizer, NeverWorsensObjective) {
  Bench b(circuits::make_cla_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  for (const double lambda : {0.0, 3.0, 9.0}) {
    StatisticalSizerOptions opt;
    opt.objective.lambda = lambda;
    opt.max_iterations = 10;
    const auto full_before = ssta::run_fullssta(*b.ctx);
    const double cost_before =
        full_before.mean_ps + lambda * full_before.sigma_ps;
    const StatisticalSizerStats stats = size_statistically(*b.ctx, opt);
    const auto full_after = ssta::run_fullssta(*b.ctx);
    const double cost_after = full_after.mean_ps + lambda * full_after.sigma_ps;
    EXPECT_LE(cost_after, cost_before + 1e-6) << "lambda " << lambda;
    EXPECT_NEAR(stats.final_.mean_ps, full_after.mean_ps, 1e-9);
  }
}

TEST(StatisticalSizer, HighLambdaReducesSigma) {
  Bench b(circuits::make_cla_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  (void)size_for_mean_delay(*b.ctx);
  AreaRecoveryOptions rec;
  (void)recover_area(*b.ctx, rec);

  const auto before = ssta::run_fullssta(*b.ctx);
  StatisticalSizerOptions opt;
  opt.objective.lambda = 9.0;
  opt.max_iterations = 40;
  (void)size_statistically(*b.ctx, opt);
  const auto after = ssta::run_fullssta(*b.ctx);
  EXPECT_LT(after.sigma_ps, before.sigma_ps);
}

TEST(StatisticalSizer, DeterministicGivenSameStart) {
  const auto run_once = [] {
    Bench b(circuits::make_ripple_adder(8));
    (void)apply_initial_sizing(*b.ctx);
    StatisticalSizerOptions opt;
    opt.objective.lambda = 3.0;
    opt.max_iterations = 8;
    (void)size_statistically(*b.ctx, opt);
    return b.nl.sizes();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(StatisticalSizer, TargetSigmaStopsEarly) {
  Bench b(circuits::make_cla_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  const auto before = ssta::run_fullssta(*b.ctx);
  StatisticalSizerOptions opt;
  opt.objective.lambda = 9.0;
  opt.target_sigma_ps = before.sigma_ps * 10.0;  // trivially satisfied
  const auto stats = size_statistically(*b.ctx, opt);
  EXPECT_TRUE(stats.constraints_met);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(StatisticalSizer, SubcircuitScoringModeRuns) {
  Bench b(circuits::make_ripple_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  StatisticalSizerOptions opt;
  opt.objective.lambda = 3.0;
  opt.scoring = InnerScoring::kSubcircuit;
  opt.max_iterations = 6;
  const auto full_before = ssta::run_fullssta(*b.ctx);
  const double cost_before = full_before.mean_ps + 3.0 * full_before.sigma_ps;
  (void)size_statistically(*b.ctx, opt);
  const auto full_after = ssta::run_fullssta(*b.ctx);
  EXPECT_LE(full_after.mean_ps + 3.0 * full_after.sigma_ps, cost_before + 1e-6);
}

TEST(StatisticalSizer, CountsEvaluations) {
  Bench b(circuits::make_ripple_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  StatisticalSizerOptions opt;
  opt.objective.lambda = 3.0;
  opt.max_iterations = 3;
  const auto stats = size_statistically(*b.ctx, opt);
  if (stats.iterations > 0) {
    EXPECT_GT(stats.fassta_evaluations, 0u);
  }
}

// ---------------------------------------------------------------------------
// area recovery
// ---------------------------------------------------------------------------

TEST(AreaRecovery, RecoversAreaWithinDeterministicBudget) {
  Bench b(circuits::make_cla_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  (void)size_for_mean_delay(*b.ctx);
  const double arrival_before = run_dsta(*b.ctx).max_arrival_ps;

  AreaRecoveryOptions opt;
  opt.criterion = RecoveryCriterion::kDeterministicArrival;
  opt.tolerance = 0.01;
  const AreaRecoveryStats stats = recover_area(*b.ctx, opt);
  EXPECT_LE(stats.area_after_um2, stats.area_before_um2);
  EXPECT_GT(stats.downsizes, 0u);
  EXPECT_LE(run_dsta(*b.ctx).max_arrival_ps, arrival_before * 1.0101);
}

TEST(AreaRecovery, StatisticalCriterionGuardsCost) {
  Bench b(circuits::make_ripple_adder(8));
  (void)apply_initial_sizing(*b.ctx);
  fassta::Engine engine(*b.ctx);
  sta::NodeMoments before;
  (void)engine.run(&before);
  AreaRecoveryOptions opt;
  opt.criterion = RecoveryCriterion::kStatisticalCost;
  opt.objective.lambda = 3.0;
  opt.tolerance = 0.02;
  (void)recover_area(*b.ctx, opt);
  sta::NodeMoments after;
  (void)engine.run(&after);
  const double cost_before = before.mean_ps + 3.0 * before.sigma_ps;
  const double cost_after = after.mean_ps + 3.0 * after.sigma_ps;
  EXPECT_LE(cost_after, cost_before * 1.0201);
}

TEST(AreaRecovery, NoopWhenEverythingAtMinimum) {
  Bench b(circuits::make_ripple_adder(4));  // mapped at smallest sizes
  AreaRecoveryOptions opt;
  const AreaRecoveryStats stats = recover_area(*b.ctx, opt);
  EXPECT_EQ(stats.downsizes, 0u);
  EXPECT_DOUBLE_EQ(stats.area_before_um2, stats.area_after_um2);
}

}  // namespace
}  // namespace statsizer::opt
