// Golden end-to-end regression: the quickstart flow on the c432-class
// workload must keep reproducing the paper's headline result, and Monte Carlo
// must confirm that the optimized point's spread beats the baseline's.
#include <cmath>

#include <gtest/gtest.h>

#include "core/flow.h"
#include "ssta/monte_carlo.h"

namespace statsizer::core {
namespace {

TEST(FlowRegression, C432Lambda3ReproducesPaperBand) {
  Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  (void)flow.run_baseline();

  const opt::CircuitStats original = flow.analyze();
  // Mean-delay-optimized "original" point: sigma/mu lands near the paper's
  // Table-1 order of magnitude for c432 (0.093 there, ~0.05 with this
  // library's calibration; see EXPERIMENTS.md).
  EXPECT_GT(original.sigma_over_mu(), 0.03);
  EXPECT_LT(original.sigma_over_mu(), 0.09);

  const OptimizationRecord rec = flow.optimize(3.0);
  // The paper's c432 row reports a -0.58 sigma reduction at lambda = 3; the
  // reproduction must stay in the -0.5..-0.8 band.
  EXPECT_LE(rec.sigma_change, -0.5) << "sigma reduction too weak";
  EXPECT_GE(rec.sigma_change, -0.8) << "sigma reduction implausibly strong";
  // Variance is bought with area, never by giving mean back.
  EXPECT_LE(rec.mean_change, 0.0);
  EXPECT_GT(rec.area_change, 0.0);
  EXPECT_LT(rec.area_change, 1.5);
  EXPECT_GT(rec.resizes, 0u);
}

TEST(FlowRegression, MonteCarloSigmaFallsAtLambda3) {
  ssta::MonteCarloOptions mc;
  mc.samples = 400;
  mc.seed = 5;

  Flow baseline;
  ASSERT_TRUE(baseline.load_table1("alu2").ok());
  (void)baseline.run_baseline();
  const ssta::MonteCarloResult before = ssta::run_monte_carlo(baseline.timing(), mc);

  Flow sized;
  ASSERT_TRUE(sized.load_table1("alu2").ok());
  (void)sized.run_baseline();
  // Two independent flows reach the same baseline point, bit for bit.
  const ssta::MonteCarloResult again = ssta::run_monte_carlo(sized.timing(), mc);
  EXPECT_EQ(again.circuit_samples, before.circuit_samples);
  EXPECT_EQ(again.mean_ps, before.mean_ps);
  EXPECT_EQ(again.sigma_ps, before.sigma_ps);

  const OptimizationRecord rec = sized.optimize(3.0);
  EXPECT_LT(rec.sigma_change, 0.0);
  // The optimized point's Monte-Carlo sigma improves on the baseline's.
  const ssta::MonteCarloResult after = ssta::run_monte_carlo(sized.timing(), mc);
  EXPECT_LT(after.sigma_ps, before.sigma_ps);

  // An unknown workload is a load error, not a throw.
  Flow unknown;
  EXPECT_FALSE(unknown.load_table1("no-such-circuit").ok());
  EXPECT_FALSE(unknown.has_circuit());
}

}  // namespace
}  // namespace statsizer::core
