#include <cmath>

#include <gtest/gtest.h>

#include "fassta/clark.h"
#include "util/rng.h"
#include "util/numeric.h"

namespace statsizer::fassta {
namespace {

// ---------------------------------------------------------------------------
// exact Clark vs theory and Monte Carlo
// ---------------------------------------------------------------------------

TEST(ClarkExact, IidStandardNormals) {
  // max of two iid N(0,1): mean = 1/sqrt(pi), var = 1 - 1/pi.
  const ClarkResult r = clark_max_exact(0.0, 1.0, 0.0, 1.0);
  EXPECT_NEAR(r.mean, 1.0 / std::sqrt(M_PI), 1e-12);
  EXPECT_NEAR(r.var, 1.0 - 1.0 / M_PI, 1e-12);
  EXPECT_NEAR(r.tightness, 0.5, 1e-12);
}

TEST(ClarkExact, StrongDominance) {
  const ClarkResult r = clark_max_exact(100.0, 2.0, 10.0, 5.0);
  EXPECT_NEAR(r.mean, 100.0, 1e-6);
  EXPECT_NEAR(r.var, 4.0, 1e-4);
  EXPECT_NEAR(r.tightness, 1.0, 1e-9);
}

TEST(ClarkExact, SymmetricInArguments) {
  const ClarkResult ab = clark_max_exact(10.0, 3.0, 12.0, 4.0);
  const ClarkResult ba = clark_max_exact(12.0, 4.0, 10.0, 3.0);
  EXPECT_NEAR(ab.mean, ba.mean, 1e-12);
  EXPECT_NEAR(ab.var, ba.var, 1e-12);
  EXPECT_NEAR(ab.tightness, 1.0 - ba.tightness, 1e-12);
}

class ClarkMonteCarloTest
    : public ::testing::TestWithParam<std::tuple<double, double, double, double>> {};

TEST_P(ClarkMonteCarloTest, MatchesSampling) {
  const auto [mu_a, sig_a, mu_b, sig_b] = GetParam();
  const ClarkResult r = clark_max_exact(mu_a, sig_a, mu_b, sig_b);
  util::Rng rng(1234);
  util::RunningStats mc;
  for (int i = 0; i < 400000; ++i) {
    mc.add(std::max(rng.normal(mu_a, sig_a), rng.normal(mu_b, sig_b)));
  }
  EXPECT_NEAR(r.mean, mc.mean(), 0.05 * std::max(1.0, sig_a + sig_b));
  EXPECT_NEAR(std::sqrt(r.var), mc.stddev(), 0.02 * std::max(1.0, sig_a + sig_b));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClarkMonteCarloTest,
    ::testing::Values(std::make_tuple(0.0, 1.0, 0.0, 1.0),
                      std::make_tuple(10.0, 2.0, 11.0, 2.0),
                      std::make_tuple(10.0, 5.0, 14.0, 1.0),
                      std::make_tuple(50.0, 1.0, 40.0, 8.0),
                      std::make_tuple(0.0, 3.0, 0.5, 0.2),
                      std::make_tuple(-5.0, 2.0, 5.0, 2.0)));

TEST(ClarkExact, CorrelatedInputs) {
  // With rho = 1 and equal sigmas the max is simply the larger-mean input.
  const ClarkResult r = clark_max_exact(10.0, 2.0, 12.0, 2.0, 1.0);
  EXPECT_NEAR(r.mean, 12.0, 1e-9);
  EXPECT_NEAR(r.var, 4.0, 1e-9);
  // MC check at rho = 0.6.
  const double rho = 0.6;
  const ClarkResult c = clark_max_exact(20.0, 3.0, 21.0, 4.0, rho);
  util::Rng rng(9);
  util::RunningStats mc;
  for (int i = 0; i < 400000; ++i) {
    const double z1 = rng.normal();
    const double z2 = rho * z1 + std::sqrt(1 - rho * rho) * rng.normal();
    mc.add(std::max(20.0 + 3.0 * z1, 21.0 + 4.0 * z2));
  }
  EXPECT_NEAR(c.mean, mc.mean(), 0.05);
  EXPECT_NEAR(std::sqrt(c.var), mc.stddev(), 0.05);
}

TEST(ClarkExact, DegenerateBothDeterministic) {
  const ClarkResult r = clark_max_exact(5.0, 0.0, 7.0, 0.0);
  EXPECT_DOUBLE_EQ(r.mean, 7.0);
  EXPECT_DOUBLE_EQ(r.var, 0.0);
}

// ---------------------------------------------------------------------------
// the paper's fast max
// ---------------------------------------------------------------------------

TEST(ClarkFast, DominanceEarlyOut) {
  // |alpha| >= 2.6 -> the dominant input's moments pass through exactly.
  const ClarkResult r = clark_max_fast(100.0, 3.0, 50.0, 4.0);
  EXPECT_DOUBLE_EQ(r.mean, 100.0);
  EXPECT_DOUBLE_EQ(r.var, 9.0);
  const ClarkResult r2 = clark_max_fast(50.0, 4.0, 100.0, 3.0);
  EXPECT_DOUBLE_EQ(r2.mean, 100.0);
  EXPECT_DOUBLE_EQ(r2.var, 9.0);
}

TEST(ClarkFast, CloseToExactInOverlapRegion) {
  // The paper claims the quadratic erf approximation is accurate to two
  // decimals; the resulting max moments should track exact Clark within a
  // few percent of the combined sigma across the whole overlap region.
  for (double dmu = -2.5; dmu <= 2.5; dmu += 0.25) {
    for (double sb : {0.5, 1.0, 2.0}) {
      const ClarkResult fast = clark_max_fast(0.0, 1.0, dmu, sb);
      const ClarkResult exact = clark_max_exact(0.0, 1.0, dmu, sb);
      const double scale = std::sqrt(1.0 + sb * sb);
      EXPECT_NEAR(fast.mean, exact.mean, 0.04 * scale) << dmu << " " << sb;
      EXPECT_NEAR(std::sqrt(fast.var), std::sqrt(exact.var), 0.08 * scale)
          << dmu << " " << sb;
    }
  }
}

TEST(Dominance, ThresholdBehaviour) {
  // alpha = (mu_a - mu_b) / sqrt(sig_a^2 + sig_b^2).
  EXPECT_EQ(dominance(26.0, 3.0, 0.0, 4.0), +1);   // alpha = 5.2
  EXPECT_EQ(dominance(0.0, 3.0, 26.0, 4.0), -1);
  EXPECT_EQ(dominance(1.0, 3.0, 0.0, 4.0), 0);
  // Exactly at threshold: 2.6 * 5 = 13.
  EXPECT_EQ(dominance(13.0, 3.0, 0.0, 4.0), +1);
  EXPECT_EQ(dominance(12.9, 3.0, 0.0, 4.0), 0);
  // Custom threshold.
  EXPECT_EQ(dominance(12.9, 3.0, 0.0, 4.0, 2.0), +1);
}

TEST(Dominance, DeterministicFallback) {
  EXPECT_EQ(dominance(5.0, 0.0, 3.0, 0.0), +1);
  EXPECT_EQ(dominance(3.0, 0.0, 5.0, 0.0), -1);
}

// ---------------------------------------------------------------------------
// finite-difference variance sensitivity (paper section 4.4)
// ---------------------------------------------------------------------------

TEST(VarSensitivity, MatchesAnalyticDerivativeWithoutCoupling) {
  // With c = 0 (no sigma coupling) the FD approximates dVar/dmu_a directly;
  // compare against a central difference of exact Clark.
  const double mu_a = 10.0, sig_a = 3.0, mu_b = 11.0, sig_b = 2.0;
  const double fd = max_var_sensitivity_mu_a(mu_a, sig_a, mu_b, sig_b, 0.01, 0.0,
                                             /*use_fast=*/false);
  const double h = 1e-4;
  const double analytic = (clark_max_exact(mu_a + h, sig_a, mu_b, sig_b).var -
                           clark_max_exact(mu_a - h, sig_a, mu_b, sig_b).var) /
                          (2 * h);
  EXPECT_NEAR(fd, analytic, std::abs(analytic) * 0.05 + 0.01);
}

TEST(VarSensitivity, CouplingTermAddsSigmaEffect) {
  // With coupling c > 0 the sensitivity includes dVar/dsigma_a * c, which for
  // a fat input is strongly positive.
  const double plain = max_var_sensitivity_mu_a(10.0, 3.0, 11.0, 2.0, 0.01, 0.0, false);
  const double coupled = max_var_sensitivity_mu_a(10.0, 3.0, 11.0, 2.0, 0.01, 0.3, false);
  EXPECT_GT(coupled, plain);
}

TEST(VarSensitivity, FatterLowerMeanInputCanDominate) {
  // The paper's motivating point (Fig. 3): a lower-mean input with a fat
  // sigma can be more responsible for output variance than the higher-mean
  // input. Sensitivities must be able to rank it first.
  // A = (310, 45) fat; B = (357, 32): compare dVar/dmu with coupling.
  const double c = 0.1;
  const double sens_a = max_var_sensitivity_mu_a(310.0, 45.0, 357.0, 32.0, 0.01, c, false);
  const double sens_b = max_var_sensitivity_mu_a(357.0, 32.0, 310.0, 45.0, 0.01, c, false);
  EXPECT_GT(sens_a, 0.0);
  EXPECT_GT(sens_b, 0.0);
}

TEST(VarSensitivity, FastAndExactClarkRankClearCasesAlike) {
  // The WNSS tracer ranks inputs with the fast Clark; on a clear case (the
  // Fig. 3 fat/thin pair) it must pick the same input as exact Clark.
  const double c = 0.1;
  for (const bool use_fast : {true, false}) {
    const double fat = max_var_sensitivity_mu_a(310.0, 45.0, 320.0, 27.0, 0.01, c, use_fast);
    const double thin = max_var_sensitivity_mu_a(320.0, 27.0, 310.0, 45.0, 0.01, c, use_fast);
    EXPECT_GT(fat, thin) << (use_fast ? "fast" : "exact");
  }
}

}  // namespace
}  // namespace statsizer::fassta
