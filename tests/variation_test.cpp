#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "util/numeric.h"
#include "util/rng.h"
#include "variation/model.h"

namespace statsizer::variation {
namespace {

TEST(VariationModel, TwoComponentStructure) {
  VariationParams p;
  p.proportional_coeff = 0.2;
  p.size_exponent = 1.0;
  p.random_floor_ps = 3.0;
  const VariationModel m(p);
  // sigma^2 = (0.2 * 50 / 2)^2 + 3^2 at delay 50, drive 2.
  EXPECT_NEAR(m.systematic_sigma_ps(50.0, 2.0), 5.0, 1e-12);
  EXPECT_NEAR(m.sigma_ps(50.0, 2.0), std::sqrt(25.0 + 9.0), 1e-12);
  EXPECT_DOUBLE_EQ(m.random_sigma_ps(), 3.0);
}

TEST(VariationModel, SizeSuppression) {
  VariationParams p;
  p.size_exponent = 1.0;
  const VariationModel m(p);
  // "inversely proportional to their dimensions" (paper section 4.4).
  EXPECT_NEAR(m.systematic_sigma_ps(40.0, 4.0), m.systematic_sigma_ps(40.0, 1.0) / 4.0,
              1e-12);
  VariationParams pelgrom = p;
  pelgrom.size_exponent = 0.5;
  const VariationModel mp(pelgrom);
  EXPECT_NEAR(mp.systematic_sigma_ps(40.0, 4.0), mp.systematic_sigma_ps(40.0, 1.0) / 2.0,
              1e-12);
}

TEST(VariationModel, FloorDoesNotScale) {
  const VariationModel m;
  EXPECT_DOUBLE_EQ(m.random_sigma_ps(), m.params().random_floor_ps);
  // At zero delay only the floor remains.
  EXPECT_DOUBLE_EQ(m.sigma_ps(0.0, 1.0), m.params().random_floor_ps);
}

TEST(VariationModel, MeanToSigmaCoefficient) {
  VariationParams p;
  p.proportional_coeff = 0.4;
  p.size_exponent = 1.0;
  const VariationModel m(p);
  EXPECT_DOUBLE_EQ(m.mean_to_sigma_coeff(1.0), 0.4);
  EXPECT_DOUBLE_EQ(m.mean_to_sigma_coeff(4.0), 0.1);
}

TEST(VariationModel, InvalidParamsRejected) {
  VariationParams bad;
  bad.proportional_coeff = -0.1;
  EXPECT_THROW(VariationModel{bad}, std::invalid_argument);
  VariationParams bad2;
  bad2.global_fraction = 1.5;
  EXPECT_THROW(VariationModel{bad2}, std::invalid_argument);
}

TEST(VariationSampling, MomentsMatchModel) {
  VariationParams p;
  p.proportional_coeff = 0.15;
  p.size_exponent = 1.0;
  p.random_floor_ps = 2.0;
  const VariationModel m(p);
  util::Rng rng(123);
  util::RunningStats stats;
  const double d = 60.0;
  const double k = 2.0;
  for (int i = 0; i < 60000; ++i) stats.add(m.sample_delay_ps(d, k, 0.0, rng));
  EXPECT_NEAR(stats.mean(), d, 0.15);
  EXPECT_NEAR(stats.stddev(), m.sigma_ps(d, k), 0.1);
}

// The local draw z1 comes first and the floor draw z2 second, the order
// ISLE's tracked arcs draw them in: pinned bitwise against the explicit
// formula drawn from a copy of the same stream.
TEST(VariationSampling, DrawsLocalThenFloor) {
  for (const double gf : {0.0, 0.6}) {
    SCOPED_TRACE("global_fraction=" + std::to_string(gf));
    VariationParams p;
    p.global_fraction = gf;
    const VariationModel m(p);
    util::Rng rng(77);
    util::Rng copy = rng;
    const double delay = 40.0, drive = 2.0, global_z = 0.7;
    const double sys = m.systematic_sigma_ps(delay, drive);
    for (int i = 0; i < 100; ++i) {
      const double z1 = copy.normal();
      const double z2 = copy.normal();
      const double want = std::max(delay + std::sqrt(gf) * sys * global_z +
                                       std::sqrt(1.0 - gf) * sys * z1 + p.random_floor_ps * z2,
                                   kMinDelayFraction * delay);
      EXPECT_EQ(m.sample_delay_ps(delay, drive, global_z, rng), want) << "draw " << i;
    }
  }
}

TEST(VariationSampling, TruncationPreventsNegativeDelays) {
  VariationParams p;
  p.proportional_coeff = 2.0;  // absurdly wide on purpose
  const VariationModel m(p);
  util::Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_GE(m.sample_delay_ps(30.0, 1.0, 0.0, rng), 0.05 * 30.0);
  }
}

TEST(VariationSampling, GlobalFractionSplitsVariance) {
  VariationParams p;
  p.proportional_coeff = 0.3;
  p.random_floor_ps = 0.0;
  p.global_fraction = 1.0;  // fully correlated systematic part
  const VariationModel m(p);
  util::Rng rng(9);
  // With global_fraction = 1 and a fixed global draw, samples are
  // deterministic (no local randomness left).
  const double s1 = m.sample_delay_ps(50.0, 1.0, 1.7, rng);
  const double s2 = m.sample_delay_ps(50.0, 1.0, 1.7, rng);
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_NEAR(s1, 50.0 + 0.3 * 50.0 * 1.7, 1e-9);
}

TEST(VariationSampling, GlobalComponentCorrelatesGates) {
  VariationParams p;
  p.proportional_coeff = 0.3;
  p.random_floor_ps = 0.0;
  p.global_fraction = 0.8;
  const VariationModel m(p);
  util::Rng rng(42);
  // Correlation between two gates sampled under the same global draw.
  util::RunningStats cov_acc;
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    const double g = rng.normal();
    xs.push_back(m.sample_delay_ps(50.0, 1.0, g, rng));
    ys.push_back(m.sample_delay_ps(50.0, 1.0, g, rng));
  }
  const double mx = util::mean_of(xs);
  const double my = util::mean_of(ys);
  double cov = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) cov += (xs[i] - mx) * (ys[i] - my);
  cov /= static_cast<double>(xs.size());
  const double rho =
      cov / std::sqrt(util::variance_of(xs) * util::variance_of(ys));
  EXPECT_NEAR(rho, 0.8, 0.03);
}

}  // namespace
}  // namespace statsizer::variation
