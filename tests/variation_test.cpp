#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

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

// Keyed standard normals for the sampling tests: draw i of one fixed stream.
double z(std::uint64_t i) { return util::keyed_normal(util::stream_seed(2005, 0), i); }

TEST(VariationSampling, MomentsMatchModel) {
  VariationParams p;
  p.proportional_coeff = 0.15;
  p.size_exponent = 1.0;
  p.random_floor_ps = 2.0;
  const VariationModel m(p);
  util::RunningStats stats;
  const double d = 60.0;
  const double k = 2.0;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    stats.add(m.delay_at_ps(d, k, 0.0, z(2 * i), z(2 * i + 1)));
  }
  EXPECT_NEAR(stats.mean(), d, 0.15);
  EXPECT_NEAR(stats.stddev(), m.sigma_ps(d, k), 0.1);
}

// The sample loop evaluates the map at terms computed once per arc: over a
// seeded pool of arcs and coordinates, truncated samples included, that is
// bitwise the five-argument map and the written-out formula.
TEST(VariationSampling, PrecomputedTermsMatchDelayAtBitwise) {
  const std::uint64_t pool = util::stream_seed(77, 0);
  for (const double gf : {0.0, 0.6, 1.0}) {
    SCOPED_TRACE("global_fraction=" + std::to_string(gf));
    VariationParams p;
    p.proportional_coeff = 0.9;
    p.size_exponent = 1.0;
    p.global_fraction = gf;
    const VariationModel m(p);
    int truncated = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
      const double delay = 200.0 * util::keyed_uniform(pool, 6 * i);
      const double drive = 1.0 + 7.0 * util::keyed_uniform(pool, 6 * i + 1);
      // Scaled coordinates reach deep enough to truncate a fair share.
      const double global_z = 2.0 * util::keyed_normal(pool, 6 * i + 2);
      const double z1 = 2.0 * util::keyed_normal(pool, 6 * i + 3);
      const double z2 = 2.0 * util::keyed_normal(pool, 6 * i + 4);
      const ArcTerms t = m.arc_terms(delay, drive);
      const double got = m.delay_at_ps(t, global_z, z1, z2);
      EXPECT_EQ(got, m.delay_at_ps(delay, drive, global_z, z1, z2)) << "arc " << i;
      const double sys = m.systematic_sigma_ps(delay, drive);
      const double sample = delay + std::sqrt(gf) * sys * global_z +
                            std::sqrt(1.0 - gf) * sys * z1 + p.random_floor_ps * z2;
      EXPECT_EQ(got, std::max(sample, kMinDelayFraction * delay)) << "arc " << i;
      if (sample < kMinDelayFraction * delay) ++truncated;
    }
    EXPECT_GT(truncated, 100);
  }
}

TEST(VariationSampling, TruncationPreventsNegativeDelays) {
  VariationParams p;
  p.proportional_coeff = 2.0;  // absurdly wide on purpose
  const VariationModel m(p);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    EXPECT_GE(m.delay_at_ps(30.0, 1.0, 0.0, z(2 * i), z(2 * i + 1)), 0.05 * 30.0);
  }
}

TEST(VariationSampling, GlobalFractionSplitsVariance) {
  VariationParams p;
  p.proportional_coeff = 0.3;
  p.random_floor_ps = 0.0;
  p.global_fraction = 1.0;  // fully correlated systematic part
  const VariationModel m(p);
  // With global_fraction = 1 and a fixed global draw, samples are
  // deterministic (no local randomness left).
  const double s1 = m.delay_at_ps(50.0, 1.0, 1.7, z(0), z(1));
  const double s2 = m.delay_at_ps(50.0, 1.0, 1.7, z(2), z(3));
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_NEAR(s1, 50.0 + 0.3 * 50.0 * 1.7, 1e-9);
}

TEST(VariationSampling, GlobalComponentCorrelatesGates) {
  VariationParams p;
  p.proportional_coeff = 0.3;
  p.random_floor_ps = 0.0;
  p.global_fraction = 0.8;
  const VariationModel m(p);
  // Correlation between two gates sampled under the same global draw.
  std::vector<double> xs, ys;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double g = z(5 * i);
    xs.push_back(m.delay_at_ps(50.0, 1.0, g, z(5 * i + 1), z(5 * i + 2)));
    ys.push_back(m.delay_at_ps(50.0, 1.0, g, z(5 * i + 3), z(5 * i + 4)));
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
