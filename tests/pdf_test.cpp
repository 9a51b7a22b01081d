#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/flow.h"
#include "debug/validate.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace statsizer::pdf {
namespace {

TEST(DiscretePdf, PointMass) {
  const DiscretePdf p = DiscretePdf::point(42.0);
  EXPECT_TRUE(p.is_point());
  EXPECT_DOUBLE_EQ(p.mean(), 42.0);
  EXPECT_DOUBLE_EQ(p.variance(), 0.0);
  EXPECT_DOUBLE_EQ(p.cdf(41.9), 0.0);
  EXPECT_DOUBLE_EQ(p.cdf(42.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 42.0);
}

TEST(DiscretePdf, NormalDiscretizationMoments) {
  for (const std::size_t samples : {7u, 13u, 25u}) {
    const DiscretePdf p = DiscretePdf::normal(100.0, 10.0, samples);
    EXPECT_NEAR(p.mean(), 100.0, 0.05) << samples;
    // Discretization slightly reshapes the tails; variance within a few %.
    EXPECT_NEAR(p.stddev(), 10.0, 0.5) << samples;
    double total = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) total += p.mass_at(i);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(DiscretePdf, NormalZeroSigmaIsPoint) {
  EXPECT_TRUE(DiscretePdf::normal(5.0, 0.0).is_point());
  EXPECT_THROW(DiscretePdf::normal(0.0, -1.0), std::invalid_argument);
}

TEST(DiscretePdf, FromMassesNormalizes) {
  const DiscretePdf p = DiscretePdf::from_masses(0.0, 1.0, {1.0, 1.0, 2.0});
  EXPECT_NEAR(p.mass_at(2), 0.5, 1e-12);
  EXPECT_THROW(DiscretePdf::from_masses(0, 1, {}), std::invalid_argument);
  EXPECT_THROW(DiscretePdf::from_masses(0, 1, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscretePdf::from_masses(0, 1, {1.0, -0.5}), std::invalid_argument);
}

TEST(DiscretePdf, CdfQuantileInverse) {
  const DiscretePdf p = DiscretePdf::normal(0.0, 1.0, 41);
  for (double q = 0.05; q < 1.0; q += 0.05) {
    const double x = p.quantile(q);
    EXPECT_NEAR(p.cdf(x), q, 0.02) << q;
  }
  // Median of a symmetric distribution is its mean.
  EXPECT_NEAR(p.quantile(0.5), 0.0, 0.05);
}

TEST(DiscretePdf, ShiftMovesMeanOnly) {
  const DiscretePdf p = DiscretePdf::normal(10.0, 2.0, 13);
  const DiscretePdf q = p.shifted(5.0);
  EXPECT_NEAR(q.mean(), p.mean() + 5.0, 1e-12);
  EXPECT_NEAR(q.variance(), p.variance(), 1e-12);
}

TEST(DiscretePdf, ResamplePreservesMean) {
  const DiscretePdf p = DiscretePdf::normal(50.0, 7.0, 41);
  const DiscretePdf q = p.resampled(11);
  EXPECT_EQ(q.size(), 11u);
  EXPECT_NEAR(q.mean(), p.mean(), 1e-9);
  EXPECT_NEAR(q.stddev(), p.stddev(), 0.3);
}

// ---------------------------------------------------------------------------
// sum
// ---------------------------------------------------------------------------

TEST(Sum, MomentsAreExact) {
  // This is the load-bearing property for deep circuits: sum() pins its
  // first two moments to the analytically exact values.
  const DiscretePdf a = DiscretePdf::normal(100.0, 5.0, 13);
  const DiscretePdf b = DiscretePdf::normal(40.0, 12.0, 13);
  const DiscretePdf s = sum(a, b, 13);
  EXPECT_NEAR(s.mean(), a.mean() + b.mean(), 1e-9);
  EXPECT_NEAR(s.variance(), a.variance() + b.variance(), 1e-6);
}

TEST(Sum, WithPointIsShift) {
  const DiscretePdf a = DiscretePdf::normal(10.0, 2.0, 13);
  const DiscretePdf s = sum(a, DiscretePdf::point(5.0), 13);
  EXPECT_NEAR(s.mean(), 15.0, 1e-12);
  EXPECT_NEAR(s.variance(), a.variance(), 1e-12);
}

TEST(Sum, Commutative) {
  const DiscretePdf a = DiscretePdf::normal(10.0, 2.0, 13);
  const DiscretePdf b = DiscretePdf::normal(30.0, 6.0, 13);
  const DiscretePdf s1 = sum(a, b, 13);
  const DiscretePdf s2 = sum(b, a, 13);
  EXPECT_NEAR(s1.mean(), s2.mean(), 1e-9);
  EXPECT_NEAR(s1.variance(), s2.variance(), 1e-9);
}

TEST(Sum, DeepChainDoesNotInflateVariance) {
  // Regression test for the compounding-rebinning-variance bug: summing 100
  // gate pdfs keeps both moments at their analytic values.
  DiscretePdf acc = DiscretePdf::point(0.0);
  double mean = 0.0;
  double var = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double d = 30.0 + (i % 7);
    const double s = 3.0 + 0.1 * (i % 5);
    acc = sum(acc, DiscretePdf::normal(d, s, 13), 13);
    mean += d;
    var += s * s;
  }
  EXPECT_NEAR(acc.mean(), mean, 1e-6 * mean);
  EXPECT_NEAR(acc.stddev(), std::sqrt(var), 1e-3 * std::sqrt(var));
}

// ---------------------------------------------------------------------------
// max
// ---------------------------------------------------------------------------

TEST(Max, DominantInputPassesThrough) {
  const DiscretePdf a = DiscretePdf::normal(100.0, 3.0, 13);
  const DiscretePdf b = DiscretePdf::normal(10.0, 3.0, 13);
  const DiscretePdf m = max(a, b, 13);
  EXPECT_NEAR(m.mean(), a.mean(), 0.01);
  EXPECT_NEAR(m.stddev(), a.stddev(), 0.05);
}

TEST(Max, EqualInputsMatchClarkTheory) {
  // max of two iid N(0,1): mean = 1/sqrt(pi), var = 1 - 1/pi.
  const DiscretePdf a = DiscretePdf::normal(0.0, 1.0, 41);
  const DiscretePdf m = max(a, a, 41);
  EXPECT_NEAR(m.mean(), 1.0 / std::sqrt(M_PI), 0.02);
  EXPECT_NEAR(m.variance(), 1.0 - 1.0 / M_PI, 0.02);
}

TEST(Max, AgainstMonteCarlo) {
  const DiscretePdf a = DiscretePdf::normal(50.0, 8.0, 21);
  const DiscretePdf b = DiscretePdf::normal(55.0, 4.0, 21);
  const DiscretePdf m = max(a, b, 21);

  util::Rng rng(31);
  util::RunningStats mc;
  for (int i = 0; i < 200000; ++i) {
    mc.add(std::max(rng.normal(50.0, 8.0), rng.normal(55.0, 4.0)));
  }
  EXPECT_NEAR(m.mean(), mc.mean(), 0.15);
  EXPECT_NEAR(m.stddev(), mc.stddev(), 0.15);
}

TEST(Max, WithPointClips) {
  const DiscretePdf a = DiscretePdf::normal(0.0, 1.0, 21);
  const DiscretePdf m = max(a, DiscretePdf::point(0.0), 21);
  // max(N(0,1), 0): mean = phi(0) = 0.3989, with an atom of mass 0.5 at 0.
  // Moment matching trades exact support for exact moments, so the grid may
  // undershoot the true support by a fraction of one bin, and the atom is
  // smeared across one bin width. The upper quantiles are unaffected:
  // P(X <= x) = Phi(x) for x > 0, so quantile(0.75) = 0.674.
  EXPECT_NEAR(m.mean(), 0.3989, 0.02);
  EXPECT_GE(m.min_value(), -m.step());
  EXPECT_NEAR(m.quantile(0.75), 0.674, 0.25);
}

TEST(Max, MonotoneInShift) {
  const DiscretePdf a = DiscretePdf::normal(40.0, 5.0, 13);
  const DiscretePdf b = DiscretePdf::normal(42.0, 5.0, 13);
  double prev = 0.0;
  for (double shift = 0.0; shift <= 20.0; shift += 2.0) {
    const double m = max(a, b.shifted(shift), 13).mean();
    EXPECT_GE(m, prev - 1e-9);
    prev = m;
  }
}

TEST(Max, FoldOverManyEqualPathsConcentrates) {
  // max over n iid variables: mean grows, sigma shrinks.
  const DiscretePdf base = DiscretePdf::normal(100.0, 10.0, 21);
  DiscretePdf acc = base;
  double prev_mean = acc.mean();
  double prev_sigma = acc.stddev();
  for (int i = 0; i < 6; ++i) {
    acc = max(acc, base, 21);
    EXPECT_GT(acc.mean(), prev_mean);
    EXPECT_LT(acc.stddev(), prev_sigma + 1e-9);
    prev_mean = acc.mean();
    prev_sigma = acc.stddev();
  }
  EXPECT_GT(acc.mean(), 110.0);  // E[max of 7 iid] ~ mu + 1.35 sigma
}

TEST(Max, SampleCountInsensitivity) {
  // The paper used 10-15 samples; results should be stable in that band.
  const DiscretePdf a10 = DiscretePdf::normal(50.0, 6.0, 10);
  const DiscretePdf b10 = DiscretePdf::normal(52.0, 3.0, 10);
  const DiscretePdf a15 = DiscretePdf::normal(50.0, 6.0, 15);
  const DiscretePdf b15 = DiscretePdf::normal(52.0, 3.0, 15);
  const DiscretePdf m10 = max(a10, b10, 10);
  const DiscretePdf m15 = max(a15, b15, 15);
  EXPECT_NEAR(m10.mean(), m15.mean(), 0.25);
  EXPECT_NEAR(m10.stddev(), m15.stddev(), 0.25);
}

// ---------------------------------------------------------------------------
// Reference formulations. The kernels are fused (no intermediate pdfs, one
// moment-pinning pass over one buffer); each must reproduce, bit for bit, the
// composition of public constructors written out below.
// ---------------------------------------------------------------------------

/// Moment pinning as a composition: the affine map x -> mean + r * (x - mean')
/// of @p raw's grid, renormalized through from_masses.
DiscretePdf pinned_reference(const DiscretePdf& raw, double mean, double var) {
  if (var <= 0.0 || raw.is_point() || raw.variance() <= 0.0) return DiscretePdf::point(mean);
  const double r = std::sqrt(var / raw.variance());
  return DiscretePdf::from_masses(mean + r * (raw.origin() - raw.mean()), r * raw.step(),
                                  raw.masses());
}

/// Linear split of @p mass at @p x between the two neighbouring bins.
void deposit_reference(std::vector<double>& bins, double origin, double step, double x,
                       double mass) {
  if (step == 0.0 || bins.size() == 1) {
    bins[0] += mass;
    return;
  }
  const double pos = (x - origin) / step;
  if (pos <= 0.0) {
    bins.front() += mass;
    return;
  }
  if (pos >= static_cast<double>(bins.size() - 1)) {
    bins.back() += mass;
    return;
  }
  const auto lo = static_cast<std::size_t>(pos);
  const double t = pos - static_cast<double>(lo);
  bins[lo] += mass * (1.0 - t);
  bins[lo + 1] += mass * t;
}

/// sum(): pairwise deposits on the moment-windowed grid, from_masses, then
/// pinning to the exact moments of X + Y.
DiscretePdf sum_reference(const DiscretePdf& x, const DiscretePdf& y, std::size_t samples) {
  if (x.is_point()) return y.shifted(x.origin());
  if (y.is_point()) return x.shifted(y.origin());
  const double mu = x.mean() + y.mean();
  const double sd = std::sqrt(x.variance() + y.variance());
  const double lo = std::max(x.min_value() + y.min_value(), mu - 5.0 * sd);
  const double hi = std::min(x.max_value() + y.max_value(), mu + 5.0 * sd);
  if (hi <= lo) return DiscretePdf::point(mu);
  std::vector<double> bins(std::max<std::size_t>(samples, 2), 0.0);
  const double step = (hi - lo) / static_cast<double>(bins.size() - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x.mass_at(i) == 0.0) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      const double m = x.mass_at(i) * y.mass_at(j);
      if (m == 0.0) continue;
      deposit_reference(bins, lo, step, x.value_at(i) + y.value_at(j), m);
    }
  }
  return pinned_reference(DiscretePdf::from_masses(lo, step, std::move(bins)), mu,
                          x.variance() + y.variance());
}

/// normal(): CDF-difference bin masses, pinned with the moments of the
/// unnormalized grid (restore() caches them without normalizing).
DiscretePdf normal_reference(double mean, double sigma, std::size_t samples, double span) {
  if (sigma == 0.0 || samples < 2) return DiscretePdf::point(mean);
  const double lo = mean - span * sigma;
  const double hi = mean + span * sigma;
  const double step = (hi - lo) / static_cast<double>(samples - 1);
  std::vector<double> masses(samples);
  double prev_cdf = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double c = (i + 1 < samples)
                         ? util::normal_cdf((lo + step * i + 0.5 * step - mean) / sigma)
                         : 1.0;
    masses[i] = c - prev_cdf;
    prev_cdf = c;
  }
  return pinned_reference(DiscretePdf::restore(lo, step, masses), mean, sigma * sigma);
}

/// resampled(): deposits onto the new grid, pinned with the moments of the
/// unnormalized deposit.
DiscretePdf resampled_reference(const DiscretePdf& p, std::size_t samples) {
  if (p.is_point() || samples == 1) return DiscretePdf::point(p.mean());
  if (samples == p.size()) return p;
  const double step = (p.max_value() - p.origin()) / static_cast<double>(samples - 1);
  std::vector<double> bins(samples, 0.0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    deposit_reference(bins, p.origin(), step, p.value_at(i), p.mass_at(i));
  }
  return pinned_reference(DiscretePdf::restore(p.origin(), step, bins), p.mean(),
                          p.variance());
}

/// max() as a per-point CDF product: the same windowing and moment pinning,
/// but every grid point calls cdf() on both operands (each a scan from bin
/// 0). pdf::max's one-pass CDF sweep must reproduce it bit for bit.
DiscretePdf per_point_cdf_max(const DiscretePdf& x, const DiscretePdf& y,
                              std::size_t samples) {
  const double lo_support = std::max(x.min_value(), y.min_value());
  const double hi_support = std::max(x.max_value(), y.max_value());
  if (hi_support <= lo_support) return DiscretePdf::point(hi_support);
  const std::size_t n = std::max<std::size_t>(samples, 2);
  double e1 = 0.0;
  double e2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x.mass_at(i) == 0.0) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      const double v = std::max(x.value_at(i), y.value_at(j));
      const double m = x.mass_at(i) * y.mass_at(j);
      e1 += v * m;
      e2 += v * v * m;
    }
  }
  const double var = std::max(0.0, e2 - e1 * e1);
  const double sd = std::sqrt(var);
  if (sd == 0.0) return DiscretePdf::point(e1);
  const double lo = std::max(lo_support, e1 - 5.0 * sd);
  const double hi = std::min(hi_support, e1 + 5.0 * sd);
  if (hi <= lo) return DiscretePdf::point(e1);
  std::vector<double> bins(n, 0.0);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  double prev = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = lo + step * static_cast<double>(i);
    const double c = std::min(1.0, x.cdf(t) * y.cdf(t));
    bins[i] = std::max(0.0, c - prev);
    prev = c;
  }
  bins[n - 1] += std::max(0.0, 1.0 - prev);
  return pinned_reference(DiscretePdf::from_masses(lo, step, std::move(bins)), e1, var);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const DiscretePdf& a, const DiscretePdf& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(bits(a.origin()), bits(b.origin()));
  EXPECT_EQ(bits(a.step()), bits(b.step()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a.mass_at(i)), bits(b.mass_at(i))) << "bin " << i;
  }
  EXPECT_EQ(bits(a.mean()), bits(b.mean()));
  EXPECT_EQ(bits(a.variance()), bits(b.variance()));
}

/// Operands for the bitwise tests: point masses, zero-mass bins, flat
/// (step 0) grids, normals of 2..25 samples (grids above
/// MassBuffer::kInline = 16 spill to the heap), and derived sums, maxes and
/// rebinned grids. Sums of comparable-sigma normals are clipped at both ends
/// of their moment window, so their end bins collect folded tails.
std::vector<DiscretePdf> bitwise_pool(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<DiscretePdf> pool = {
      DiscretePdf::point(50.0),
      DiscretePdf::point(-0.0),
      DiscretePdf::from_masses(40.0, 2.5, {0.0, 0.2, 0.0, 0.5, 0.3, 0.0}),
      DiscretePdf::from_masses(45.0, 0.0, {0.25, 0.75}),
      DiscretePdf::from_masses(30.0, 1.0, {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                           0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0}),
  };
  const std::size_t base = pool.size();
  for (const std::size_t samples : {2u, 13u, 21u, 25u}) {
    for (int k = 0; k < 4; ++k) {
      pool.push_back(
          DiscretePdf::normal(rng.uniform(30.0, 70.0), rng.uniform(0.5, 12.0), samples));
    }
  }
  const std::size_t normals = pool.size();
  for (std::size_t k = base; k + 1 < normals; k += 2) {
    pool.push_back(sum(pool[k], pool[k + 1], 13));
    pool.push_back(max(pool[k], pool[k + 1].shifted(rng.uniform(-8.0, 8.0)), 21));
    pool.push_back(pool[k].resampled(9));
  }
  return pool;
}

TEST(Sum, FusedKernelEqualsReferenceBitwise) {
  const std::vector<DiscretePdf> pool = bitwise_pool(1995);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = 0; j < pool.size(); ++j) {
      for (const std::size_t samples : {2u, 13u, 21u, 25u}) {
        SCOPED_TRACE(testing::Message() << "pair " << i << "," << j << " samples " << samples);
        expect_bitwise_equal(sum(pool[i], pool[j], samples),
                             sum_reference(pool[i], pool[j], samples));
        ++pairs;
      }
    }
  }
  EXPECT_GT(pairs, 5000u);
}

TEST(DiscretePdf, NormalAndResampledEqualReferenceBitwise) {
  util::Rng rng(2024);
  for (int k = 0; k < 200; ++k) {
    const double mean = rng.uniform(-50.0, 150.0);
    const double sigma = k % 25 == 0 ? 0.0 : rng.uniform(1e-3, 20.0);
    const double span = k % 2 == 0 ? 4.0 : rng.uniform(0.5, 6.0);
    for (const std::size_t samples : {1u, 2u, 13u, 21u, 25u}) {
      SCOPED_TRACE(testing::Message() << "normal " << k << " samples " << samples);
      expect_bitwise_equal(DiscretePdf::normal(mean, sigma, samples, span),
                           normal_reference(mean, sigma, samples, span));
    }
  }
  const std::vector<DiscretePdf> pool = bitwise_pool(1789);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (const std::size_t samples : {1u, 2u, 9u, 13u, 21u, 25u}) {
      SCOPED_TRACE(testing::Message() << "resampled " << i << " samples " << samples);
      expect_bitwise_equal(pool[i].resampled(samples), resampled_reference(pool[i], samples));
    }
  }
}

/// FNV-1a over the bit patterns of @p xs.
std::uint64_t hash_bits(std::span<const double> xs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : xs) {
    h ^= bits(x);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Golden bits of a whole FULLSSTA pass, captured before the pdf kernels were
// fused: thousands of chained sums and maxes on a real netlist must land on
// the same output pdf, bit for bit.
TEST(FusedKernels, FullSstaOnC880MatchesCapturedGoldenBits) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c880").ok());
  const ssta::FullSstaResult r = ssta::run_fullssta(flow.timing());
  EXPECT_EQ(bits(r.mean_ps), 0x409ac668ef856d32ull);   // 1713.602476200857 ps
  EXPECT_EQ(bits(r.sigma_ps), 0x405c2d1df14da5d0ull);  // 112.70495255072387 ps
  EXPECT_EQ(r.output_pdf.size(), 13u);
  EXPECT_EQ(hash_bits(r.output_pdf.mass_view()), 0x33e5cf0d40919492ull);
}

TEST(Max, CdfSweepEqualsPerPointCdfProductBitwise) {
  util::Rng rng(2005);
  std::vector<DiscretePdf> pool = {
      DiscretePdf::point(50.0),
      DiscretePdf::from_masses(40.0, 2.5, {0.0, 0.2, 0.0, 0.5, 0.3, 0.0}),
  };
  for (int k = 0; k < 24; ++k) {
    const std::size_t samples = 5 + static_cast<std::size_t>(rng.uniform(0.0, 20.0));
    pool.push_back(DiscretePdf::normal(rng.uniform(30.0, 70.0), rng.uniform(0.5, 12.0), samples));
  }
  // Derived shapes: sums, maxes and rebinned grids (skewed, trimmed supports).
  for (std::size_t k = 2; k + 1 < 26; k += 2) {
    pool.push_back(sum(pool[k], pool[k + 1], 13));
    pool.push_back(max(pool[k], pool[k + 1].shifted(rng.uniform(-8.0, 8.0)), 13));
    pool.push_back(pool[k].resampled(9));
  }
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = 0; j < pool.size(); j += 3) {
      for (const std::size_t samples : {2u, 13u, 21u}) {
        SCOPED_TRACE(testing::Message() << "pair " << i << "," << j << " samples " << samples);
        expect_bitwise_equal(max(pool[i], pool[j], samples),
                             per_point_cdf_max(pool[i], pool[j], samples));
        ++pairs;
      }
    }
  }
  EXPECT_GT(pairs, 1000u);
}

TEST(DiscretePdf, CachedMomentsEqualTheGridsMoments) {
  const DiscretePdf a = DiscretePdf::normal(100.0, 7.0, 13);
  const DiscretePdf b = DiscretePdf::from_masses(10.0, 0.5, {1.0, 3.0, 0.0, 2.0});
  // validate_pdf recomputes both moments from the grid and compares bitwise.
  for (const DiscretePdf& p : {a, b, a.shifted(3.25), a.resampled(9), b.resampled(7),
                               sum(a, b, 13), max(a, b.shifted(90.0), 13),
                               DiscretePdf::point(-0.0)}) {
    EXPECT_NO_THROW(debug::validate_pdf(p));
  }
}

}  // namespace
}  // namespace statsizer::pdf
