#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>
#include <utility>

#include <gtest/gtest.h>

#include "util/exec.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/log.h"
#include "util/numeric.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

namespace statsizer::util {
namespace {

// ---------------------------------------------------------------------------
// normal pdf / cdf
// ---------------------------------------------------------------------------

TEST(Numeric, NormalPdfPeak) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-15);
  EXPECT_DOUBLE_EQ(normal_pdf(3.0), normal_pdf(-3.0));
}

TEST(Numeric, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(Numeric, NormalCdfMonotone) {
  double prev = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.25) {
    const double c = normal_cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

// ---------------------------------------------------------------------------
// the paper's quadratic erf approximation
// ---------------------------------------------------------------------------

TEST(FastErf, MatchesPaperBreakpoints) {
  // 0.1 x (4.4 - x) at the region boundaries.
  EXPECT_DOUBLE_EQ(half_erf_over_sqrt2_fast(0.0), 0.0);
  EXPECT_NEAR(half_erf_over_sqrt2_fast(2.2), 0.1 * 2.2 * (4.4 - 2.2), 1e-15);
  EXPECT_DOUBLE_EQ(half_erf_over_sqrt2_fast(2.4), 0.49);
  EXPECT_DOUBLE_EQ(half_erf_over_sqrt2_fast(2.7), 0.50);
  EXPECT_DOUBLE_EQ(half_erf_over_sqrt2_fast(100.0), 0.50);
}

TEST(FastErf, OddSymmetry) {
  for (double x = 0.0; x <= 4.0; x += 0.1) {
    EXPECT_DOUBLE_EQ(half_erf_over_sqrt2_fast(-x), -half_erf_over_sqrt2_fast(x));
  }
}

/// The paper claims two-decimal accuracy against (1/2) erf(x / sqrt 2).
TEST(FastErf, TwoDecimalAccuracyClaim) {
  for (double x = -5.0; x <= 5.0; x += 0.01) {
    const double exact = 0.5 * std::erf(x / std::sqrt(2.0));
    EXPECT_NEAR(half_erf_over_sqrt2_fast(x), exact, 0.011) << "x = " << x;
  }
}

TEST(FastErf, FastCdfSaturatesAtDominanceThreshold) {
  // Phi_fast(x > 2.6) == 1 exactly — this is what makes the dominance
  // early-outs (paper eqs. 5/6) lossless *under the approximation*. At 2.6
  // itself the middle branch still applies (0.49).
  EXPECT_DOUBLE_EQ(normal_cdf_fast(2.6), 0.99);
  EXPECT_DOUBLE_EQ(normal_cdf_fast(2.6000001), 1.0);
  EXPECT_DOUBLE_EQ(normal_cdf_fast(-2.6000001), 0.0);
  EXPECT_DOUBLE_EQ(normal_cdf_fast(0.0), 0.5);
}

TEST(FastErf, FastCdfAccuracy) {
  for (double x = -4.0; x <= 4.0; x += 0.05) {
    EXPECT_NEAR(normal_cdf_fast(x), normal_cdf(x), 0.011) << "x = " << x;
  }
}

// ---------------------------------------------------------------------------
// inverse normal CDF
// ---------------------------------------------------------------------------

TEST(Numeric, InverseCdfRoundTrip) {
  for (double p = 0.001; p < 1.0; p += 0.017) {
    EXPECT_NEAR(normal_cdf(normal_inv_cdf(p)), p, 1e-8) << "p = " << p;
  }
}

TEST(Numeric, InverseCdfKnownQuantiles) {
  EXPECT_NEAR(normal_inv_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_inv_cdf(0.8413447460685429), 1.0, 1e-6);
  EXPECT_NEAR(normal_inv_cdf(0.9986501019683699), 3.0, 1e-6);
}

TEST(Numeric, InverseCdfDomain) {
  EXPECT_THROW((void)normal_inv_cdf(0.0), std::domain_error);
  EXPECT_THROW((void)normal_inv_cdf(1.0), std::domain_error);
  EXPECT_THROW((void)normal_inv_cdf(-0.1), std::domain_error);
}

// ---------------------------------------------------------------------------
// interpolation
// ---------------------------------------------------------------------------

TEST(Interp, LinearInterior) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.0), 10.0);
}

TEST(Interp, LinearExtrapolation) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 3.0), 30.0);
}

TEST(Interp, SinglePoint) {
  const std::vector<double> xs = {1.0};
  const std::vector<double> ys = {42.0};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, -5.0), 42.0);
}

TEST(Interp, BilinearExactOnPlane) {
  // f(x, y) = 2x + 3y is reproduced exactly by bilinear interpolation.
  const std::vector<double> xs1 = {0.0, 1.0, 2.0};
  const std::vector<double> xs2 = {0.0, 10.0};
  std::vector<double> values;
  for (double a : xs1) {
    for (double b : xs2) values.push_back(2.0 * a + 3.0 * b);
  }
  EXPECT_DOUBLE_EQ(interp2(xs1, xs2, values, 0.5, 5.0), 2.0 * 0.5 + 3.0 * 5.0);
  EXPECT_DOUBLE_EQ(interp2(xs1, xs2, values, 1.7, 2.5), 2.0 * 1.7 + 3.0 * 2.5);
  // Corner and extrapolated points.
  EXPECT_DOUBLE_EQ(interp2(xs1, xs2, values, 2.0, 10.0), 34.0);
  EXPECT_DOUBLE_EQ(interp2(xs1, xs2, values, 3.0, 20.0), 66.0);
}

TEST(Interp, ShapeMismatchThrows) {
  const std::vector<double> xs = {0.0, 1.0};
  const std::vector<double> bad = {1.0};
  EXPECT_THROW((void)interp1(xs, bad, 0.5), std::invalid_argument);
  EXPECT_THROW((void)interp2(xs, xs, bad, 0.5, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RunningStats
// ---------------------------------------------------------------------------

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(7);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, SampleVarianceBesselCorrection) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);         // population
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);  // n-1
}

// ---------------------------------------------------------------------------
// quantiles / span stats
// ---------------------------------------------------------------------------

TEST(Quantile, OrderStatistics) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.25), 2.0);
}

TEST(Quantile, Errors) {
  const std::vector<double> empty;
  EXPECT_THROW((void)quantile_of(empty, 0.5), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)quantile_of(xs, 1.5), std::domain_error);
}

TEST(SpanStats, MeanVariance) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance_of(xs), 1.25);
}

// ---------------------------------------------------------------------------
// RNG determinism
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 40000; ++i) s.add(rng.normal(100.0, 15.0));
  EXPECT_NEAR(s.mean(), 100.0, 0.5);
  EXPECT_NEAR(s.stddev(), 15.0, 0.3);
}

TEST(Rng, IndexInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
}

// ---------------------------------------------------------------------------
// Counter-keyed draws
// ---------------------------------------------------------------------------

// Word i of stream s is output i of SplitMix64 seeded with s: the reference
// generator's published first outputs for seed 0.
TEST(KeyedRng, WordsAreSplitMix64Outputs) {
  EXPECT_EQ(keyed_bits(0, 0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(keyed_bits(0, 1), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(keyed_bits(0, 2), 0x06c45d188009454full);
  EXPECT_EQ(keyed_bits(0, 3), 0xf88bb8a8724c81ecull);
}

// The first keyed uniforms and normals of one stream, as bits. No standard-
// library distribution is involved: integer mixing and IEEE arithmetic make
// the central values, libm's log (and erfc/exp deep in the tail) the rest.
TEST(KeyedRng, PinsFirstUniformsAndNormals) {
  const std::uint64_t s = stream_seed(2005, 7);
  const std::uint64_t u[] = {0x3fe97ad6ec354739ull, 0x3fe5f9da9dee1eb9ull, 0x3fe9336219e37531ull,
                             0x3fa3aa98b360fef0ull, 0x3fa3a3da2e2f0470ull, 0x3fe7a9d81235de87ull};
  const std::uint64_t z[] = {0x3fea814cb8847ae2ull, 0x3fdf2568e44d1f6bull, 0x3fe98804eca7306dull,
                             0xbffc4f97b3a17b04ull, 0xbffc521f2953487aull, 0x3fe4893ba4bec3feull};
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(keyed_uniform(s, i)), u[i]) << "i = " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(keyed_normal(s, i)), z[i]) << "i = " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(keyed_normal(s, 8)), 0xc001d876aa7c5ea5ull);    // tail
  EXPECT_EQ(std::bit_cast<std::uint64_t>(keyed_normal(s, 987)), 0xc009d15dfb2c13feull);  // refined
}

// Phi(quantile(p)) against p, relative, on a log grid of tail masses from
// 2^-53 (the smallest keyed uniform) to 1/2, in both tails. Phi comes from
// erfc, which keeps its relative accuracy in the tail.
TEST(KeyedRng, QuantileRoundTripWithinOneE8OnBothTails) {
  const auto lower_mass = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
  for (double e = -53.0; e <= -1.0; e += 0.01) {
    const double t = std::exp2(e);
    EXPECT_LE(std::abs(lower_mass(normal_quantile(t)) - t), 1e-8 * t) << "lower, t = 2^" << e;
    const double p = 1.0 - t;  // upper tail: its mass is 1 - p, exactly
    const double mass = 1.0 - p;
    EXPECT_LE(std::abs(lower_mass(-normal_quantile(p)) - mass), 1e-8 * mass)
        << "upper, t = 2^" << e;
  }
}

TEST(KeyedRng, QuantileIsAntisymmetricOnKeyedUniforms) {
  const std::uint64_t s = stream_seed(31, 4);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double u = keyed_uniform(s, i);
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
    ASSERT_EQ(normal_quantile(1.0 - u), -normal_quantile(u)) << "u = " << u;
  }
  // The extreme keyed uniforms, (0 + 1/2) * 2^-52 and (2^52 - 1/2) * 2^-52.
  EXPECT_TRUE(std::isfinite(normal_quantile(0x1p-53)));
  EXPECT_EQ(normal_quantile(1.0 - 0x1p-53), -normal_quantile(0x1p-53));
  EXPECT_EQ(normal_inv_cdf(0x1p-53), normal_quantile(0x1p-53));
}

// Lemire's multiply-shift against the high word of the 128-bit product,
// built from 32-bit halves.
TEST(KeyedRng, IndexIsTheHighWordOfTheProduct) {
  const std::uint64_t s = stream_seed(8, 8);
  for (const std::uint64_t n : {1ull, 2ull, 3ull, 7ull, 1000003ull, 0xffffffffffull}) {
    for (std::uint64_t i = 0; i < 2000; ++i) {
      const std::uint64_t w = keyed_bits(s, i);
      const std::uint64_t wl = w & 0xffffffffu, wh = w >> 32;
      const std::uint64_t nl = n & 0xffffffffu, nh = n >> 32;
      const std::uint64_t mid = (wl * nl >> 32) + (wh * nl & 0xffffffffu) + (wl * nh & 0xffffffffu);
      const std::uint64_t high = wh * nh + (wh * nl >> 32) + (wl * nh >> 32) + (mid >> 32);
      ASSERT_EQ(keyed_index(s, i, n), high) << "n = " << n << ", i = " << i;
      ASSERT_LT(high, n);
    }
  }
}

TEST(KeyedRng, NormalMomentsAndTailMass) {
  const std::uint64_t s = stream_seed(9, 0);
  RunningStats stats;
  int below = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = keyed_normal(s, static_cast<std::uint64_t>(i));
    stats.add(z);
    if (z < -2.0) ++below;
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.012);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
  // P(Z < -2) = 0.02275; 5 standard errors at n = 200000 is 0.0017.
  EXPECT_NEAR(static_cast<double>(below) / n, 0.02275, 0.0017);
}

// ---------------------------------------------------------------------------
// Table formatter
// ---------------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"Name", "Value"});
  t.add_row({"x", "1"});
  t.add_row({"longer_name", "23456"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("longer_name"), std::string::npos);
  EXPECT_NE(s.find("| Name"), std::string::npos);
  // Every line has equal width.
  std::size_t width = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t eol = s.find('\n', pos);
    const std::size_t len = eol - pos;
    if (width == 0) width = len;
    EXPECT_EQ(len, width);
    pos = eol + 1;
  }
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.54, 0), "+54 %");
  EXPECT_EQ(fmt_pct(-0.123, 1), "-12.3 %");
}

// ---------------------------------------------------------------------------
// Status / StatusOr error propagation
// ---------------------------------------------------------------------------

TEST(Status, DefaultIsOkWithEmptyMessage) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(Status, ErrorCarriesMessage) {
  const Status s = Status::error("line 12: unknown gate type 'XNAND'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "line 12: unknown gate type 'XNAND'");
}

TEST(Status, CopyPreservesState) {
  const Status e = Status::error("boom");
  const Status copy = e;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_FALSE(copy.ok());
  EXPECT_EQ(copy.message(), "boom");
}

TEST(StatusOr, ValueSideIsOk) {
  const StatusOr<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(StatusOr, ErrorSideIsNotOk) {
  const StatusOr<int> r = Status::error("parse failed");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.status().ok());
  EXPECT_EQ(r.status().message(), "parse failed");
}

TEST(StatusOr, ArrowAndMutableAccess) {
  StatusOr<std::string> r = std::string("abc");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  r.value() += "d";
  EXPECT_EQ(*r, "abcd");
}

TEST(StatusOr, RvalueValueMovesOut) {
  StatusOr<std::string> r = std::string("payload");
  const std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

// ---------------------------------------------------------------------------
// leveled logging
// ---------------------------------------------------------------------------

/// Restores the process-global threshold so log tests cannot leak state into
/// each other (the default is kWarn — see util/log.cpp).
struct LogLevelGuard {
  LogLevel saved = log_level();
  ~LogLevelGuard() { set_log_level(saved); }
};

TEST(Log, ThresholdRoundTrips) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST(Log, LineFormatAndThresholding) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  log_line(LogLevel::kInfo, "below threshold");   // dropped
  log_line(LogLevel::kWarn, "at threshold");      // emitted
  log_line(LogLevel::kError, "above threshold");  // emitted
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out, "[warn] at threshold\n[error] above threshold\n");
}

TEST(Log, OffSilencesEverything) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::kOff);
  testing::internal::CaptureStderr();
  log_line(LogLevel::kError, "should not appear");
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

TEST(Log, StreamMacroEmitsOnDestruction) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  STATSIZER_WARN() << "gate " << 7 << " exceeded slew by " << 1.5 << " ps";
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out, "[warn] gate 7 exceeded slew by 1.5 ps\n");
}

TEST(Log, SuppressedStreamProducesNoOutput) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::kError);
  testing::internal::CaptureStderr();
  STATSIZER_DEBUG() << "optimizer pass " << 3;
  STATSIZER_INFO() << "mapped " << 128 << " gates";
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}


// ---------------------------------------------------------------------------
// Status codes
// ---------------------------------------------------------------------------

TEST(StatusCodes, FactoriesCarryCanonicalCodes) {
  EXPECT_EQ(Status().code(), StatusCode::kOk);
  EXPECT_EQ(Status::error("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::invalid_argument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::deadline_exceeded("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::resource_exhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
  // Messages are preserved verbatim across the factories.
  EXPECT_EQ(Status::invalid_argument("exact message").message(), "exact message");
}

TEST(StatusCodes, WireSpellingsAreLowerSnakeCase) {
  EXPECT_EQ(to_string(StatusCode::kOk), "ok");
  EXPECT_EQ(to_string(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(to_string(StatusCode::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_EQ(to_string(StatusCode::kCancelled), "cancelled");
  EXPECT_EQ(to_string(StatusCode::kResourceExhausted), "resource_exhausted");
  EXPECT_EQ(to_string(StatusCode::kUnavailable), "unavailable");
  EXPECT_EQ(to_string(StatusCode::kInternal), "internal");
}

TEST(StatusCodes, StatusErrorRoundTripsTheStatus) {
  try {
    throw StatusError(Status::resource_exhausted("queue full"));
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(e.status().message(), "queue full");
    EXPECT_STREQ(e.what(), "queue full");
  }
}

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, DumpIsCompactAndKeyOrdered) {
  Json j;
  j["b"] = 2;
  j["a"] = "x";
  j["c"] = true;
  j["d"] = nullptr;
  EXPECT_EQ(j.dump(), R"({"a":"x","b":2,"c":true,"d":null})");
}

TEST(Json, ParsesRoundTrips) {
  const std::string text =
      R"({"arr":[1,2.5,-3],"nested":{"s":"he\u0041llo\n"},"t":true})";
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json& j = parsed.value();
  ASSERT_TRUE(j.find("arr")->is_array());
  EXPECT_DOUBLE_EQ(j.find("arr")->as_array()[1].as_number(), 2.5);
  EXPECT_EQ(j.find("nested")->find("s")->as_string(), "heAllo\n");
  // dump() -> parse() is the identity on the value.
  auto reparsed = Json::parse(j.dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), j.dump());
}

TEST(Json, ParseErrorsAreInvalidArgumentWithOffset) {
  for (const char* bad : {"{", "[1,", "tru", "\"unterminated", "{\"a\":}", "1 2"}) {
    auto parsed = Json::parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.status().message().find("offset"), std::string::npos) << bad;
  }
}

TEST(Json, DepthBombIsRejectedNotOverflowed) {
  std::string bomb;
  for (int i = 0; i < 4000; ++i) bomb += '[';
  auto parsed = Json::parse(bomb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  Json j;
  j["inf"] = std::numeric_limits<double>::infinity();
  j["nan"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(j.dump(), R"({"inf":null,"nan":null})");
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjection, ParsesFullSpec) {
  auto rule = parse_fault_rule(
      "site=ssta/mc/chunk,scope=3,hit=2,p=0.5,delay_ms=7,code=deadline_exceeded,msg=kaboom");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  const FaultRule& r = rule.value();
  EXPECT_EQ(r.site, "ssta/mc/chunk");
  EXPECT_EQ(r.scope, 3u);
  EXPECT_EQ(r.hit, 2u);
  EXPECT_DOUBLE_EQ(r.probability, 0.5);
  EXPECT_EQ(r.delay_ms, 7u);
  EXPECT_TRUE(r.fail);
  EXPECT_EQ(r.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.message, "kaboom");
}

TEST(FaultInjection, ParseRejectsJunk) {
  EXPECT_FALSE(parse_fault_rule("").ok());
  EXPECT_FALSE(parse_fault_rule("scope=1").ok());           // no site
  EXPECT_FALSE(parse_fault_rule("site=x,hit=abc").ok());    // bad int
  EXPECT_FALSE(parse_fault_rule("site=x,code=nope").ok());  // unknown code
  EXPECT_FALSE(parse_fault_rule("site=x,bogus=1").ok());    // unknown key
}

TEST(FaultInjection, FiringIsDeterministicInSeedSiteScopeHit) {
  FaultRule rule;
  rule.site = "serve/job/start";
  rule.scope = util::kAnyScope;
  rule.hit = 0;  // every hit
  rule.probability = 0.5;
  int fired = 0;
  std::vector<bool> pattern;
  for (std::uint64_t h = 1; h <= 64; ++h) {
    const bool f = fault_rule_fires(rule, 42, "serve/job/start", 7, h);
    pattern.push_back(f);
    fired += f ? 1 : 0;
  }
  // Roughly Bernoulli(1/2)...
  EXPECT_GT(fired, 16);
  EXPECT_LT(fired, 48);
  // ...and exactly reproducible.
  for (std::uint64_t h = 1; h <= 64; ++h) {
    EXPECT_EQ(fault_rule_fires(rule, 42, "serve/job/start", 7, h), pattern[h - 1]);
  }
  // Different seed or scope gives an independent stream.
  int diff_seed = 0;
  int diff_scope = 0;
  for (std::uint64_t h = 1; h <= 64; ++h) {
    if (fault_rule_fires(rule, 43, "serve/job/start", 7, h) != pattern[h - 1]) ++diff_seed;
    if (fault_rule_fires(rule, 42, "serve/job/start", 8, h) != pattern[h - 1]) ++diff_scope;
  }
  EXPECT_GT(diff_seed, 0);
  EXPECT_GT(diff_scope, 0);
}

TEST(FaultInjection, SiteMatchingExactAndPrefix) {
  FaultRule exact;
  exact.site = "ssta/mc/chunk";
  EXPECT_TRUE(fault_rule_fires(exact, 1, "ssta/mc/chunk", 0, 1));
  EXPECT_FALSE(fault_rule_fires(exact, 1, "ssta/mc/chunkX", 0, 1));
  FaultRule prefix;
  prefix.site = "ssta/*";
  EXPECT_TRUE(fault_rule_fires(prefix, 1, "ssta/mc/chunk", 0, 1));
  EXPECT_TRUE(fault_rule_fires(prefix, 1, "ssta/fullssta/level", 0, 1));
  EXPECT_FALSE(fault_rule_fires(prefix, 1, "sta/update/level", 0, 1));
}

TEST(FaultInjection, ScopeAndHitGating) {
  FaultRule rule;
  rule.site = "s";
  rule.scope = 5;
  rule.hit = 3;
  EXPECT_FALSE(fault_rule_fires(rule, 1, "s", 4, 3));  // wrong scope
  EXPECT_FALSE(fault_rule_fires(rule, 1, "s", 5, 2));  // wrong hit
  EXPECT_TRUE(fault_rule_fires(rule, 1, "s", 5, 3));
}

// ---------------------------------------------------------------------------
// ExecContext + checkpoint
// ---------------------------------------------------------------------------

TEST(ExecCheckpoint, NoOpWithoutContext) {
  ASSERT_EQ(current_exec_context(), nullptr);
  checkpoint("anything");  // must not throw
}

TEST(ExecCheckpoint, CancellationThrowsKCancelled) {
  ExecContext ctx;
  ctx.cancel.cancel();
  const ScopedExecContext scope(ctx);
  try {
    checkpoint("unit/site");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    EXPECT_NE(e.status().message().find("unit/site"), std::string::npos);
  }
}

TEST(ExecCheckpoint, ExpiredDeadlineThrowsKDeadlineExceeded) {
  ExecContext ctx;
  ctx.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(ctx.remaining().value(), std::chrono::milliseconds(0));
  const ScopedExecContext scope(ctx);
  try {
    checkpoint("unit/site");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(ExecCheckpoint, FaultRuleFiresOnConfiguredHit) {
  FaultPlan plan;
  plan.seed = 1;
  FaultRule rule;
  rule.site = "unit/fault";
  rule.hit = 2;
  rule.code = StatusCode::kUnavailable;
  plan.rules.push_back(rule);
  ExecContext ctx;
  ctx.faults = &plan;
  const ScopedExecContext scope(ctx);
  checkpoint("unit/fault");  // hit 1: passes
  try {
    checkpoint("unit/fault");  // hit 2: fires
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(e.status().message().find("unit/fault"), std::string::npos);
  }
}

TEST(ExecCheckpoint, SuspendMasksTheContext) {
  ExecContext ctx;
  ctx.cancel.cancel();
  const ScopedExecContext scope(ctx);
  {
    const ScopedExecSuspend suspend;
    EXPECT_EQ(current_exec_context(), nullptr);
    checkpoint("unit/suspended");  // must not throw
  }
  EXPECT_EQ(current_exec_context(), &ctx);
  EXPECT_THROW(checkpoint("unit/restored"), StatusError);
}

}  // namespace
}  // namespace statsizer::util
