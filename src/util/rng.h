// Seeded random-number façade. Every stochastic component in the library
// (variation sampling, Monte-Carlo SSTA, random circuit generation) takes an
// explicit seed so that experiments are reproducible bit-for-bit.
//
// Two kinds of draws live here. The sample loop (ssta/sample_loop.h) draws
// through the counter-keyed functions (keyed_bits and the maps on top of
// it): every number is a pure function of its key, built from integer
// arithmetic, IEEE operations and libm's log/exp/erfc, so its bits do not
// depend on the standard library's distributions or on the order in which
// keys are visited. Circuit generators and the logic simulator still draw
// from the stateful Rng.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace statsizer::util {

/// SplitMix64's increment: the 64-bit golden-ratio constant.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter-based stream derivation: maps (seed, index) to an independent
/// stream seed through two SplitMix64 rounds. Stream i depends only on
/// (seed, i) — never on which thread or in what order it is drawn — which is
/// what makes the parallel Monte-Carlo engine bitwise-deterministic for any
/// thread count.
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(splitmix64(seed) ^ splitmix64(index + 0x6a09e667f3bcc909ULL));
}

/// Word @p i of the counter-keyed stream @p stream: output i of a SplitMix64
/// generator seeded with @p stream, reached without stepping through the
/// outputs before it.
[[nodiscard]] constexpr std::uint64_t keyed_bits(std::uint64_t stream, std::uint64_t i) {
  return splitmix64(stream + i * kGoldenGamma);
}

/// The uniform (m + 1/2) * 2^-52 on the word's top 52 bits m. Every value is
/// exact and strictly inside (0, 1), and 1 - u is again such a value. (With
/// 53 bits, m + 1/2 needs 54 significant bits: it rounds, and the top word
/// rounds to u = 1, where the normal quantile is infinite.)
[[nodiscard]] constexpr double keyed_uniform(std::uint64_t stream, std::uint64_t i) {
  return (static_cast<double>(keyed_bits(stream, i) >> 12) + 0.5) * 0x1p-52;
}

/// A uniform index in [0, n) from the word's high bits: Lemire's
/// multiply-shift, floor(word * n / 2^64). Its bias is below n / 2^64.
[[nodiscard]] inline std::uint64_t keyed_index(std::uint64_t stream, std::uint64_t i,
                                               std::uint64_t n) {
  __extension__ using Wide = unsigned __int128;
  return static_cast<std::uint64_t>((Wide{keyed_bits(stream, i)} * n) >> 64);
}

/// The standard normal quantile for p in (0, 1), without a domain check:
/// Acklam's rational approximation (relative error below 1.15e-9). Its round
/// trip Phi(quantile(p)) stays within 8.6e-9 of p, relative, while the
/// lower-tail mass t = min(p, 1 - p) is at least 2^-10, but misses by up to
/// 6.5e-8 deeper in; there (0.2% of uniform draws) one Halley step on erfc
/// brings it within 1e-8. The upper tail is the negated lower tail at
/// 1 - p, so quantile(1 - u) == -quantile(u) bitwise for every
/// keyed_uniform u.
[[nodiscard]] inline double normal_quantile(double p) noexcept {
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  constexpr double phigh = 1.0 - plow;
  if (p >= plow && p <= phigh) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  // x is the lower-tail quantile of t = min(p, 1 - p).
  const double t = p < plow ? p : 1.0 - p;
  const double q = std::sqrt(-2.0 * std::log(t));
  double x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
             ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  if (t < 0x1p-10) {
    // Halley: e = Phi(x) - t with Phi(x) = erfc(-x / sqrt 2) / 2, accurate
    // for x < 0; u = e / phi(x).
    constexpr double kInvSqrt2 = 0.7071067811865476;
    constexpr double kSqrt2Pi = 2.5066282746310002;
    const double e = 0.5 * std::erfc(-x * kInvSqrt2) - t;
    const double u = e * kSqrt2Pi * std::exp(0.5 * x * x);
    x = x - u / (1.0 + 0.5 * x * u);
  }
  return p < plow ? x : -x;
}

/// Standard normal for key (stream, i): normal_quantile(keyed_uniform).
[[nodiscard]] inline double keyed_normal(std::uint64_t stream, std::uint64_t i) {
  return normal_quantile(keyed_uniform(stream, i));
}

/// Deterministic RNG wrapper around std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Standard normal draw.
  [[nodiscard]] double normal() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double sigma) { return mean + sigma * normal(); }

  /// Uniform draw in [0, 1).
  [[nodiscard]] double uniform() { return uniform_(engine_); }

  /// Uniform draw in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  [[nodiscard]] std::uint64_t index(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
  }

  /// Bernoulli draw.
  [[nodiscard]] bool flip(double p = 0.5) { return uniform() < p; }

 private:
  std::mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

}  // namespace statsizer::util
