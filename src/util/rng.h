// Seeded random-number façade. Every stochastic component in the library
// (variation sampling, Monte-Carlo SSTA, random circuit generation) takes an
// explicit seed so that experiments are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>

namespace statsizer::util {

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
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
