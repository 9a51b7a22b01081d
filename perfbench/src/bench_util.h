// Small helpers shared by the perfbench program: a seeded generator that is
// independent of the library's own RNG (so a library RNG change never alters
// the benchmark's inputs), wall-clock timing, order statistics, result
// digests, and process resource usage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64 stream: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent seed for sub-stream @p index of @p seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Seconds on the steady clock.
double now_s();

/// Median of @p v (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> v);

/// A percentile reported only where enough samples lie beyond it to say
/// something about the tail: at least kMinBeyond samples must rank above it.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;
  double value = 0.0;
  double q = 0.0;           ///< the percentile reported (<= the one asked for)
  std::size_t samples = 0;  ///< sample count the value was taken from
  std::size_t beyond = 0;   ///< samples ranked above the reported one
  bool ok = false;          ///< the requested percentile had kMinBeyond beyond it
};

/// Nearest-rank percentile @p q in (0, 1) of @p v. When fewer than
/// kMinBeyond samples lie beyond it, the highest percentile that has them is
/// reported instead (ok = false).
Percentile percentile(std::vector<double> v, double q);

/// FNV-1a over raw bytes; feed doubles by bit pattern.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add(double d) { add_bytes(&d, sizeof d); }
  void add(std::uint64_t u) { add_bytes(&u, sizeof u); }
  void add(const std::vector<std::uint16_t>& v) { add_bytes(v.data(), v.size() * sizeof(v[0])); }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
