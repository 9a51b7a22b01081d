// Numeric building blocks shared across the library:
//  * Gaussian pdf/cdf and the paper's fast quadratic erf approximation,
//  * linear / bilinear interpolation used by NLDM table lookup,
//  * streaming statistics (Welford) used by the Monte-Carlo engine and tests,
//  * the strict unsigned parse behind the command-line tools' numeric flags.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace statsizer::util {

/// Strict unsigned decimal parse for command-line values: all of @p text
/// must be digits (no sign, whitespace or suffix) and the value at most
/// @p max; nullopt otherwise.
[[nodiscard]] inline std::optional<std::uint64_t> parse_uint(std::string_view text,
                                                            std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  const bool whole = !text.empty() && ec == std::errc() && end == text.data() + text.size();
  return whole && value <= max ? std::optional<std::uint64_t>(value) : std::nullopt;
}

/// Strict parse of a sizing lambda from the command line: all of @p text
/// must be one finite number >= 0 (no leading whitespace or suffix);
/// nullopt otherwise.
[[nodiscard]] std::optional<double> parse_lambda(const char* text);

/// Standard normal probability density phi(x) = exp(-x^2/2) / sqrt(2 pi).
[[nodiscard]] double normal_pdf(double x);

/// Standard normal CDF Phi(x) computed with std::erf (reference-accuracy path).
[[nodiscard]] double normal_cdf(double x);

/// The paper's quadratic approximation of (1/2) erf(x / sqrt(2)) (section 4.3,
/// attributed to the CRC Concise Encyclopedia of Mathematics), extended to
/// negative arguments using the oddness of erf:
///
///   0.1 * x * (4.4 - x)   for 0   <= x <= 2.2
///   0.49                  for 2.2 <  x <= 2.6
///   0.50                  for x   >  2.6
///
/// Accurate to about two decimal places; the whole point is that it needs one
/// multiply-add instead of a call into libm.
[[nodiscard]] double half_erf_over_sqrt2_fast(double x);

/// Fast standard-normal CDF built on half_erf_over_sqrt2_fast:
/// Phi(x) = 0.5 + (1/2) erf(x / sqrt 2).
[[nodiscard]] double normal_cdf_fast(double x);

/// Inverse standard normal CDF (Acklam's rational approximation, ~1e-9
/// relative accuracy). Used for quantile reporting (e.g. 99th-percentile
/// delay) and for stratified Monte-Carlo sampling.
[[nodiscard]] double normal_inv_cdf(double p);

/// Linear interpolation of y(x) over sorted breakpoints xs (ys same length).
/// Extrapolates linearly beyond the ends (NLDM convention).
[[nodiscard]] double interp1(std::span<const double> xs, std::span<const double> ys, double x);

/// Bilinear interpolation over a row-major grid values[i * xs2.size() + j]
/// with axes xs1 (rows) and xs2 (columns). Extrapolates at the borders.
[[nodiscard]] double interp2(std::span<const double> xs1, std::span<const double> xs2,
                             std::span<const double> values, double x1, double x2);

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Population variance (divide by n). Returns 0 for n < 2.
  [[nodiscard]] double variance() const;
  /// Sample variance (divide by n-1). Returns 0 for n < 2.
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Merges another accumulator (parallel Welford combine).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a sample.
[[nodiscard]] double mean_of(std::span<const double> xs);

/// Population variance of a sample.
[[nodiscard]] double variance_of(std::span<const double> xs);

/// Empirical quantile (linear interpolation between order statistics).
/// @p q in [0,1]. The input need not be sorted; a sorted copy is made.
[[nodiscard]] double quantile_of(std::span<const double> xs, double q);

/// True if |a-b| <= atol + rtol * max(|a|,|b|).
[[nodiscard]] bool close(double a, double b, double rtol = 1e-9, double atol = 1e-12);

}  // namespace statsizer::util
