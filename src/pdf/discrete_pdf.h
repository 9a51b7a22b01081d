// Discrete probability distributions on a uniform grid — the representation
// behind FULLSSTA (after Liou et al., DAC'01: pdfs discretized at a
// user-controlled sampling rate; sum and max performed by shifting, scaling
// and min/max reduction). The paper used 10-15 samples per pdf as its
// accuracy/speed tradeoff.
#pragma once

#include <cstddef>
#include <vector>

namespace statsizer::pdf {

/// A probability mass function on the uniform grid
///   x_i = origin + i * step,  i in [0, size)
/// with masses that sum to 1. step == 0 encodes a point mass (size 1).
class DiscretePdf {
 public:
  DiscretePdf() = default;

  /// Point mass at @p value.
  static DiscretePdf point(double value);

  /// Discretization of Normal(mean, sigma) over +-span_sigmas using exact bin
  /// masses (CDF differences), @p samples grid points. sigma == 0 degenerates
  /// to a point mass.
  static DiscretePdf normal(double mean, double sigma, std::size_t samples = 13,
                            double span_sigmas = 4.0);

  /// Raw construction; masses are normalized to sum 1. Throws on empty or
  /// all-zero masses, or negative entries.
  static DiscretePdf from_masses(double origin, double step, std::vector<double> masses);

  // -- grid access -------------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return mass_.size(); }
  [[nodiscard]] double origin() const { return origin_; }
  [[nodiscard]] double step() const { return step_; }
  [[nodiscard]] double value_at(std::size_t i) const { return origin_ + step_ * i; }
  [[nodiscard]] double mass_at(std::size_t i) const { return mass_[i]; }
  [[nodiscard]] const std::vector<double>& masses() const { return mass_; }
  [[nodiscard]] double min_value() const { return origin_; }
  [[nodiscard]] double max_value() const { return value_at(size() - 1); }
  [[nodiscard]] bool is_point() const { return mass_.size() == 1; }

  // -- moments / statistics ------------------------------------------------------
  /// Moments are computed once, when the pdf is constructed (every factory
  /// and transform below), and cached.
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const { return variance_; }
  [[nodiscard]] double stddev() const;
  /// P(X <= x), with linear interpolation between grid points.
  [[nodiscard]] double cdf(double x) const;
  /// Smallest grid-interpolated x with P(X <= x) >= q.
  [[nodiscard]] double quantile(double q) const;

  // -- transforms -----------------------------------------------------------------
  /// X + c.
  [[nodiscard]] DiscretePdf shifted(double c) const;
  /// Rebin onto a @p samples-point grid spanning the same range (mass is
  /// split linearly between neighbouring target bins; mean is preserved).
  [[nodiscard]] DiscretePdf resampled(std::size_t samples) const;

 private:
  /// Fills mean_/variance_ from the grid; every constructor calls it last.
  void cache_moments();

  double origin_ = 0.0;
  double step_ = 0.0;
  std::vector<double> mass_;
  double mean_ = 0.0;
  double variance_ = 0.0;
};

/// X + Y for independent X, Y: full discrete convolution, rebinned to
/// @p samples points. The result's first two moments are *exact* (pinned to
/// the analytic values via an affine grid correction); in exchange the grid
/// may extend a fraction of one bin beyond the true support.
[[nodiscard]] DiscretePdf sum(const DiscretePdf& x, const DiscretePdf& y, std::size_t samples);

/// max(X, Y) for independent X, Y via the CDF product
/// P(max <= t) = Fx(t) * Fy(t), evaluated on a @p samples-point grid. Moments
/// are pinned to the exact discrete values (same support caveat as sum).
[[nodiscard]] DiscretePdf max(const DiscretePdf& x, const DiscretePdf& y, std::size_t samples);

}  // namespace statsizer::pdf
