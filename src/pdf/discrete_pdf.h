// Discrete probability distributions on a uniform grid — the representation
// behind FULLSSTA (after Liou et al., DAC'01: pdfs discretized at a
// user-controlled sampling rate; sum and max performed by shifting, scaling
// and min/max reduction). The paper used 10-15 samples per pdf as its
// accuracy/speed tradeoff.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace statsizer::pdf {

/// A pdf's grid masses. Grids of up to kInline samples (the paper's 10-15
/// and every engine default) live inline, so constructing, copying and
/// combining such pdfs never touches the heap; larger grids spill to one
/// heap block. Only storage: values and arithmetic are those of the
/// std::vector it replaces.
class MassBuffer {
 public:
  static constexpr std::size_t kInline = 16;

  MassBuffer() = default;
  /// @p n zero masses.
  explicit MassBuffer(std::size_t n) : size_(n) {
    if (n > kInline) heap_ = std::make_unique<double[]>(n);
    std::fill_n(data(), n, 0.0);
  }
  MassBuffer(const MassBuffer& o) : size_(o.size_) {
    if (size_ > kInline) heap_ = std::make_unique_for_overwrite<double[]>(size_);
    std::copy_n(o.data(), size_, data());
  }
  MassBuffer(MassBuffer&& o) noexcept : size_(o.size_), heap_(std::move(o.heap_)) {
    if (!heap_) std::copy_n(o.inline_, size_, inline_);
    o.size_ = 0;
  }
  MassBuffer& operator=(const MassBuffer& o) {
    if (this == &o) return *this;
    if (o.size_ <= kInline) {
      heap_.reset();
    } else if (!heap_ || size_ != o.size_) {
      heap_ = std::make_unique_for_overwrite<double[]>(o.size_);
    }
    size_ = o.size_;
    std::copy_n(o.data(), size_, data());
    return *this;
  }
  MassBuffer& operator=(MassBuffer&& o) noexcept {
    size_ = o.size_;
    heap_ = std::move(o.heap_);
    if (!heap_) std::copy_n(o.inline_, size_, inline_);
    o.size_ = 0;
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double* data() { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] const double* data() const { return heap_ ? heap_.get() : inline_; }
  double& operator[](std::size_t i) { return data()[i]; }
  double operator[](std::size_t i) const { return data()[i]; }
  double& front() { return data()[0]; }
  double& back() { return data()[size_ - 1]; }

 private:
  std::size_t size_ = 0;
  std::unique_ptr<double[]> heap_;  ///< set only when size_ > kInline
  double inline_[kInline];          ///< [0, size_) live when heap_ is null
};

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
  /// The masses, viewed in place.
  [[nodiscard]] std::span<const double> mass_view() const { return {mass_.data(), mass_.size()}; }
  /// A copy of the masses.
  [[nodiscard]] std::vector<double> masses() const {
    return std::vector<double>(mass_view().begin(), mass_view().end());
  }
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
  friend DiscretePdf from_bins(double origin, double step, MassBuffer masses);

  /// Fills mean_/variance_ from the grid; every constructor calls it last.
  void cache_moments();

  double origin_ = 0.0;
  double step_ = 0.0;
  MassBuffer mass_;
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
