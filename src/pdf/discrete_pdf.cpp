#include "pdf/discrete_pdf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "debug/validate.h"
#include "util/check.h"
#include "util/numeric.h"

namespace statsizer::pdf {

/// from_masses() over a MassBuffer: the one normalizing constructor, so the
/// library's own transforms build pdfs without a std::vector.
DiscretePdf from_bins(double origin, double step, MassBuffer masses) {
  if (masses.size() == 0) throw std::invalid_argument("DiscretePdf: empty mass vector");
  double total = 0.0;
  for (std::size_t i = 0; i < masses.size(); ++i) {
    if (masses[i] < 0.0) throw std::invalid_argument("DiscretePdf: negative mass");
    total += masses[i];
  }
  if (total <= 0.0) throw std::invalid_argument("DiscretePdf: all-zero masses");
  for (std::size_t i = 0; i < masses.size(); ++i) masses[i] /= total;
  DiscretePdf p;
  p.origin_ = origin;
  p.step_ = masses.size() == 1 ? 0.0 : step;
  p.mass_ = std::move(masses);
  p.cache_moments();
  return p;
}

namespace {
/// Deposits @p mass at continuous position @p x onto the grid (origin, step,
/// bins), splitting linearly between the two neighbouring bins so the first
/// moment is preserved exactly.
void deposit(MassBuffer& bins, double origin, double step, double x, double mass) {
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

/// Grid half-width in sigmas for freshly produced pdfs. Without this trim the
/// support of a sum grows linearly with path depth (min/max add) while the
/// true sigma only grows as sqrt(depth); a fixed sample count would then
/// become so coarse that rebinning noise dominates the variance. Trimming to
/// a moment-based window keeps the per-bin resolution proportional to sigma
/// at any depth. Mass outside the window (~1e-6) folds into the end bins.
constexpr double kGridSpanSigmas = 5.0;

/// The CDF of @p p at non-decreasing points, in one pass: the bins wholly
/// below x are summed once, in bin order, rather than rescanned from bin 0
/// per point, so a sweep's value at x is bitwise DiscretePdf::cdf(x) (which
/// is a one-point sweep). Precondition: successive x never decrease.
class CdfSweep {
 public:
  explicit CdfSweep(const DiscretePdf& p) : p_(p) {}

  double operator()(double x) {
    if (p_.is_point()) return x >= p_.origin() ? 1.0 : 0.0;
    // Centered-bin convention: the mass at grid point v is spread uniformly
    // over [v - step/2, v + step/2], so a symmetric pdf has cdf(mean) = 0.5.
    const double step = p_.step();
    const double half = 0.5 * step;
    for (; full_ < p_.size(); ++full_) {
      const double lo = p_.value_at(full_) - half;
      if (!(x >= lo + step)) break;
      acc_ += p_.mass_at(full_);
    }
    double acc = acc_;
    if (full_ < p_.size()) {
      const double lo = p_.value_at(full_) - half;
      if (x > lo) acc += p_.mass_at(full_) * (x - lo) / step;
    }
    return std::min(acc, 1.0);
  }

 private:
  const DiscretePdf& p_;
  std::size_t full_ = 0;  ///< bins [0, full_) lie wholly below the last x
  double acc_ = 0.0;      ///< their mass, summed in bin order
};

/// Affinely rescales @p p around its mean so that its mean/variance equal the
/// externally known exact values. Grid-based sum/max unavoidably smear mass
/// across bins (each linear deposit adds ~step^2/6 of variance); left alone
/// that error *compounds exponentially with logic depth*. Both operations can
/// compute their exact result moments cheaply, so the residual error after
/// this correction is only in shape, not in the first two moments.
DiscretePdf moment_matched(const DiscretePdf& p, double mean_target, double var_target) {
  if (var_target <= 0.0) return DiscretePdf::point(mean_target);
  if (p.is_point()) return DiscretePdf::point(mean_target);
  const double mean_actual = p.mean();
  const double var_actual = p.variance();
  if (var_actual <= 0.0) return DiscretePdf::point(mean_target);
  const double r = std::sqrt(var_target / var_actual);
  // The affine map x -> mean_target + r * (x - mean_actual) preserves masses.
  MassBuffer masses(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) masses[i] = p.mass_at(i);
  return from_bins(mean_target + r * (p.origin() - mean_actual), r * p.step(),
                   std::move(masses));
}
}  // namespace

DiscretePdf DiscretePdf::point(double value) {
  DiscretePdf p;
  p.origin_ = value;
  p.step_ = 0.0;
  p.mass_ = MassBuffer(1);
  p.mass_[0] = 1.0;
  p.cache_moments();
  return p;
}

DiscretePdf DiscretePdf::normal(double mean, double sigma, std::size_t samples,
                                double span_sigmas) {
  if (sigma < 0.0) throw std::invalid_argument("DiscretePdf::normal: negative sigma");
  if (sigma == 0.0 || samples < 2) return point(mean);
  DiscretePdf p;
  const double lo = mean - span_sigmas * sigma;
  const double hi = mean + span_sigmas * sigma;
  p.origin_ = lo;
  p.step_ = (hi - lo) / static_cast<double>(samples - 1);
  p.mass_ = MassBuffer(samples);
  // Exact bin masses: each grid point owns the CDF mass of the half-open
  // interval around it (tails folded into the end bins).
  double prev_cdf = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double right_edge = (i + 1 < samples)
                                  ? (p.value_at(i) + 0.5 * p.step_ - mean) / sigma
                                  : std::numeric_limits<double>::infinity();
    const double c = (i + 1 < samples) ? util::normal_cdf(right_edge) : 1.0;
    p.mass_[i] = c - prev_cdf;
    prev_cdf = c;
  }
  p.cache_moments();
  // Tail folding biases the raw bin moments (noticeably so at coarse sample
  // counts); pin them to the requested values.
  return moment_matched(p, mean, sigma * sigma);
}

DiscretePdf DiscretePdf::restore(double origin, double step, std::span<const double> masses) {
  if (masses.empty()) throw std::invalid_argument("DiscretePdf::restore: empty grid");
  DiscretePdf p;
  p.origin_ = origin;
  p.step_ = step;
  p.mass_ = MassBuffer(masses.size());
  std::copy(masses.begin(), masses.end(), p.mass_.data());
  p.cache_moments();
  return p;
}

DiscretePdf DiscretePdf::from_masses(double origin, double step, std::vector<double> masses) {
  MassBuffer bins(masses.size());
  std::copy(masses.begin(), masses.end(), bins.data());
  return from_bins(origin, step, std::move(bins));
}

void DiscretePdf::cache_moments() {
  double m = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) m += value_at(i) * mass_[i];
  double v = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    const double d = value_at(i) - m;
    v += d * d * mass_[i];
  }
  mean_ = m;
  variance_ = v;
}

double DiscretePdf::stddev() const { return std::sqrt(variance()); }

double DiscretePdf::cdf(double x) const { return CdfSweep(*this)(x); }

double DiscretePdf::quantile(double q) const {
  if (q < 0.0 || q > 1.0) throw std::domain_error("DiscretePdf::quantile: q outside [0,1]");
  if (is_point()) return origin_;
  const double half = 0.5 * step_;
  double acc = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    if (acc + mass_[i] >= q) {
      if (mass_[i] == 0.0) return value_at(i);
      const double t = (q - acc) / mass_[i];
      return value_at(i) - half + t * step_;
    }
    acc += mass_[i];
  }
  return max_value() + half;
}

DiscretePdf DiscretePdf::shifted(double c) const {
  DiscretePdf p = *this;
  p.origin_ += c;
  p.cache_moments();
  return p;
}

DiscretePdf DiscretePdf::resampled(std::size_t samples) const {
  if (samples == 0) throw std::invalid_argument("resampled: zero samples");
  if (is_point() || samples == 1) return point(mean());
  if (samples == size()) return *this;
  DiscretePdf p;
  p.origin_ = origin_;
  p.step_ = (max_value() - origin_) / static_cast<double>(samples - 1);
  p.mass_ = MassBuffer(samples);
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    deposit(p.mass_, p.origin_, p.step_, value_at(i), mass_[i]);
  }
  p.cache_moments();
  // Rebinning smears mass across neighbouring bins; restore the moments.
  return moment_matched(p, mean(), variance());
}



DiscretePdf sum(const DiscretePdf& x, const DiscretePdf& y, std::size_t samples) {
  if (x.is_point()) return y.shifted(x.origin());
  if (y.is_point()) return x.shifted(y.origin());

  // Independence: moments of the result are exactly known — use them to pick
  // a tight grid before convolving.
  const double mu = x.mean() + y.mean();
  const double sd = std::sqrt(x.variance() + y.variance());
  const double lo = std::max(x.min_value() + y.min_value(), mu - kGridSpanSigmas * sd);
  const double hi = std::min(x.max_value() + y.max_value(), mu + kGridSpanSigmas * sd);
  if (hi <= lo) return DiscretePdf::point(mu);

  MassBuffer bins(std::max<std::size_t>(samples, 2));
  const double step = (hi - lo) / static_cast<double>(bins.size() - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x.value_at(i);
    const double xm = x.mass_at(i);
    if (xm == 0.0) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      const double m = xm * y.mass_at(j);
      if (m == 0.0) continue;
      deposit(bins, lo, step, xv + y.value_at(j), m);
    }
  }
  // Independence: exact result moments are known — pin them.
  DiscretePdf r = moment_matched(from_bins(lo, step, std::move(bins)), mu,
                                 x.variance() + y.variance());
  if constexpr (debug::kParanoid) {
    debug::validate_pdf(r);
  }
  return r;
}

DiscretePdf max(const DiscretePdf& x, const DiscretePdf& y, std::size_t samples) {
  // Degenerate cases: max with a point clips the other distribution.
  const double lo_support = std::max(x.min_value(), y.min_value());
  const double hi_support = std::max(x.max_value(), y.max_value());
  if (hi_support <= lo_support) return DiscretePdf::point(hi_support);

  // Two-pass evaluation: a coarse pass estimates the result's moments, a
  // second pass lays the final grid tightly around them (same trimming
  // rationale as in sum()).
  const std::size_t n = std::max<std::size_t>(samples, 2);
  const auto eval = [&](double lo, double hi) {
    MassBuffer bins(n);
    const double step = (hi - lo) / static_cast<double>(n - 1);
    CdfSweep fx(x);
    CdfSweep fy(y);
    double prev = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = lo + step * static_cast<double>(i);
      // Independence: F_max(t) = Fx(t) * Fy(t).
      const double c = std::min(1.0, fx(t) * fy(t));
      bins[i] = std::max(0.0, c - prev);
      prev = c;
    }
    // Guarantee total mass 1 even if the top grid point undershoots F = 1.
    bins[n - 1] += std::max(0.0, 1.0 - prev);
    return from_bins(lo, step, std::move(bins));
  };

  // Exact moments of max(X, Y) over the discrete input atoms — O(|x| * |y|),
  // used both to window the grid and to pin the result's moments.
  double e1 = 0.0;
  double e2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x.value_at(i);
    const double xm = x.mass_at(i);
    if (xm == 0.0) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      const double v = std::max(xv, y.value_at(j));
      const double m = xm * y.mass_at(j);
      e1 += v * m;
      e2 += v * v * m;
    }
  }
  const double var = std::max(0.0, e2 - e1 * e1);
  const double sd = std::sqrt(var);
  if (sd == 0.0) return DiscretePdf::point(e1);
  const double lo = std::max(lo_support, e1 - kGridSpanSigmas * sd);
  const double hi = std::min(hi_support, e1 + kGridSpanSigmas * sd);
  if (hi <= lo) return DiscretePdf::point(e1);
  DiscretePdf r = moment_matched(eval(lo, hi), e1, var);
  if constexpr (debug::kParanoid) {
    debug::validate_pdf(r);
  }
  return r;
}

}  // namespace statsizer::pdf
