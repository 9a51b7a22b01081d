#include "pdf/discrete_pdf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "debug/validate.h"
#include "util/check.h"
#include "util/numeric.h"

namespace statsizer::pdf {

namespace {
/// The total of @p masses, summed in order. Throws on an empty grid, a
/// negative mass or all-zero masses.
double checked_total(const MassBuffer& masses) {
  if (masses.size() == 0) throw std::invalid_argument("DiscretePdf: empty mass vector");
  const double* m = masses.data();
  double total = 0.0;
  for (std::size_t i = 0; i < masses.size(); ++i) {
    if (m[i] < 0.0) throw std::invalid_argument("DiscretePdf: negative mass");
    total += m[i];
  }
  if (total <= 0.0) throw std::invalid_argument("DiscretePdf: all-zero masses");
  return total;
}

/// Deposits @p mass at grid position @p pos (in steps from bin 0) onto the
/// @p n >= 2 bins at @p bins, splitting it linearly between the two
/// neighbouring bins so the first moment is preserved exactly. Mass beyond
/// either end folds into the end bin.
inline void deposit(double* bins, std::size_t n, double pos, double mass) {
  if (pos <= 0.0) {
    bins[0] += mass;
    return;
  }
  if (pos >= static_cast<double>(n - 1)) {
    bins[n - 1] += mass;
    return;
  }
  const auto lo = static_cast<std::ptrdiff_t>(pos);
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
}  // namespace

/// Pins the grid (origin, step, masses) to the exactly known moments
/// @p mean / @p var by an affine rescale about the grid's own mean. Grid sums
/// and maxes smear mass across bins (each linear deposit adds ~step^2/6 of
/// variance), an error that left alone *compounds exponentially with logic
/// depth*; pinned, only the shape is off. Bitwise from_masses, then
/// from_masses of the mapped grid, fused over one buffer. Grids measured
/// unnormalized (normal, resampled) pass @p normalize_first = false and are
/// checked only once the map is needed.
DiscretePdf pinned(double origin, double step, MassBuffer masses, double mean, double var,
                   bool normalize_first) {
  const double norm = normalize_first ? checked_total(masses) : 1.0;
  const std::size_t n = masses.size();
  double* w = masses.data();
  // One pass normalizes and takes the grid's mean and the total the mapped
  // grid is renormalized by; a second takes the variance.
  double mean_actual = 0.0;
  double total = 0.0;
  bool negative = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (normalize_first) w[i] /= norm;
    mean_actual += (origin + step * grid_index(i)) * w[i];
    total += w[i];
    negative = negative || w[i] < 0.0;
  }
  double var_actual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (origin + step * grid_index(i)) - mean_actual;
    var_actual += d * d * w[i];
  }
  if (var <= 0.0 || n == 1 || var_actual <= 0.0) return DiscretePdf::point(mean);
  if (negative) throw std::invalid_argument("DiscretePdf: negative mass");
  if (total <= 0.0) throw std::invalid_argument("DiscretePdf: all-zero masses");
  const double r = std::sqrt(var / var_actual);
  // The affine map x -> mean + r * (x - mean_actual) preserves masses.
  DiscretePdf p;
  p.origin_ = mean + r * (origin - mean_actual);
  p.step_ = r * step;
  for (std::size_t i = 0; i < n; ++i) w[i] /= total;
  p.mass_ = std::move(masses);
  p.cache_moments();
  return p;
}

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
  const double lo = mean - span_sigmas * sigma;
  const double hi = mean + span_sigmas * sigma;
  const double step = (hi - lo) / static_cast<double>(samples - 1);
  MassBuffer masses(samples);
  // Exact bin masses: each grid point owns the CDF mass of the half-open
  // interval around it (tails folded into the end bins).
  double prev_cdf = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double c = (i + 1 < samples)
                         ? util::normal_cdf((lo + step * grid_index(i) + 0.5 * step - mean) / sigma)
                         : 1.0;
    masses[i] = c - prev_cdf;
    prev_cdf = c;
  }
  // Tail folding biases the raw bin moments (noticeably so at coarse sample
  // counts); pin them to the requested values.
  return pinned(lo, step, std::move(masses), mean, sigma * sigma, false);
}

DiscretePdf DiscretePdf::restore(double origin, double step, std::span<const double> masses) {
  DiscretePdf p = restore(origin, step, masses, 0.0, 0.0);
  p.cache_moments();
  return p;
}

DiscretePdf DiscretePdf::restore(double origin, double step, std::span<const double> masses,
                                 double mean, double variance) {
  if (masses.empty()) throw std::invalid_argument("DiscretePdf::restore: empty grid");
  DiscretePdf p;
  p.origin_ = origin;
  p.step_ = step;
  p.mass_ = MassBuffer(masses.size());
  std::copy(masses.begin(), masses.end(), p.mass_.data());
  p.mean_ = mean;
  p.variance_ = variance;
  return p;
}

DiscretePdf DiscretePdf::from_masses(double origin, double step, std::vector<double> masses) {
  DiscretePdf p;
  p.mass_ = MassBuffer(masses.size());
  std::copy(masses.begin(), masses.end(), p.mass_.data());
  const double total = checked_total(p.mass_);
  for (std::size_t i = 0; i < p.size(); ++i) p.mass_[i] /= total;
  p.origin_ = origin;
  p.step_ = p.size() == 1 ? 0.0 : step;
  p.cache_moments();
  return p;
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
  const double step = (max_value() - origin_) / static_cast<double>(samples - 1);
  MassBuffer bins(samples);
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    // A flat (step 0) target grid takes every mass in its first bin.
    const double pos = step == 0.0 ? 0.0 : (value_at(i) - origin_) / step;
    deposit(bins.data(), samples, pos, mass_[i]);
  }
  // Rebinning smears mass across neighbouring bins; restore the moments.
  return pinned(origin_, step, std::move(bins), mean(), variance(), false);
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
  const std::size_t n = std::max<std::size_t>(samples, 2);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  // An underflowed step would put every pair in bin 0, which pins to mu.
  if (hi <= lo || step == 0.0) return DiscretePdf::point(mu);

  // The y grid in kInline-wide lanes, zero-mass padded: each x row computes a
  // block of positions and masses in one fixed-width loop (which the compiler
  // vectorizes), then deposits it pair by pair in (i, j) order.
  constexpr std::size_t kLanes = MassBuffer::kInline;
  const std::size_t width = (y.size() + kLanes - 1) / kLanes * kLanes;
  MassBuffer yv(width), ym(width);
  for (std::size_t j = 0; j < y.size(); ++j) {
    yv[j] = y.value_at(j);
    ym[j] = y.mass_at(j);
  }
  MassBuffer bins(n);
  double* out = bins.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x.value_at(i);
    const double xm = x.mass_at(i);
    if (xm == 0.0) continue;
    for (std::size_t j0 = 0; j0 < width; j0 += kLanes) {
      const double* v = yv.data() + j0;
      const double* w = ym.data() + j0;
      double pos[kLanes];
      double m[kLanes];
      for (std::size_t k = 0; k < kLanes; ++k) {
        pos[k] = ((xv + v[k]) - lo) / step;
        m[k] = xm * w[k];
      }
      const std::size_t live = std::min(kLanes, y.size() - j0);
      for (std::size_t k = 0; k < live; ++k) deposit(out, n, pos[k], m[k]);
    }
  }
  // Independence: exact result moments are known — pin them.
  DiscretePdf r = pinned(lo, step, std::move(bins), mu, x.variance() + y.variance(), true);
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

  // Exact moments of max(X, Y) over the discrete input atoms — O(|x| * |y|),
  // used both to window the grid tightly (same trimming rationale as in
  // sum()) and to pin the result's moments.
  MassBuffer yvals(y.size());
  for (std::size_t j = 0; j < y.size(); ++j) yvals[j] = y.value_at(j);
  const double* yv = yvals.data();
  const double* ym = y.mass_view().data();
  double e1 = 0.0;
  double e2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x.value_at(i);
    const double xm = x.mass_at(i);
    if (xm == 0.0) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      const double v = std::max(xv, yv[j]);
      const double m = xm * ym[j];
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

  // The CDF product P(max <= t) = Fx(t) * Fy(t) (independence) on the grid.
  const std::size_t n = std::max<std::size_t>(samples, 2);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  MassBuffer bins(n);
  double* out = bins.data();
  CdfSweep fx(x);
  CdfSweep fy(y);
  double prev = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = lo + step * grid_index(i);
    const double c = std::min(1.0, fx(t) * fy(t));
    out[i] = std::max(0.0, c - prev);
    prev = c;
  }
  // Guarantee total mass 1 even if the top grid point undershoots F = 1.
  out[n - 1] += std::max(0.0, 1.0 - prev);
  DiscretePdf r = pinned(lo, step, std::move(bins), e1, var, true);
  if constexpr (debug::kParanoid) {
    debug::validate_pdf(r);
  }
  return r;
}

}  // namespace statsizer::pdf
