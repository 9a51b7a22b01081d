#include "util/numeric.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace statsizer::util {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;  // 1 / sqrt(2 pi)
constexpr double kInvSqrt2 = 0.7071067811865476;    // 1 / sqrt(2)
}  // namespace

std::optional<double> parse_lambda(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  const bool whole = *text != '\0' && std::isspace(static_cast<unsigned char>(*text)) == 0 &&
                     *end == '\0';
  return whole && std::isfinite(value) && value >= 0.0 ? std::optional<double>(value)
                                                       : std::nullopt;
}

double normal_pdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

double normal_cdf(double x) { return 0.5 * (1.0 + std::erf(x * kInvSqrt2)); }

double half_erf_over_sqrt2_fast(double x) {
  // Odd extension: erf(-x) = -erf(x).
  const double ax = std::abs(x);
  double v = 0.0;
  if (ax <= 2.2) {
    v = 0.1 * ax * (4.4 - ax);
  } else if (ax <= 2.6) {
    v = 0.49;
  } else {
    v = 0.50;
  }
  return x < 0.0 ? -v : v;
}

double normal_cdf_fast(double x) { return 0.5 + half_erf_over_sqrt2_fast(x); }

double normal_inv_cdf(double p) {
  // Peter Acklam's algorithm. Valid for p in (0,1).
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("normal_inv_cdf: p must be in (0,1)");
  }
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  constexpr double phigh = 1.0 - plow;

  double q = 0.0;
  double r = 0.0;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double interp1(std::span<const double> xs, std::span<const double> ys, double x) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument("interp1: axes must be non-empty and equal-sized");
  }
  if (xs.size() == 1) return ys[0];

  // Find the segment; clamp to the outermost segments for extrapolation.
  std::size_t hi = 1;
  while (hi + 1 < xs.size() && xs[hi] < x) ++hi;
  const std::size_t lo = hi - 1;
  const double dx = xs[hi] - xs[lo];
  if (dx == 0.0) return ys[lo];
  const double t = (x - xs[lo]) / dx;
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

double interp2(std::span<const double> xs1, std::span<const double> xs2,
               std::span<const double> values, double x1, double x2) {
  if (xs1.empty() || xs2.empty() || values.size() != xs1.size() * xs2.size()) {
    throw std::invalid_argument("interp2: grid shape mismatch");
  }
  if (xs1.size() == 1) {
    return interp1(xs2, values.subspan(0, xs2.size()), x2);
  }
  if (xs2.size() == 1) {
    std::vector<double> col(xs1.size());
    for (std::size_t i = 0; i < xs1.size(); ++i) col[i] = values[i];
    return interp1(xs1, col, x1);
  }

  std::size_t i1 = 1;
  while (i1 + 1 < xs1.size() && xs1[i1] < x1) ++i1;
  const std::size_t i0 = i1 - 1;
  std::size_t j1 = 1;
  while (j1 + 1 < xs2.size() && xs2[j1] < x2) ++j1;
  const std::size_t j0 = j1 - 1;

  const double t1 = (xs1[i1] == xs1[i0]) ? 0.0 : (x1 - xs1[i0]) / (xs1[i1] - xs1[i0]);
  const double t2 = (xs2[j1] == xs2[j0]) ? 0.0 : (x2 - xs2[j0]) / (xs2[j1] - xs2[j0]);

  const auto at = [&](std::size_t i, std::size_t j) { return values[i * xs2.size() + j]; };
  const double top = at(i0, j0) + t2 * (at(i0, j1) - at(i0, j0));
  const double bot = at(i1, j0) + t2 * (at(i1, j1) - at(i1, j0));
  return top + t1 * (bot - top);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::sample_variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance_of(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double quantile_of(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile_of: empty sample");
  if (q < 0.0 || q > 1.0) throw std::domain_error("quantile_of: q outside [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double t = pos - static_cast<double>(lo);
  return sorted[lo] + t * (sorted[hi] - sorted[lo]);
}

bool close(double a, double b, double rtol, double atol) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

}  // namespace statsizer::util
