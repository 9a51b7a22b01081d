#include "fassta/clark.h"

#include <algorithm>
#include <cmath>

#include "util/numeric.h"

namespace statsizer::fassta {

namespace {

/// Shared Clark evaluation once Phi(alpha) / phi(alpha) are chosen.
ClarkResult clark_core(double mu_a, double sigma_a, double mu_b, double sigma_b, double a,
                       double phi_alpha, double cdf_alpha) {
  const double cdf_neg = 1.0 - cdf_alpha;
  ClarkResult r;
  r.tightness = cdf_alpha;
  r.mean = mu_a * cdf_alpha + mu_b * cdf_neg + a * phi_alpha;
  const double nu2 = (mu_a * mu_a + sigma_a * sigma_a) * cdf_alpha +
                     (mu_b * mu_b + sigma_b * sigma_b) * cdf_neg +
                     (mu_a + mu_b) * a * phi_alpha;
  r.var = std::max(0.0, nu2 - r.mean * r.mean);
  return r;
}

ClarkResult degenerate_max(double mu_a, double sigma_a, double mu_b, double sigma_b) {
  // a == 0: identical-variance, perfectly-tracking inputs (or two
  // deterministic values): the max is whichever mean is larger.
  ClarkResult r;
  if (mu_a >= mu_b) {
    r.mean = mu_a;
    r.var = sigma_a * sigma_a;
    r.tightness = 1.0;
  } else {
    r.mean = mu_b;
    r.var = sigma_b * sigma_b;
    r.tightness = 0.0;
  }
  return r;
}

}  // namespace

int dominance(double mu_a, double sigma_a, double mu_b, double sigma_b, double threshold) {
  const double a2 = sigma_a * sigma_a + sigma_b * sigma_b;
  if (a2 <= 0.0) return mu_a >= mu_b ? +1 : -1;
  const double alpha = (mu_a - mu_b) / std::sqrt(a2);
  if (alpha >= threshold) return +1;
  if (alpha <= -threshold) return -1;
  return 0;
}

ClarkResult clark_max_exact(double mu_a, double sigma_a, double mu_b, double sigma_b,
                            double rho) {
  const double a2 =
      sigma_a * sigma_a + sigma_b * sigma_b - 2.0 * rho * sigma_a * sigma_b;
  if (a2 <= 1e-24) return degenerate_max(mu_a, sigma_a, mu_b, sigma_b);
  const double a = std::sqrt(a2);
  const double alpha = (mu_a - mu_b) / a;
  return clark_core(mu_a, sigma_a, mu_b, sigma_b, a, util::normal_pdf(alpha),
                    util::normal_cdf(alpha));
}

ClarkResult clark_max_fast(double mu_a, double sigma_a, double mu_b, double sigma_b) {
  const double a2 = sigma_a * sigma_a + sigma_b * sigma_b;
  const double a = std::sqrt(a2);
  return clark_max_fast_core(mu_a, sigma_a, mu_b, sigma_b, a2, a, (mu_a - mu_b) / a);
}

ClarkResult clark_max_fast_core(double mu_a, double sigma_a, double mu_b, double sigma_b,
                                double a2, double a, double alpha) {
  if (a2 <= 1e-24) return degenerate_max(mu_a, sigma_a, mu_b, sigma_b);

  // Paper eqs. (5)/(6): the quadratic erf approximation saturates at
  // |alpha| = 2.6 — beyond it, Phi = 1, phi = 0 and the dominant input's
  // moments pass through unchanged. No further math needed.
  if (alpha >= kDominanceThreshold) return ClarkResult{mu_a, sigma_a * sigma_a, 1.0};
  if (alpha <= -kDominanceThreshold) return ClarkResult{mu_b, sigma_b * sigma_b, 0.0};

  return clark_core(mu_a, sigma_a, mu_b, sigma_b, a, util::normal_pdf(alpha),
                    util::normal_cdf_fast(alpha));
}

double max_var_sensitivity_mu_a(double mu_a, double sigma_a, double mu_b, double sigma_b,
                                double h_frac, double c_a, bool use_fast) {
  const auto var_of = [&](double ma, double sa, double mb, double sb) {
    return use_fast ? clark_max_fast(ma, sa, mb, sb).var
                    : clark_max_exact(ma, sa, mb, sb).var;
  };
  const double h = std::max(h_frac * std::abs(mu_a), 1e-6);
  const double g = c_a * h;  // coupled sigma movement along the path
  const double base = var_of(mu_a, sigma_a, mu_b, sigma_b);
  const double bumped = var_of(mu_a + h, sigma_a + g, mu_b, sigma_b);
  return (bumped - base) / h;
}

}  // namespace statsizer::fassta
