// The max operation on Gaussian random variables (Clark, Operations Research
// 1961) and the paper's fast approximations of it (section 4.3):
//
//   a^2 = sigma_A^2 + sigma_B^2 - 2 rho sigma_A sigma_B
//   alpha = (mu_A - mu_B) / a
//   nu1 = mu_A Phi(alpha) + mu_B Phi(-alpha) + a phi(alpha)            (eq. 1)
//   nu2 = (mu_A^2+sigma_A^2) Phi(alpha) + (mu_B^2+sigma_B^2) Phi(-alpha)
//         + (mu_A+mu_B) a phi(alpha)                                   (eq. 2)
//   Var(max) = nu2 - nu1^2                                             (eq. 3)
//
// The fast path adds two ideas from the paper:
//   * dominance early-outs (eqs. 5/6): |alpha| >= 2.6  =>  the max *is* the
//     dominant input (Phi saturates under the quadratic erf approximation),
//   * the quadratic erf approximation for Phi when no early-out applies.
#pragma once

namespace statsizer::fassta {

/// Paper eqs. 5/6: at |alpha| >= 2.6 one input dominates the max, the point
/// where the quadratic erf approximation saturates.
inline constexpr double kDominanceThreshold = 2.6;

/// Gaussian moment pair.
struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

/// Result of a statistical max: moments plus the "tightness" P(A > B) ~=
/// Phi(alpha), which canonical SSTA uses to blend sensitivity coefficients.
struct ClarkResult {
  double mean = 0.0;
  double var = 0.0;
  double tightness = 0.5;
};

/// Dominance test (paper eqs. 5/6): +1 if A dominates (alpha >= threshold),
/// -1 if B dominates (alpha <= -threshold), 0 if neither. a == 0 (both
/// deterministic) falls back to comparing means.
[[nodiscard]] int dominance(double mu_a, double sigma_a, double mu_b, double sigma_b,
                            double threshold = kDominanceThreshold);

/// Reference-accuracy Clark max using std::erf, with optional correlation
/// rho between A and B.
[[nodiscard]] ClarkResult clark_max_exact(double mu_a, double sigma_a, double mu_b,
                                          double sigma_b, double rho = 0.0);

/// The paper's fast max: dominance early-out, then Clark moments with the
/// quadratic erf approximation. Assumes independence (rho = 0), which is the
/// stated inner-loop tradeoff.
[[nodiscard]] ClarkResult clark_max_fast(double mu_a, double sigma_a, double mu_b,
                                         double sigma_b);

/// clark_max_fast, bit for bit, for a caller that already holds
/// a2 = sigma_a^2 + sigma_b^2, a = sqrt(a2) and alpha = (mu_a - mu_b) / a.
[[nodiscard]] ClarkResult clark_max_fast_core(double mu_a, double sigma_a, double mu_b,
                                              double sigma_b, double a2, double a,
                                              double alpha);

/// Sensitivity of Var(max(A,B)) to mu_A via the paper's forward finite
/// difference (section 4.4): mean step h = h_frac * |mu_A| and a *coupled*
/// sigma step g = c_a * h, because mean and sigma along a path move together
/// (c is the variation model's mean-to-sigma coefficient).
[[nodiscard]] double max_var_sensitivity_mu_a(double mu_a, double sigma_a, double mu_b,
                                              double sigma_b, double h_frac, double c_a,
                                              bool use_fast = true);

}  // namespace statsizer::fassta
