// Process-variation model for gate delays.
//
// Following the paper (which cites Cong'97 and Nassif ISSCC'00), each gate
// delay gets two variation components:
//   * systematic, proportional to the gate's nominal delay and suppressed by
//     device size (Pelgrom: sigma/mu ~ 1/sqrt(W)):
//         sigma_sys = proportional_coeff * delay / drive^size_exponent
//   * unsystematic, a size-independent random floor:
//         sigma_rand = random_floor_ps
// Total sigma is their RSS. The floor is why variance reduction saturates as
// lambda grows (paper, experimental-results discussion); the drive term is
// the mechanism that lets upsizing buy variance reduction.
//
// For correlation-aware engines (canonical SSTA, Monte Carlo) a fraction
// `global_fraction` of the *systematic variance* is attributed to one global
// process variable shared by all gates; the rest is gate-independent.
// VariationModel::delay_at_ps is the one map from those standard-normal
// coordinates to a sampled delay: Monte Carlo and ISLE (ssta/isle.h) both
// draw every arc through it.
#pragma once

#include "util/rng.h"

namespace statsizer::variation {

struct VariationParams {
  /// sigma_sys at drive 1 as a fraction of delay. The default is calibrated
  /// so that mean-delay-optimized Table-1 workloads land in the paper's
  /// "original sigma/mu" band (see EXPERIMENTS.md, calibration notes).
  double proportional_coeff = 0.9;
  /// Exponent on drive. The paper: "gate performance variations inversely
  /// proportional to their dimensions" — i.e. 1.0. (0.5 would be the Pelgrom
  /// sqrt-area law; kept as a knob for the ablation bench.)
  double size_exponent = 1.0;
  double random_floor_ps = 2.5;      ///< unsystematic sigma per gate
  double global_fraction = 0.0;      ///< share of systematic variance that is global
};

/// Sampling truncation: a sampled delay is >= this * nominal.
inline constexpr double kMinDelayFraction = 0.05;

/// Maps (nominal delay, drive strength) to delay sigma; samples delays.
class VariationModel {
 public:
  VariationModel() = default;
  explicit VariationModel(VariationParams params);

  [[nodiscard]] const VariationParams& params() const { return params_; }

  /// Systematic (size-suppressed) component.
  [[nodiscard]] double systematic_sigma_ps(double delay_ps, double drive) const;

  /// Unsystematic floor.
  [[nodiscard]] double random_sigma_ps() const { return params_.random_floor_ps; }

  /// Total sigma: RSS of the two components.
  [[nodiscard]] double sigma_ps(double delay_ps, double drive) const;

  /// The paper's coefficient `c` linking a change in mean delay to the
  /// accompanying change in sigma along a path (section 4.4): we use the
  /// systematic proportionality at the given drive.
  [[nodiscard]] double mean_to_sigma_coeff(double drive) const;

  /// The one arc-sampling map: the delay at standard-normal coordinates
  /// @p global_z (the shared process variable), @p z1 (local) and @p z2
  /// (floor), delay + sqrt(gf) * sys * global_z + sqrt(1 - gf) * sys * z1 +
  /// floor * z2, truncated below at kMinDelayFraction * nominal (delays
  /// cannot go negative). ISLE evaluates it at shifted coordinates.
  [[nodiscard]] double delay_at_ps(double delay_ps, double drive, double global_z, double z1,
                                   double z2) const;

  /// Draws one delay sample: z1, then z2 from @p rng, mapped by delay_at_ps.
  /// @p global_z is this sample's draw of the shared process variable
  /// (ignored if global_fraction = 0).
  [[nodiscard]] double sample_delay_ps(double delay_ps, double drive, double global_z,
                                       util::Rng& rng) const;

 private:
  VariationParams params_;
};

}  // namespace statsizer::variation
