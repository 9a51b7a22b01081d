#include "variation/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace statsizer::variation {

VariationModel::VariationModel(VariationParams params) : params_(params) {
  if (params_.proportional_coeff < 0.0 || params_.random_floor_ps < 0.0) {
    throw std::invalid_argument("VariationModel: negative sigma coefficients");
  }
  if (params_.global_fraction < 0.0 || params_.global_fraction > 1.0) {
    throw std::invalid_argument("VariationModel: global_fraction must be in [0,1]");
  }
}

double VariationModel::systematic_sigma_ps(double delay_ps, double drive) const {
  return params_.proportional_coeff * delay_ps / std::pow(drive, params_.size_exponent);
}

double VariationModel::sigma_ps(double delay_ps, double drive) const {
  const double s = systematic_sigma_ps(delay_ps, drive);
  const double r = params_.random_floor_ps;
  return std::sqrt(s * s + r * r);
}

double VariationModel::mean_to_sigma_coeff(double drive) const {
  return params_.proportional_coeff / std::pow(drive, params_.size_exponent);
}

double VariationModel::delay_at_ps(double delay_ps, double drive, double global_z, double z1,
                                   double z2) const {
  const double sys = systematic_sigma_ps(delay_ps, drive);
  const double shared = std::sqrt(params_.global_fraction) * sys;
  const double local = std::sqrt(1.0 - params_.global_fraction) * sys;
  const double sample = delay_ps + shared * global_z + local * z1 + params_.random_floor_ps * z2;
  return std::max(sample, kMinDelayFraction * delay_ps);
}

double VariationModel::sample_delay_ps(double delay_ps, double drive, double global_z,
                                       util::Rng& rng) const {
  const double z1 = rng.normal();
  const double z2 = rng.normal();
  return delay_at_ps(delay_ps, drive, global_z, z1, z2);
}

}  // namespace statsizer::variation
