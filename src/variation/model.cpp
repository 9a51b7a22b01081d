#include "variation/model.h"

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

ArcTerms VariationModel::arc_terms(double delay_ps, double drive) const {
  const double sys = systematic_sigma_ps(delay_ps, drive);
  return ArcTerms{delay_ps, std::sqrt(params_.global_fraction) * sys,
                  std::sqrt(1.0 - params_.global_fraction) * sys};
}

}  // namespace statsizer::variation
