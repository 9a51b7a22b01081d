// Synthetic 90 nm standard-cell library.
//
// The paper sized circuits against "an industrial 90nm lookup-table based
// standard cell library with 6-8 sizes per gate type" — not redistributable.
// This generator builds a physically-plausible stand-in from logical-effort
// parameters (Sutherland/Sproull/Harris):
//
//   delay(slew, load) = tau * p  +  (tau / c_unit) * load / drive
//                       + slew_sensitivity * slew  (+ mild quadratic load term)
//   input cap(pin)    = c_unit * g_pin * drive
//   area              = base_area * (0.5 + 0.5 * drive)
//
// sampled onto 7x7 (slew x load) NLDM tables whose load axis scales with the
// cell drive, exactly as production libraries do. What matters for sizing
// experiments — delay falls and cap/area rise with drive, delay rises with
// load — is real physics here, not curve fitting.
#pragma once

#include <vector>

#include "liberty/model.h"

namespace statsizer::liberty {

/// Knobs for the generator; its process constants are fixed in synthetic.cpp.
struct SyntheticOptions {
  double max_transition_ps = 800.0;  ///< max_transition on every pin (0 = none)
};

/// Builds the finalized synthetic library (19 cell groups, ~130 cells).
[[nodiscard]] Library build_synthetic_90nm(const SyntheticOptions& options = {});

/// Logical-effort description of one cell family, exposed for tests/ablations.
struct CellSpec {
  std::string base_name;           ///< e.g. "NAND2"
  std::vector<double> pin_efforts; ///< logical effort g per input pin
  double parasitic;                ///< parasitic delay p (in tau units)
  int transistors;                 ///< area proxy
  bool complex_cell;               ///< chooses the 6-size list over the 8-size list
};

/// The cell families the synthetic library instantiates.
[[nodiscard]] const std::vector<CellSpec>& synthetic_cell_specs();

}  // namespace statsizer::liberty
