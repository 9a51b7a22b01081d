#include "liberty/synthetic.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <span>
#include <stdexcept>

namespace statsizer::liberty {

namespace {

// Process constants of the generator (a mainstream 90 nm process).
constexpr double kTauPs = 6.0;               ///< logical-effort time constant (FO4 ~= 5*tau)
constexpr double kCUnitFf = 1.8;             ///< input cap of a unit (X1) inverter
constexpr double kSlewSensitivity = 0.15;    ///< d(delay)/d(input slew)
constexpr double kSlewGain = 2.2;            ///< output-slew slope vs. R*C relative to delay slope
constexpr double kQuadraticLoad = 0.002;     ///< mild nonlinearity: + q * (load/drive)^2 ps
constexpr double kRiseSkew = 1.05;           ///< cell_rise = skew * nominal
constexpr double kFallSkew = 0.95;           ///< cell_fall = skew * nominal
constexpr double kAreaUnitUm2 = 0.65;        ///< um^2 per transistor at X1
constexpr double kMaxLoadPerDriveFf = 40.0;  ///< max_capacitance = this * drive
/// Drive strengths for simple, high-population cells (8 sizes)...
constexpr double kSimpleDrives[] = {1, 2, 3, 4, 6, 8, 12, 16};
/// ...and for complex cells (6 sizes), matching the paper's "6-8 sizes".
constexpr double kComplexDrives[] = {1, 2, 3, 4, 6, 8};
/// NLDM axes: input slew points (ps) and X1 load points (fF; scaled by drive).
constexpr double kSlewAxisPs[] = {5, 10, 20, 40, 80, 160, 320};
constexpr double kLoadAxisX1Ff[] = {0.5, 1, 2, 4, 8, 16, 32};

/// Pin names for a family: INV/BUF use A; AOI/OAI use A1,A2,B; MUX2 uses
/// D0,D1,S; everything else A1..An.
std::vector<std::string> pin_names(const std::string& base, std::size_t arity) {
  if (base == "INV" || base == "BUF") return {"A"};
  if (base == "AOI21" || base == "OAI21") return {"A1", "A2", "B"};
  if (base == "MUX2") return {"D0", "D1", "S"};
  std::vector<std::string> names;
  for (std::size_t i = 1; i <= arity; ++i) names.push_back("A" + std::to_string(i));
  return names;
}

std::string function_string(const std::string& base, const std::vector<std::string>& pins) {
  const auto join = [&](const char* op) {
    std::string s;
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (i > 0) {
        s += ' ';
        s += op;
        s += ' ';
      }
      s += pins[i];
    }
    return s;
  };
  if (base == "INV") return "!A";
  if (base == "BUF") return "A";
  if (base.rfind("NAND", 0) == 0) return "!(" + join("&") + ")";
  if (base.rfind("NOR", 0) == 0) return "!(" + join("|") + ")";
  if (base.rfind("AND", 0) == 0) return "(" + join("&") + ")";
  if (base.rfind("OR", 0) == 0) return "(" + join("|") + ")";
  if (base == "XOR2") return "(A1 ^ A2)";
  if (base == "XNOR2") return "!(A1 ^ A2)";
  if (base == "AOI21") return "!((A1 & A2) | B)";
  if (base == "OAI21") return "!((A1 | A2) & B)";
  if (base == "MUX2") return "((D0 & !S) | (D1 & S))";
  throw std::logic_error("function_string: unknown base " + base);
}

std::string drive_suffix(double drive) {
  char buf[32];
  if (drive == static_cast<int>(drive)) {
    std::snprintf(buf, sizeof buf, "_X%d", static_cast<int>(drive));
  } else {
    // 'P' as decimal point: X0P5.
    std::snprintf(buf, sizeof buf, "_X%gP%d", std::floor(drive),
                  static_cast<int>(std::round((drive - std::floor(drive)) * 10)));
  }
  return buf;
}

}  // namespace

const std::vector<CellSpec>& synthetic_cell_specs() {
  // Logical efforts / parasitics follow the standard static-CMOS values
  // (Logical Effort, table 4.1) with composite (AND/OR/BUF) families given
  // the effort of their input stage and the summed parasitic of both stages.
  static const std::vector<CellSpec> kSpecs = {
      {"INV", {1.0}, 1.0, 2, false},
      {"BUF", {1.0}, 2.6, 4, false},
      {"NAND2", {4.0 / 3, 4.0 / 3}, 2.0, 4, false},
      {"NAND3", {5.0 / 3, 5.0 / 3, 5.0 / 3}, 3.0, 6, false},
      {"NAND4", {2.0, 2.0, 2.0, 2.0}, 4.0, 8, false},
      {"NOR2", {5.0 / 3, 5.0 / 3}, 2.0, 4, false},
      {"NOR3", {7.0 / 3, 7.0 / 3, 7.0 / 3}, 3.0, 6, false},
      {"NOR4", {3.0, 3.0, 3.0, 3.0}, 4.0, 8, false},
      {"AND2", {4.0 / 3, 4.0 / 3}, 3.2, 6, false},
      {"AND3", {5.0 / 3, 5.0 / 3, 5.0 / 3}, 4.2, 8, true},
      {"AND4", {2.0, 2.0, 2.0, 2.0}, 5.2, 10, true},
      {"OR2", {5.0 / 3, 5.0 / 3}, 3.2, 6, false},
      {"OR3", {7.0 / 3, 7.0 / 3, 7.0 / 3}, 4.2, 8, true},
      {"OR4", {3.0, 3.0, 3.0, 3.0}, 5.2, 10, true},
      {"XOR2", {4.0, 4.0}, 4.0, 10, true},
      {"XNOR2", {4.0, 4.0}, 4.2, 10, true},
      {"AOI21", {2.0, 2.0, 5.0 / 3}, 2.8, 6, true},
      {"OAI21", {5.0 / 3, 5.0 / 3, 2.0}, 2.8, 6, true},
      {"MUX2", {2.0, 2.0, 2.7}, 3.8, 12, true},
  };
  return kSpecs;
}

Library build_synthetic_90nm(const SyntheticOptions& options) {
  Library lib("statsizer_synth90");

  for (const CellSpec& spec : synthetic_cell_specs()) {
    const std::span<const double> drives =
        spec.complex_cell ? std::span<const double>(kComplexDrives) : kSimpleDrives;
    const std::vector<std::string> pins = pin_names(spec.base_name, spec.pin_efforts.size());
    const bool inverting = spec.base_name == "INV" || spec.base_name.rfind("NAND", 0) == 0 ||
                           spec.base_name.rfind("NOR", 0) == 0 || spec.base_name == "XNOR2" ||
                           spec.base_name == "AOI21" || spec.base_name == "OAI21";

    for (const double k : drives) {
      Cell cell;
      cell.name = spec.base_name + drive_suffix(k);
      cell.drive = k;
      cell.area_um2 = kAreaUnitUm2 * spec.transistors * (0.5 + 0.5 * k);

      for (std::size_t i = 0; i < pins.size(); ++i) {
        Pin p;
        p.name = pins[i];
        p.direction = PinDirection::kInput;
        p.capacitance_ff = kCUnitFf * spec.pin_efforts[i] * k;
        p.max_transition_ps = options.max_transition_ps;
        cell.pins.push_back(std::move(p));
      }

      Pin out;
      out.name = inverting ? "ZN" : "Z";
      out.direction = PinDirection::kOutput;
      out.function = function_string(spec.base_name, pins);
      out.max_capacitance_ff = kMaxLoadPerDriveFf * k;
      out.max_transition_ps = options.max_transition_ps;

      // Load axis scales with drive so the table covers the loads this size
      // will realistically see.
      std::vector<double> load_axis(std::begin(kLoadAxisX1Ff), std::end(kLoadAxisX1Ff));
      for (double& v : load_axis) v *= k;

      for (const std::string& pin : pins) {
        TimingArc arc;
        arc.related_pin = pin;
        const auto fill = [&](Lut& lut, double skew, bool transition) {
          lut.index1.assign(std::begin(kSlewAxisPs), std::end(kSlewAxisPs));
          lut.index2 = load_axis;
          lut.values.reserve(lut.index1.size() * lut.index2.size());
          for (const double slew : lut.index1) {
            for (const double load : lut.index2) {
              const double rc = (kTauPs / kCUnitFf) * load / k;
              double v = 0.0;
              if (!transition) {
                v = kTauPs * spec.parasitic + rc + kSlewSensitivity * slew +
                    kQuadraticLoad * (load / k) * (load / k);
              } else {
                v = 1.2 * kTauPs * spec.parasitic + kSlewGain * rc + 0.10 * slew;
              }
              lut.values.push_back(v * skew);
            }
          }
        };
        fill(arc.cell_rise, kRiseSkew, false);
        fill(arc.cell_fall, kFallSkew, false);
        fill(arc.rise_transition, 1.08, true);
        fill(arc.fall_transition, 0.92, true);
        out.arcs.push_back(std::move(arc));
      }
      cell.pins.push_back(std::move(out));
      lib.add_cell(std::move(cell));
    }
  }

  if (const Status s = lib.finalize(); !s.ok()) {
    throw std::logic_error("build_synthetic_90nm produced an invalid library: " + s.message());
  }
  return lib;
}

}  // namespace statsizer::liberty
