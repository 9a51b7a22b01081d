// Standard-cell library data model: a pragmatic subset of the Liberty format
// sufficient for NLDM timing (lookup tables over input slew x output load),
// pin capacitances, areas, and drive-strength cell groups for sizing.
//
// Unit conventions across the whole library (declared in emitted Liberty
// text): time in picoseconds, capacitance in femtofarads, area in um^2.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.h"
#include "util/status.h"

namespace statsizer::liberty {

/// Two-dimensional NLDM lookup table: index1 = input slew (ps),
/// index2 = output load (fF), values row-major [index1][index2].
/// A 1x1 table is a scalar; 1xN / Nx1 degenerate to 1-D interpolation.
struct Lut {
  std::vector<double> index1;
  std::vector<double> index2;
  std::vector<double> values;

  /// Bilinear interpolation with linear extrapolation beyond the grid.
  [[nodiscard]] double lookup(double slew_ps, double load_ff) const;

  [[nodiscard]] bool empty() const { return values.empty(); }
  [[nodiscard]] bool shape_ok() const {
    return values.size() == std::max<std::size_t>(1, index1.size()) *
                                std::max<std::size_t>(1, index2.size());
  }
};

/// One timing arc of an output pin: input pin -> output pin delay/slew model.
struct TimingArc {
  std::string related_pin;
  Lut cell_rise;
  Lut cell_fall;
  Lut rise_transition;
  Lut fall_transition;

  /// Worst-case (max of rise/fall) delay — the library runs single-valued
  /// worst-slope analysis, which is the convention the paper's delay model
  /// implies.
  [[nodiscard]] double delay(double slew_ps, double load_ff) const;

  /// Worst-case output transition.
  [[nodiscard]] double output_slew(double slew_ps, double load_ff) const;
};

enum class PinDirection : std::uint8_t { kInput, kOutput };

struct Pin {
  std::string name;
  PinDirection direction = PinDirection::kInput;
  double capacitance_ff = 0.0;     ///< input pins
  double max_capacitance_ff = 0.0; ///< output pins; 0 = unconstrained
  double max_transition_ps = 0.0;  ///< slew limit at this pin; 0 = unconstrained
  std::string function;            ///< output pins, Liberty boolean expression
  std::vector<TimingArc> arcs;     ///< output pins, one per related input
};

/// A library cell ("NAND2_X4"). Cells are immutable after library load.
struct Cell {
  std::string name;
  double area_um2 = 0.0;
  /// Relative drive strength parsed from the _X<k> suffix (1.0 if absent).
  double drive = 1.0;
  std::vector<Pin> pins;

  /// The single output pin (this library models single-output cells).
  [[nodiscard]] const Pin& output() const;
  /// Input pins in declaration order.
  [[nodiscard]] std::vector<const Pin*> input_pins() const;
  /// Capacitance of the i-th input pin.
  [[nodiscard]] double input_cap_ff(std::size_t i) const;
  /// Timing arc from the i-th input pin to the output.
  [[nodiscard]] const TimingArc& arc_from(std::size_t i) const;
  /// Number of input pins.
  [[nodiscard]] std::size_t arity() const;
};

/// Cells implementing the same function at different drive strengths,
/// sorted by ascending drive. size_index in the netlist indexes sizes().
class CellGroup {
 public:
  CellGroup(std::string base_name, netlist::GateFunc func, std::size_t arity)
      : base_name_(std::move(base_name)), func_(func), arity_(arity) {}

  [[nodiscard]] const std::string& base_name() const { return base_name_; }
  [[nodiscard]] netlist::GateFunc func() const { return func_; }
  [[nodiscard]] std::size_t arity() const { return arity_; }
  [[nodiscard]] std::span<const std::uint32_t> sizes() const { return cell_indices_; }
  [[nodiscard]] std::size_t size_count() const { return cell_indices_.size(); }

  void add_cell_index(std::uint32_t index) { cell_indices_.push_back(index); }
  void sort_by_drive(const std::vector<Cell>& cells);

 private:
  std::string base_name_;
  netlist::GateFunc func_;
  std::size_t arity_ = 0;
  std::vector<std::uint32_t> cell_indices_;
};

/// Maps a cell base name ("NAND3") to its netlist function and arity;
/// nullopt for base names the netlist layer does not model.
struct BaseFunc {
  netlist::GateFunc func;
  std::size_t arity;
};
[[nodiscard]] std::optional<BaseFunc> base_func_of(std::string_view base_name);

/// The library: cells plus derived cell groups and name lookup.
class Library {
 public:
  Library() = default;
  explicit Library(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Adds a cell; returns its index. Call finalize() after the last add.
  std::uint32_t add_cell(Cell cell);

  /// Builds cell groups and lookup maps; validates cells. Must be called
  /// once after the last add_cell() before timing queries.
  [[nodiscard]] Status finalize();

  [[nodiscard]] std::span<const Cell> cells() const { return cells_; }
  [[nodiscard]] const Cell& cell(std::uint32_t index) const { return cells_[index]; }

  [[nodiscard]] std::span<const CellGroup> groups() const { return groups_; }
  [[nodiscard]] const CellGroup& group(std::uint32_t index) const { return groups_[index]; }

  /// Group index for a base name; nullopt if the library has no such group.
  [[nodiscard]] std::optional<std::uint32_t> find_group(std::string_view base_name) const;

  /// Group index implementing (func, arity); nullopt if unsupported.
  [[nodiscard]] std::optional<std::uint32_t> find_group(netlist::GateFunc func,
                                                        std::size_t arity) const;

  /// Cell index by full name ("NAND2_X4"); nullopt if absent.
  [[nodiscard]] std::optional<std::uint32_t> find_cell(std::string_view name) const;

  /// The cell bound to (group, size_index).
  [[nodiscard]] const Cell& cell_for(std::uint32_t group_index, std::uint16_t size_index) const;

  /// Largest fanin count over all groups (mapper's decomposition bound).
  [[nodiscard]] std::size_t max_arity() const;

 private:
  std::string name_ = "lib";
  std::vector<Cell> cells_;
  std::vector<CellGroup> groups_;
  std::unordered_map<std::string, std::uint32_t> cell_by_name_;
  std::unordered_map<std::string, std::uint32_t> group_by_base_;
};

/// Splits "NAND2_X4" into base "NAND2" and drive 4.0; drive suffixes may use
/// 'P' as a decimal point ("X0P5" = 0.5). Returns drive 1.0 when no suffix.
struct ParsedCellName {
  std::string base;
  double drive = 1.0;
};
[[nodiscard]] ParsedCellName parse_cell_name(std::string_view name);

}  // namespace statsizer::liberty
