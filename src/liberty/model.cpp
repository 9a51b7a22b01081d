#include "liberty/model.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/numeric.h"

namespace statsizer::liberty {

double Lut::lookup(double slew_ps, double load_ff) const {
  if (!shape_ok() || empty()) {
    throw std::logic_error("Lut::lookup on malformed table");
  }
  if (index1.empty() && index2.empty()) return values[0];  // scalar
  if (index1.empty() || index1.size() == 1) {
    return util::interp1(index2, values, load_ff);
  }
  if (index2.empty() || index2.size() == 1) {
    return util::interp1(index1, values, slew_ps);
  }
  return util::interp2(index1, index2, values, slew_ps, load_ff);
}

double TimingArc::delay(double slew_ps, double load_ff) const {
  const double r = cell_rise.lookup(slew_ps, load_ff);
  const double f = cell_fall.lookup(slew_ps, load_ff);
  return std::max(r, f);
}

double TimingArc::output_slew(double slew_ps, double load_ff) const {
  const double r = rise_transition.lookup(slew_ps, load_ff);
  const double f = fall_transition.lookup(slew_ps, load_ff);
  return std::max(r, f);
}

const Pin& Cell::output() const {
  for (const Pin& p : pins) {
    if (p.direction == PinDirection::kOutput) return p;
  }
  throw std::logic_error("cell " + name + " has no output pin");
}

std::vector<const Pin*> Cell::input_pins() const {
  std::vector<const Pin*> result;
  for (const Pin& p : pins) {
    if (p.direction == PinDirection::kInput) result.push_back(&p);
  }
  return result;
}

double Cell::input_cap_ff(std::size_t i) const {
  std::size_t seen = 0;
  for (const Pin& p : pins) {
    if (p.direction == PinDirection::kInput) {
      if (seen == i) return p.capacitance_ff;
      ++seen;
    }
  }
  throw std::out_of_range("cell " + name + ": no input pin #" + std::to_string(i));
}

const TimingArc& Cell::arc_from(std::size_t i) const {
  std::size_t seen = 0;
  std::string wanted;
  for (const Pin& p : pins) {
    if (p.direction == PinDirection::kInput) {
      if (seen == i) {
        wanted = p.name;
        break;
      }
      ++seen;
    }
  }
  if (wanted.empty()) {
    throw std::out_of_range("cell " + name + ": no input pin #" + std::to_string(i));
  }
  const Pin& out = output();
  for (const TimingArc& arc : out.arcs) {
    if (arc.related_pin == wanted) return arc;
  }
  throw std::logic_error("cell " + name + ": no timing arc from pin " + wanted);
}

std::size_t Cell::arity() const {
  std::size_t n = 0;
  for (const Pin& p : pins) {
    if (p.direction == PinDirection::kInput) ++n;
  }
  return n;
}

void CellGroup::sort_by_drive(const std::vector<Cell>& cells) {
  std::sort(cell_indices_.begin(), cell_indices_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return cells[a].drive < cells[b].drive; });
}

std::optional<BaseFunc> base_func_of(std::string_view base_name) {
  using netlist::GateFunc;
  static const std::unordered_map<std::string_view, BaseFunc> kTable = {
      {"INV", {GateFunc::kInv, 1}},     {"BUF", {GateFunc::kBuf, 1}},
      {"NAND2", {GateFunc::kNand, 2}},  {"NAND3", {GateFunc::kNand, 3}},
      {"NAND4", {GateFunc::kNand, 4}},  {"NOR2", {GateFunc::kNor, 2}},
      {"NOR3", {GateFunc::kNor, 3}},    {"NOR4", {GateFunc::kNor, 4}},
      {"AND2", {GateFunc::kAnd, 2}},    {"AND3", {GateFunc::kAnd, 3}},
      {"AND4", {GateFunc::kAnd, 4}},    {"OR2", {GateFunc::kOr, 2}},
      {"OR3", {GateFunc::kOr, 3}},      {"OR4", {GateFunc::kOr, 4}},
      {"XOR2", {GateFunc::kXor, 2}},    {"XNOR2", {GateFunc::kXnor, 2}},
      {"AOI21", {GateFunc::kAoi21, 3}}, {"OAI21", {GateFunc::kOai21, 3}},
      {"MUX2", {GateFunc::kMux2, 3}},
  };
  const auto it = kTable.find(base_name);
  if (it == kTable.end()) return std::nullopt;
  return it->second;
}

std::uint32_t Library::add_cell(Cell cell) {
  const auto index = static_cast<std::uint32_t>(cells_.size());
  cells_.push_back(std::move(cell));
  return index;
}

Status Library::finalize() {
  groups_.clear();
  cell_by_name_.clear();
  group_by_base_.clear();

  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    Cell& c = cells_[i];
    if (cell_by_name_.contains(c.name)) {
      return Status::error("duplicate cell name: " + c.name);
    }
    cell_by_name_.emplace(c.name, i);

    // Validate structure: exactly one output pin with arcs from each input.
    std::size_t outputs = 0;
    for (const Pin& p : c.pins) {
      if (p.direction == PinDirection::kOutput) ++outputs;
    }
    if (outputs != 1) {
      return Status::error("cell " + c.name + ": expected exactly 1 output pin");
    }
    const std::size_t n_in = c.arity();
    if (n_in == 0) return Status::error("cell " + c.name + ": no input pins");
    const Pin& out = c.output();
    for (const Pin& p : c.pins) {
      if (p.direction != PinDirection::kInput) continue;
      const bool has_arc =
          std::any_of(out.arcs.begin(), out.arcs.end(),
                      [&](const TimingArc& a) { return a.related_pin == p.name; });
      if (!has_arc) {
        return Status::error("cell " + c.name + ": missing timing arc from pin " + p.name);
      }
    }
    for (const TimingArc& a : out.arcs) {
      if (!a.cell_rise.shape_ok() || !a.cell_fall.shape_ok() ||
          !a.rise_transition.shape_ok() || !a.fall_transition.shape_ok()) {
        return Status::error("cell " + c.name + ": malformed LUT in arc from " + a.related_pin);
      }
      if (a.cell_rise.empty() || a.cell_fall.empty()) {
        return Status::error("cell " + c.name + ": empty delay LUT in arc from " +
                             a.related_pin);
      }
    }

    const ParsedCellName parsed = parse_cell_name(c.name);
    c.drive = parsed.drive;
    const auto bf = base_func_of(parsed.base);
    if (!bf.has_value()) {
      // Unknown base names are allowed in the library (e.g. future cells) but
      // do not join a sizing group.
      continue;
    }
    if (bf->arity != n_in) {
      return Status::error("cell " + c.name + ": pin count " + std::to_string(n_in) +
                           " disagrees with base function arity " + std::to_string(bf->arity));
    }
    auto it = group_by_base_.find(parsed.base);
    if (it == group_by_base_.end()) {
      const auto gi = static_cast<std::uint32_t>(groups_.size());
      groups_.emplace_back(parsed.base, bf->func, bf->arity);
      it = group_by_base_.emplace(parsed.base, gi).first;
    }
    groups_[it->second].add_cell_index(i);
  }

  for (CellGroup& g : groups_) g.sort_by_drive(cells_);
  return Status();
}

std::optional<std::uint32_t> Library::find_group(std::string_view base_name) const {
  const auto it = group_by_base_.find(std::string(base_name));
  if (it == group_by_base_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> Library::find_group(netlist::GateFunc func,
                                                 std::size_t arity) const {
  for (std::uint32_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].func() == func && groups_[i].arity() == arity) return i;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> Library::find_cell(std::string_view name) const {
  const auto it = cell_by_name_.find(std::string(name));
  if (it == cell_by_name_.end()) return std::nullopt;
  return it->second;
}

const Cell& Library::cell_for(std::uint32_t group_index, std::uint16_t size_index) const {
  const CellGroup& g = groups_.at(group_index);
  return cells_[g.sizes()[size_index]];
}

std::size_t Library::max_arity() const {
  std::size_t m = 0;
  for (const CellGroup& g : groups_) m = std::max(m, g.arity());
  return m;
}

ParsedCellName parse_cell_name(std::string_view name) {
  ParsedCellName result{std::string(name)};
  const auto pos = name.rfind("_X");
  if (pos == std::string_view::npos) return result;
  // A drive suffix is digits with at most one 'P' as the decimal point
  // (X0P5 -> 0.5) and a finite value > 0; anything else is part of the name.
  std::string suffix(name.substr(pos + 2));
  const auto digits = std::count_if(suffix.begin(), suffix.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
  const auto points = std::count(suffix.begin(), suffix.end(), 'P');
  if (digits == 0 || points > 1 || digits + points != std::ssize(suffix)) return result;
  std::replace(suffix.begin(), suffix.end(), 'P', '.');
  const double drive = std::strtod(suffix.c_str(), nullptr);
  if (!std::isfinite(drive) || drive <= 0.0) return result;
  result.base = std::string(name.substr(0, pos));
  result.drive = drive;
  return result;
}

}  // namespace statsizer::liberty
