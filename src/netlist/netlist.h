// Combinational gate-level netlist.
//
// Design notes:
//  * Gates and primary inputs are nodes in one dense id space (GateId); every
//    per-gate attribute elsewhere in the library is a parallel vector indexed
//    by GateId. Primary outputs are (name, driver) references, not nodes.
//  * Before technology mapping a gate carries only a logic function
//    (GateFunc) of arbitrary arity; mapping binds it to a library cell group
//    and a size index (see techmap::Mapper). Sizing only ever changes
//    size_index, never the structure, so optimizers can snapshot/restore
//    sizing state as a plain vector<uint16>.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace statsizer::netlist {

using GateId = std::uint32_t;
inline constexpr GateId kNoGate = std::numeric_limits<GateId>::max();
inline constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// Logic function of a node. kInput marks a primary-input node (no fanins).
/// Multi-input functions accept arbitrary arity before mapping; the mapper
/// guarantees arity <= the library's maximum afterwards.
enum class GateFunc : std::uint8_t {
  kInput,
  kBuf,
  kInv,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kAoi21,  // !(a & b | c)
  kOai21,  // !((a | b) & c)
  kMux2,   // fanins (d0, d1, s): s ? d1 : d0
  kConst0,
  kConst1,
};

/// Human-readable function name ("NAND", "AOI21", ...).
[[nodiscard]] std::string_view func_name(GateFunc func);

/// True if the function is one of the inverting primitives
/// (INV/NAND/NOR/XNOR/AOI21/OAI21).
[[nodiscard]] bool is_inverting(GateFunc func);

/// Allowed fanin count for a function: returns {min, max} arity
/// (max == SIZE_MAX for the tree-decomposable associative functions).
struct ArityRange {
  std::size_t min;
  std::size_t max;
};
[[nodiscard]] ArityRange func_arity(GateFunc func);

/// One node of the netlist.
struct Gate {
  std::string name;
  GateFunc func = GateFunc::kBuf;
  std::vector<GateId> fanins;
  std::vector<GateId> fanouts;  ///< derived; kept consistent by Netlist
  /// Index of the library cell group implementing this gate (kUnmapped before
  /// technology mapping). Assigned by techmap::Mapper.
  std::uint32_t cell_group = kUnmapped;
  /// Index into the cell group's size list (drive strength choice).
  std::uint16_t size_index = 0;
  /// Number of primary outputs this gate drives directly (a gate can both
  /// feed other gates and be observable).
  std::uint16_t po_count = 0;
};

/// A primary output: a named reference to the gate that drives it.
struct Output {
  std::string name;
  GateId driver = kNoGate;
};

/// Combinational netlist. Construction is additive (add_input/add_gate/
/// add_output); structural edits are limited to what the mapper needs
/// (replace_gate_function, rewire). The class maintains fanout lists and
/// name->id lookup as invariants.
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // -- construction ---------------------------------------------------------

  /// Adds a primary input node. Names must be unique across all nodes.
  GateId add_input(std::string name);

  /// Adds a gate computing @p func over @p fanins. Arity is validated.
  /// If @p name is empty a unique one is generated ("g123").
  GateId add_gate(GateFunc func, std::span<const GateId> fanins, std::string name = {});

  /// Convenience overload.
  GateId add_gate(GateFunc func, std::initializer_list<GateId> fanins, std::string name = {});

  /// Declares @p driver as the primary output @p name.
  void add_output(std::string name, GateId driver);

  // -- structural edits (used by techmap) ------------------------------------

  /// Replaces gate @p id's function and fanins in place; fixes fanout lists.
  void rewire(GateId id, GateFunc func, std::span<const GateId> fanins);

  /// Moves every fanout-consumer of @p from (and every PO reference) to @p to.
  /// @p from becomes dangling (no fanouts); it still occupies its id.
  void transfer_fanouts(GateId from, GateId to);

  // -- access ----------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] std::size_t node_count() const { return gates_.size(); }
  [[nodiscard]] const Gate& gate(GateId id) const { return gates_[id]; }
  [[nodiscard]] Gate& gate(GateId id) { return gates_[id]; }

  [[nodiscard]] std::span<const GateId> inputs() const { return inputs_; }
  [[nodiscard]] std::span<const Output> outputs() const { return outputs_; }

  /// Number of logic gates (nodes that are not primary inputs / constants).
  [[nodiscard]] std::size_t logic_gate_count() const;

  /// Looks up a node id by name; kNoGate if absent.
  [[nodiscard]] GateId find(std::string_view name) const;

  [[nodiscard]] bool is_input(GateId id) const { return gates_[id].func == GateFunc::kInput; }
  [[nodiscard]] bool is_constant(GateId id) const {
    return gates_[id].func == GateFunc::kConst0 || gates_[id].func == GateFunc::kConst1;
  }

  // -- sizing state -----------------------------------------------------------

  /// Snapshot of all size indices (restore with set_sizes).
  [[nodiscard]] std::vector<std::uint16_t> sizes() const;
  void set_sizes(std::span<const std::uint16_t> sizes);

  // -- structure version -------------------------------------------------------

  /// Monotone counter bumped by every structural mutation (add_input,
  /// add_gate, add_output, rewire, transfer_fanouts). Sizing changes
  /// (size_index, set_sizes) do NOT bump it. Derived caches keyed on the
  /// structure — topological orders, TimingContext — record the version they
  /// were built at and compare against this to detect staleness.
  [[nodiscard]] std::uint64_t structure_version() const { return structure_version_; }

  // -- validation --------------------------------------------------------------

  /// Structural sanity: fanin/fanout symmetry, arities, outputs driven,
  /// acyclicity. Returns an error describing the first violation.
  [[nodiscard]] Status check() const;

 private:
  std::string unique_name(std::string base);
  void detach_fanin_edges(GateId id);

  std::string name_ = "netlist";
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<Output> outputs_;
  std::unordered_map<std::string, GateId> by_name_;
  std::uint64_t autoname_ = 0;
  std::uint64_t structure_version_ = 0;
};

}  // namespace statsizer::netlist
