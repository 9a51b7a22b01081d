// Structural circuit generators.
//
// The paper evaluates on ISCAS-85 benchmarks (synthesized with a commercial
// tool) plus several ALUs. The genuine pre-synthesis netlists cannot be
// bundled here, so this module builds *functionally equivalent* circuits —
// adders, ALUs, array multipliers, Hamming SEC / SEC-DED correctors,
// priority interrupt controllers, adder/comparator datapaths — whose gate
// counts and logic depths land close to the mapped sizes in the paper's
// Table 1 (see circuits/iscas_suite.h for the name -> configuration map and
// docs/ARCHITECTURE.md, "Deviations from the paper", for the substitution
// rationale). Everything is verified functionally: the test suite simulates
// adders adding, multipliers multiplying and ECC correcting injected errors.
//
// All generators produce pure GateFunc netlists; technology mapping binds
// them to a library afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace statsizer::circuits {

using netlist::GateId;
using netlist::Netlist;

/// Convenience wrapper for generator code: byte-sized helpers over Netlist.
/// (Public because examples and tests also use it to assemble ad-hoc logic.)
class Builder {
 public:
  explicit Builder(std::string name) : nl_(std::move(name)) {}

  GateId input(const std::string& name) { return nl_.add_input(name); }
  std::vector<GateId> bus(const std::string& prefix, unsigned width);
  void output(const std::string& name, GateId g) { nl_.add_output(name, g); }
  void bus_out(const std::string& prefix, std::span<const GateId> bits);

  GateId not_(GateId a) { return nl_.add_gate(netlist::GateFunc::kInv, {a}); }
  GateId buf(GateId a) { return nl_.add_gate(netlist::GateFunc::kBuf, {a}); }
  GateId and_(GateId a, GateId b) { return nl_.add_gate(netlist::GateFunc::kAnd, {a, b}); }
  GateId or_(GateId a, GateId b) { return nl_.add_gate(netlist::GateFunc::kOr, {a, b}); }
  GateId nand_(GateId a, GateId b) { return nl_.add_gate(netlist::GateFunc::kNand, {a, b}); }
  GateId nor_(GateId a, GateId b) { return nl_.add_gate(netlist::GateFunc::kNor, {a, b}); }
  GateId xor_(GateId a, GateId b);
  GateId xnor_(GateId a, GateId b);
  /// s ? d1 : d0
  GateId mux(GateId d0, GateId d1, GateId s) {
    return nl_.add_gate(netlist::GateFunc::kMux2, {d0, d1, s});
  }

  /// Balanced reduction trees (2-input gates).
  GateId and_tree(std::span<const GateId> xs);
  GateId or_tree(std::span<const GateId> xs);
  GateId xor_tree(std::span<const GateId> xs);

  /// When set, xor_/xnor_ are built from four NAND2s / plus an inverter
  /// instead of XOR cells — mirrors NAND/NOR-dominated netlists like the
  /// genuine c1355/c6288 and roughly triples their depth and size.
  void set_expand_xor(bool expand) { expand_xor_ = expand; }
  [[nodiscard]] bool expand_xor() const { return expand_xor_; }

  [[nodiscard]] Netlist take() { return std::move(nl_); }
  [[nodiscard]] Netlist& netlist() { return nl_; }

 private:
  Netlist nl_;
  bool expand_xor_ = false;
};

// -- arithmetic blocks (shared by generators; exposed for tests) -------------

struct AdderBits {
  std::vector<GateId> sum;
  GateId carry_out;
};

/// Ripple-carry adder over equal-width buses.
AdderBits ripple_adder(Builder& b, std::span<const GateId> a, std::span<const GateId> bb,
                       GateId carry_in);

/// Carry-lookahead adder (4-bit groups, ripple between groups).
AdderBits cla_adder(Builder& b, std::span<const GateId> a, std::span<const GateId> bb,
                    GateId carry_in);

// -- public generators ---------------------------------------------------------

/// n-bit ripple-carry adder: inputs a[n], b[n], cin; outputs s[n], cout.
[[nodiscard]] Netlist make_ripple_adder(unsigned bits, bool expand_xor = false);

/// n-bit carry-lookahead adder, same interface.
[[nodiscard]] Netlist make_cla_adder(unsigned bits);

/// n x n array multiplier: inputs a[n], b[n]; outputs p[2n]. With
/// @p expand_xor the full adders are NAND-level (c6288-class depth).
[[nodiscard]] Netlist make_array_multiplier(unsigned bits, bool expand_xor = true);

/// ALU configuration. Operations (op[2:0]): AND, OR, XOR, ADD, SUB, NOR,
/// pass-A, pass-B; optional barrel shifter on the result and status flags
/// (zero, sign, carry, overflow, parity).
struct AluOptions {
  unsigned bits = 8;
  bool use_cla = true;
  bool with_shifter = false;
  bool with_flags = true;
  bool expand_xor = false;
};
[[nodiscard]] Netlist make_alu(const AluOptions& options);

/// Hamming single-error-corrector: receives a codeword (data + check bits),
/// outputs corrected data and an error flag. c499/c1355-class at 32 data
/// bits (c1355-class uses expand_xor).
[[nodiscard]] Netlist make_hamming_sec(unsigned data_bits, bool expand_xor = false);

/// SEC-DED encoder + corrector chain (c1908-class at 16 data bits): encodes
/// the data, then corrects a possibly-corrupted codeword (error injection via
/// a flip mask input) and raises single/double-error flags.
[[nodiscard]] Netlist make_sec_ded(unsigned data_bits, bool expand_xor = true);

/// Priority interrupt controller, c432-class at 27 channels in 3 banks:
/// bank-enable gating, tree prefix priority resolution, grant lines and a
/// binary index encoder.
[[nodiscard]] Netlist make_interrupt_controller(unsigned channels, unsigned banks);

/// Adder/comparator datapath (c7552-class at 32 bits): two CLA adders
/// (a+b, a-b), an independent magnitude comparator, parity trees, an
/// incrementer and an output select stage.
[[nodiscard]] Netlist make_adder_comparator(unsigned bits);

/// Composite ALU system (c2670/c5315-class): ALUs, optional multiplier,
/// interrupt controller, comparator and parity glue.
struct AluSystemOptions {
  unsigned alu_bits = 12;
  unsigned alu_count = 1;
  unsigned multiplier_bits = 0;  ///< 0 = no multiplier
  unsigned interrupt_channels = 18;
  unsigned comparator_bits = 12;
  bool with_parity = true;
};
[[nodiscard]] Netlist make_alu_system(const AluSystemOptions& options);

/// Binary+BCD ALU (c3540-class): binary ALU, per-digit BCD adjustment,
/// barrel shifter and flag logic over @p digits BCD digits (4 bits each).
[[nodiscard]] Netlist make_bcd_alu(unsigned digits);

// -- scaled fabrics (10k-100k gates; wide-level workloads) --------------------

/// Pipelined datapath: @p stages chained CLA stages over a @p bits-wide
/// state. Stage s computes state' = CLA(state, ror1(state) XOR b) with the
/// previous stage's carry-out as carry-in (stage 0 uses the `cin` input);
/// ror1 rotates the bus right by one (pure wiring). Inputs a[bits], b[bits],
/// cin; outputs r[bits] (final state) and cout<s> per stage. Each stage's
/// propagate/generate layer is ~2*bits independent gates, so levels stay
/// wide through the whole pipeline. ~10k gates at the defaults.
struct PipelineOptions {
  unsigned bits = 64;
  unsigned stages = 14;
  bool expand_xor = false;
};
[[nodiscard]] Netlist make_pipelined_datapath(const PipelineOptions& options);

/// Mesh interconnect fabric: a rows x cols grid of @p bits-wide compute
/// nodes. Node (r,c) takes the north bus (output of (r-1,c); row 0 reads
/// primary-input bus n<c>_*), the west bus (output of (r,c-1); column 0
/// reads w<r>_*), and a per-node select input sel<r>_<c>, computing
/// out = sel ? CLA_sum(north, west, cin = sel) : north XOR west, with the
/// adder's carry-out observable as output co<r>_<c>. East-edge and south-edge buses
/// are primary outputs (e<r>_*, s<c>_*). Nodes on one anti-diagonal are
/// independent, so level width scales with min(rows, cols) * bits.
/// ~13k gates at 8x8x16.
struct MeshOptions {
  unsigned rows = 8;
  unsigned cols = 8;
  unsigned bits = 16;
};
[[nodiscard]] Netlist make_mesh_interconnect(const MeshOptions& options);

/// Random DAG for property tests: reproducible from the seed.
struct RandomDagOptions {
  unsigned n_inputs = 8;
  unsigned n_gates = 64;
  unsigned n_outputs = 4;
  unsigned max_arity = 4;
  std::uint64_t seed = 1;
};
[[nodiscard]] Netlist make_random_dag(const RandomDagOptions& options);

}  // namespace statsizer::circuits
