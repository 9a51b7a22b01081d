// The 13 Table-1 workloads by name. Each entry instantiates a generator from
// circuits/generators.h configured to land near the paper's mapped gate count
// and, more importantly, its logic depth class (depth is what drives the
// sigma/mu trends in Table 1). Substitution rationale: docs/ARCHITECTURE.md,
// "Deviations from the paper"; measured-vs-paper sizes: EXPERIMENTS.md.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.h"

namespace statsizer::circuits {

/// Reference data from the paper's Table 1 (for reporting side-by-side).
struct Table1Reference {
  std::string name;
  int paper_gates = 0;
  double paper_sigma_over_mu = 0.0;      ///< "Original" column
  double paper_sigma_reduction_l3 = 0.0; ///< Delta-sigma at lambda = 3 (fraction, negative)
  double paper_sigma_reduction_l9 = 0.0; ///< Delta-sigma at lambda = 9
};

/// All Table-1 circuit names, in the paper's row order.
[[nodiscard]] const std::vector<std::string>& table1_names();

/// The scaled 10k-100k-gate fabrics (wide array multipliers, pipelined
/// datapath, mesh interconnect). Not in the paper's Table 1 — registered
/// here so flows and benches load them like any other workload; their
/// levels hold hundreds of gates (median width 140 on mesh8), unlike the
/// ~400-gate Table-1 circuits, so they are the wide points of the
/// propagation benches.
[[nodiscard]] const std::vector<std::string>& scaled_workload_names();

/// Paper reference numbers for a circuit; nullopt for unknown names.
[[nodiscard]] std::optional<Table1Reference> table1_reference(std::string_view name);

/// Builds the named Table-1 workload ("alu1", "c432", ..., "c7552").
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] netlist::Netlist make_table1_circuit(std::string_view name);

}  // namespace statsizer::circuits
