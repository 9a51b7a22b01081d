// Topological utilities over Netlist: Kahn ordering, levels, depth, cycle
// detection. All algorithms are O(V + E).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace statsizer::netlist {

/// Topological order of all nodes (inputs first). Kahn's algorithm with a
/// FIFO ready list, so levels() never decrease along the order: every
/// level-k node is enqueued while level k-1 is being popped. Throws
/// std::logic_error if the netlist has a cycle — construction normally
/// prevents cycles, so a cycle here is a programming error.
[[nodiscard]] std::vector<GateId> topological_order(const Netlist& nl);

/// True if the netlist is a DAG.
[[nodiscard]] bool is_acyclic(const Netlist& nl);

/// Level of each node: inputs/constants are level 0; otherwise
/// 1 + max(level of fanins). Index by GateId.
[[nodiscard]] std::vector<std::uint32_t> levels(const Netlist& nl);

/// Maximum over levels(); the logic depth of the circuit.
[[nodiscard]] std::uint32_t depth(const Netlist& nl);

/// Nodes from which at least one primary output is reachable. Index by GateId.
[[nodiscard]] std::vector<bool> observable_mask(const Netlist& nl);

}  // namespace statsizer::netlist
