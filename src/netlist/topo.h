// Topological utilities over Netlist: Kahn ordering, levelization, depth,
// cycle detection. All algorithms are O(V + E).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace statsizer::netlist {

/// Topological order of all nodes (inputs first). Throws std::logic_error if
/// the netlist has a cycle — construction normally prevents cycles, so a cycle
/// here is a programming error.
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

/// Cached levelization of a netlist: the node set bucketed by level (see
/// levels()), with level buckets laid out contiguously. Because a node's
/// level is 1 + max(level of fanins), every edge goes *strictly* level-up —
/// nodes inside one level never feed each other, and walking order_by_level
/// visits every gate after all of its fanins. TimingContext::update(),
/// ssta::run_fullssta and every what-if cone (sta::collect_cone, which
/// starts its scan at the lowest seed's bucket) walk it serially.
///
/// The struct is a value: compute it once with levelize() and reuse it until
/// the netlist's *structure* changes (sizing changes never invalidate it —
/// levels depend only on edges). valid_for() checks the netlist's structure
/// version, so caches can fail loudly instead of going silently stale.
struct Levelization {
  /// Level of each node, indexed by GateId (same values as levels()).
  std::vector<std::uint32_t> level_of;
  /// Bucket boundaries: level l occupies
  /// order_by_level[level_offset[l] .. level_offset[l + 1]). Always
  /// level_count() + 1 entries (a single {0} for an empty netlist).
  std::vector<std::uint32_t> level_offset;
  /// All nodes grouped by level — the stable partition of topological_order()
  /// by level_of, so concatenating the buckets yields a valid topological
  /// order and each bucket preserves the Kahn order of its members.
  std::vector<GateId> order_by_level;
  /// Netlist::structure_version() at the time of the build.
  std::uint64_t structure_version = 0;

  [[nodiscard]] std::size_t level_count() const { return level_offset.size() - 1; }
  [[nodiscard]] std::span<const GateId> level(std::size_t l) const {
    return std::span<const GateId>(order_by_level)
        .subspan(level_offset[l], level_offset[l + 1] - level_offset[l]);
  }
  /// True while the levelization still describes @p nl's structure.
  [[nodiscard]] bool valid_for(const Netlist& nl) const {
    return structure_version == nl.structure_version() && level_of.size() == nl.node_count();
  }
};

/// Builds the level decomposition of @p nl. O(V + E); throws like
/// topological_order() on a cyclic netlist.
[[nodiscard]] Levelization levelize(const Netlist& nl);

}  // namespace statsizer::netlist
