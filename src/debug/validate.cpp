#include "debug/validate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "util/check.h"

namespace statsizer::debug {

using netlist::GateId;

void validate_topo_order(const netlist::Netlist& nl, std::span<const GateId> order,
                         std::span<const std::uint32_t> position) {
  constexpr const char* kWhere = "validate_topo_order";
  const std::size_t n = nl.node_count();
  STATSIZER_PARANOID_CHECK(order.size() == n && position.size() == n, kWhere,
                           "order covers " + std::to_string(order.size()) + " and position " +
                               std::to_string(position.size()) + " nodes, netlist has " +
                               std::to_string(n));
  std::vector<bool> seen(n, false);
  for (std::uint32_t i = 0; i < n; ++i) {
    const GateId id = order[i];
    STATSIZER_PARANOID_CHECK(id < n, kWhere, "order holds out-of-range node " + std::to_string(id));
    STATSIZER_PARANOID_CHECK(!seen[id], kWhere,
                             "node " + std::to_string(id) + " appears twice in the order");
    seen[id] = true;
    STATSIZER_PARANOID_CHECK(position[id] == i, kWhere,
                             "position of node " + std::to_string(id) + " is " +
                                 std::to_string(position[id]) + ", the order has it at " +
                                 std::to_string(i));
  }
  // position is now a verified inverse, so ranks compare directly.
  for (GateId id = 0; id < n; ++id) {
    for (const GateId f : nl.gate(id).fanins) {
      STATSIZER_PARANOID_CHECK(position[f] < position[id], kWhere,
                               "fanin " + std::to_string(f) + " comes after its node " +
                                   std::to_string(id));
    }
  }
}

void validate_cone(const netlist::Netlist& nl, std::span<const std::uint32_t> position,
                   std::span<const GateId> seeds, std::span<const GateId> nodes) {
  constexpr const char* kWhere = "validate_cone";
  for (const GateId id : nodes) {
    STATSIZER_PARANOID_CHECK(id < nl.node_count(), kWhere,
                             "cone holds out-of-range node " + std::to_string(id));
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const char* what = nodes[i] == nodes[i - 1] ? " appears twice" : " is out of level order";
    STATSIZER_PARANOID_CHECK(position[nodes[i - 1]] < position[nodes[i]], kWhere,
                             "node " + std::to_string(nodes[i]) + what);
  }
  // Sorted by position, so membership is a binary search.
  const auto member = [&](GateId id) {
    return std::binary_search(nodes.begin(), nodes.end(), id,
                              [&](GateId a, GateId b) { return position[a] < position[b]; });
  };
  for (const GateId s : seeds) {
    STATSIZER_PARANOID_CHECK(member(s), kWhere, "seed " + std::to_string(s) + " is missing");
  }
  for (const GateId id : nodes) {
    for (const GateId f : nl.gate(id).fanouts) {
      STATSIZER_PARANOID_CHECK(member(f), kWhere,
                               "fanout " + std::to_string(f) + " of " + std::to_string(id) +
                                   " is missing: the cone is not closed");
    }
  }
}

void validate_load_terms(const netlist::Netlist& nl,
                         std::span<const std::uint32_t> load_term_offset,
                         std::span<const sta::LoadTerm> load_terms) {
  constexpr const char* kWhere = "validate_load_terms";
  const std::size_t n = nl.node_count();
  STATSIZER_PARANOID_CHECK(load_term_offset.size() == n + 1, kWhere,
                           "offset array has " + std::to_string(load_term_offset.size()) +
                               " entries, want node_count + 1 = " + std::to_string(n + 1));
  STATSIZER_PARANOID_CHECK(load_term_offset.front() == 0, kWhere, "offsets must start at 0");
  for (std::size_t i = 0; i < n; ++i) {
    STATSIZER_PARANOID_CHECK(load_term_offset[i] <= load_term_offset[i + 1], kWhere,
                             "offsets decrease at node " + std::to_string(i));
  }
  STATSIZER_PARANOID_CHECK(load_term_offset.back() == load_terms.size(), kWhere,
                           "offsets end at " + std::to_string(load_term_offset.back()) +
                               " but there are " + std::to_string(load_terms.size()) + " terms");

  // Rebuild the expected sequence with the constructor's algorithm: walk
  // gates by id; a driver's PO term first (at the driver's cursor), then each
  // mapped gate appends (gate, fanin_index) to the fanin's cursor.
  std::vector<std::uint32_t> cursor(load_term_offset.begin(), load_term_offset.end() - 1);
  const auto expect_term = [&](GateId driver, const sta::LoadTerm& want) {
    const std::uint32_t at = cursor[driver]++;
    STATSIZER_PARANOID_CHECK(at < load_term_offset[driver + 1], kWhere,
                             "driver " + std::to_string(driver) + " has more terms than its slot");
    const sta::LoadTerm& got = load_terms[at];
    STATSIZER_PARANOID_CHECK(
        got.consumer == want.consumer && got.fanin_index == want.fanin_index, kWhere,
        "term " + std::to_string(at) + " of driver " + std::to_string(driver) + " is (" +
            std::to_string(got.consumer) + ", " + std::to_string(got.fanin_index) +
            "), want (" + std::to_string(want.consumer) + ", " +
            std::to_string(want.fanin_index) + ")");
  };
  for (GateId id = 0; id < n; ++id) {
    const auto& g = nl.gate(id);
    if (g.po_count > 0) expect_term(id, sta::LoadTerm{netlist::kNoGate, 0});
    if (g.cell_group == netlist::kUnmapped) continue;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      expect_term(g.fanins[i], sta::LoadTerm{id, static_cast<std::uint32_t>(i)});
    }
  }
  for (GateId id = 0; id < n; ++id) {
    STATSIZER_PARANOID_CHECK(cursor[id] == load_term_offset[id + 1], kWhere,
                             "driver " + std::to_string(id) + " has fewer terms than its slot");
  }
}

void validate_pdf(double origin, double step, std::span<const double> masses) {
  constexpr const char* kWhere = "validate_pdf";
  STATSIZER_PARANOID_CHECK(!masses.empty(), kWhere, "empty mass vector");
  STATSIZER_PARANOID_CHECK(std::isfinite(origin), kWhere, "non-finite origin");
  STATSIZER_PARANOID_CHECK(std::isfinite(step), kWhere, "non-finite step");
  if (masses.size() == 1) {
    STATSIZER_PARANOID_CHECK(step == 0.0, kWhere, "point mass must have step 0");
  } else {
    STATSIZER_PARANOID_CHECK(step > 0.0, kWhere,
                             "grid step must be positive, got " + std::to_string(step));
  }
  // Non-negative finite masses => the running CDF is monotone by
  // construction; auditing the partial sums directly also catches NaN
  // poisoning part-way through.
  double cdf = 0.0;
  double prev = 0.0;
  for (std::size_t i = 0; i < masses.size(); ++i) {
    STATSIZER_PARANOID_CHECK(std::isfinite(masses[i]), kWhere,
                             "non-finite mass at bin " + std::to_string(i));
    STATSIZER_PARANOID_CHECK(masses[i] >= 0.0, kWhere,
                             "negative mass " + std::to_string(masses[i]) + " at bin " +
                                 std::to_string(i));
    cdf += masses[i];
    STATSIZER_PARANOID_CHECK(cdf >= prev, kWhere,
                             "CDF decreases at bin " + std::to_string(i));
    prev = cdf;
  }
  STATSIZER_PARANOID_CHECK(std::abs(cdf - 1.0) <= 1e-9, kWhere,
                           "masses sum to " + std::to_string(cdf) + ", want 1");
}

void validate_pdf(const pdf::DiscretePdf& p) {
  validate_pdf(p.origin(), p.step(), p.mass_view());
  // The moments cached at construction must be bitwise what the grid gives
  // today (same accumulation order as the pdf's own moment loops).
  double mean = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) mean += p.value_at(i) * p.mass_at(i);
  double variance = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = p.value_at(i) - mean;
    variance += d * d * p.mass_at(i);
  }
  STATSIZER_PARANOID_CHECK(std::bit_cast<std::uint64_t>(p.mean()) ==
                               std::bit_cast<std::uint64_t>(mean),
                           "validate_pdf",
                           "cached mean " + std::to_string(p.mean()) +
                               " differs from the grid's " + std::to_string(mean));
  STATSIZER_PARANOID_CHECK(std::bit_cast<std::uint64_t>(p.variance()) ==
                               std::bit_cast<std::uint64_t>(variance),
                           "validate_pdf",
                           "cached variance " + std::to_string(p.variance()) +
                               " differs from the grid's " + std::to_string(variance));
}

void validate_epoch(std::string_view engine, std::uint64_t speculation_epoch,
                    std::uint64_t analyzer_epoch) {
  STATSIZER_PARANOID_CHECK(speculation_epoch <= analyzer_epoch, "validate_epoch",
                           std::string(engine) + ": speculation stamped at epoch " +
                               std::to_string(speculation_epoch) +
                               " is newer than the analyzer epoch " +
                               std::to_string(analyzer_epoch) +
                               " (epoch bookkeeping corrupted)");
}

void validate_structure_fresh(const sta::TimingContext& ctx) {
  const netlist::Netlist& nl = ctx.netlist();
  const std::size_t nodes = ctx.topo_order().size();
  STATSIZER_PARANOID_CHECK(
      ctx.structure_version() == nl.structure_version() && nodes == nl.node_count(),
      "validate_structure_fresh",
      "walk order built at structure_version " + std::to_string(ctx.structure_version()) +
          " for " + std::to_string(nodes) + " nodes, netlist is at version " +
          std::to_string(nl.structure_version()) + " with " + std::to_string(nl.node_count()) +
          " nodes");
}

}  // namespace statsizer::debug
