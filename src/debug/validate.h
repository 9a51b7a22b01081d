// Deep invariant validators — the paranoid layer's checking logic.
//
// Each validate_* function audits one standing invariant of the codebase and
// funnels violations through debug::check_fail (a std::logic_error whose
// message starts with "paranoid: "). The functions are always compiled and
// side-effect free, so tests call them directly on deliberately corrupted
// inputs to prove they trip; with cmake -DSTATSIZER_PARANOID=ON the hot
// paths also call them automatically (see util/check.h for the gating
// contract and the list of call sites).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "netlist/netlist.h"
#include "pdf/discrete_pdf.h"
#include "sta/graph.h"

namespace statsizer::debug {

/// Walk-order invariants against @p nl (TimingContext's topo_order() and
/// topo_position()): @p order is a permutation of the node set, @p position
/// is its inverse, and — the property every walk's correctness rests on —
/// every fanin comes before its node.
void validate_topo_order(const netlist::Netlist& nl, std::span<const netlist::GateId> order,
                         std::span<const std::uint32_t> position);

/// Fanout-cone invariants (sta::collect_cone's contract) against the
/// walk-order ranks @p position (audited by validate_topo_order): every node
/// is in range, the list is strictly increasing in position (sorted and
/// duplicate-free), every seed is a member, and every member's fanouts are
/// members (closed under fanout).
void validate_cone(const netlist::Netlist& nl, std::span<const std::uint32_t> position,
                   std::span<const netlist::GateId> seeds,
                   std::span<const netlist::GateId> nodes);

/// Load-term CSR consistency against @p nl's structure: offsets form a
/// monotone [node_count + 1] prefix-sum ending at terms.size(), and the term
/// sequence is exactly what TimingContext's constructor builds — per driver,
/// the PO term (for po_count > 0 drivers) then each mapped consumer's
/// (consumer, fanin_index) pair in gate-id visit order. A mismatch means the
/// CSR no longer reproduces update()'s bitwise load-fold order.
void validate_load_terms(const netlist::Netlist& nl,
                         std::span<const std::uint32_t> load_term_offset,
                         std::span<const sta::LoadTerm> load_terms);

/// DiscretePdf invariants on raw grid data: a non-empty grid, finite origin
/// and step, step > 0 unless the pdf is a point mass, finite non-negative
/// masses summing to 1 (1e-9 slack), and a monotone non-decreasing running
/// CDF that ends at the total mass.
void validate_pdf(double origin, double step, std::span<const double> masses);

/// The same over an assembled pdf, plus: its cached mean() and variance()
/// are bitwise equal to a fresh recomputation from the grid.
void validate_pdf(const pdf::DiscretePdf& p);

/// Speculation-epoch discipline: a speculation can be stamped at or before
/// the analyzer's current epoch, never after it. (Stale speculations —
/// stamp < epoch — are a *caller* error handled loudly by guard_epoch; a
/// stamp from the future means the analyzer's own bookkeeping is corrupt.)
/// @p engine names the analyzer for the failure message.
void validate_epoch(std::string_view engine, std::uint64_t speculation_epoch,
                    std::uint64_t analyzer_epoch);

/// Structure-version staleness: @p ctx's walk order, built at its
/// structure_version(), must still describe its netlist. Trips when a
/// structural edit slipped in under a live TimingContext.
void validate_structure_fresh(const sta::TimingContext& ctx);

}  // namespace statsizer::debug
