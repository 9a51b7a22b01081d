// TimingContext: the timing view of a mapped netlist against a library and a
// variation model. One update() pass computes, for the current sizing state:
//   * per-gate capacitive load (consumer pin caps + primary-output load),
//   * per-gate worst output slew (propagated topologically),
//   * per-arc nominal delay (NLDM lookup) and delay sigma (variation model),
//   * total cell area.
// Every analysis engine (deterministic STA, FULLSSTA, FASSTA, Monte Carlo)
// reads this snapshot; the optimizer calls update() after committing resizes.
//
// The "what-if" queries evaluate a candidate cell binding for one gate
// without touching the snapshot — this is the contract FASSTA's inner loop
// is built on (paper section 4.5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "liberty/model.h"
#include "netlist/netlist.h"
#include "variation/model.h"

namespace statsizer::sta {

/// First two moments of a node's statistical arrival time. FULLSSTA computes
/// these for every node; FASSTA consumes them as subcircuit boundary
/// conditions (the paper's two-engine nesting).
struct NodeMoments {
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
};

/// External timing constraints (the SDC subset bench_format::read_sdc
/// understands). Constraints shape the *analysis* — arrival initialization
/// and required times — never the snapshot: update()'s loads, slews, and arc
/// delays are unaffected. Empty vectors mean "unconstrained"; with an empty
/// TimingConstraints every engine is bitwise-identical to its historical
/// constraint-free behaviour.
///
/// Engine contract: run_dsta honours all three fields. run_fullssta and
/// run_monte_carlo honour input_arrival_ps (the arrival pdf of a constrained
/// primary input starts as a point mass at its delay); clock_period_ps and
/// output_delay_ps are required-time concepts and only affect slack-style
/// analyses (run_dsta). The canonical/FASSTA engines operate on subcircuit
/// boundary moments supplied by FULLSSTA and pick constraints up through
/// them.
struct TimingConstraints {
  /// create_clock -period: the required-time target at primary outputs.
  std::optional<double> clock_period_ps;
  /// set_input_delay per primary input, indexed by GateId. Empty = all zero.
  /// When non-empty, the vector must cover every node; entries for nodes
  /// with fanins are ignored.
  std::vector<double> input_arrival_ps;
  /// set_output_delay per primary output, aligned with Netlist::outputs().
  /// Empty = all zero. Subtracted from the clock target to form each
  /// output's required time.
  std::vector<double> output_delay_ps;

  [[nodiscard]] bool empty() const {
    return !clock_period_ps.has_value() && input_arrival_ps.empty() &&
           output_delay_ps.empty();
  }
};

struct TimingOptions {
  double primary_input_slew_ps = 20.0;
  /// Capacitance modelled at each primary output (e.g. a register's D pin).
  double primary_output_load_ff = 4.0;
  /// update() and the FASSTA/DSTA what-if replays run serially: a gate's
  /// relax costs less than a level barrier, so the wavefront lost at every
  /// thread count. A constant, not a knob, kept for readers of the name.
  static constexpr std::size_t threads = 1;
};

/// One addition into a driver's load, in update()'s exact accumulation
/// order. consumer == netlist::kNoGate encodes the primary-output load term;
/// otherwise the term is cell(consumer).input_cap_ff(fanin_index).
/// Floating-point addition is not associative, so every load computation
/// that must agree with the snapshot *bitwise* — update() itself and the
/// exact what-if overlays' speculative re-folds — goes through the same
/// per-driver term list (TimingContext::load_terms) and the same fold
/// (TimingContext::fold_load). The one deliberate exception is
/// load_ff_with_resize's cap-delta shortcut: FASSTA's approximate screening
/// is built on it and its (ULP-different) values are part of the sizer's
/// pinned trajectories.
struct LoadTerm {
  netlist::GateId consumer = netlist::kNoGate;
  std::uint32_t fanin_index = 0;
};

class TimingContext {
 public:
  /// The netlist must be mapped to @p lib (techmap::is_mapped). All three
  /// references must outlive the context. The netlist is held mutably so
  /// optimizers can change size indices through mutable_netlist() and then
  /// call update(); the context itself never alters the netlist.
  TimingContext(netlist::Netlist& nl, const liberty::Library& lib,
                const variation::VariationModel& var, TimingOptions options = {});

  /// Recomputes loads, slews, delays, sigmas, area for the netlist's current
  /// sizing state. Called automatically by the constructor. A serial pass:
  /// the load fold, then the slew/arc sweep in topo_order(). It must only run
  /// with no parallel region reading the snapshot in flight. Throws
  /// std::logic_error once the netlist's structure has changed.
  void update();

  /// Counter bumped by every write to the snapshot (update() and
  /// apply_snapshot_patch()). fassta::Engine records it at construction and
  /// refuses to score once it moves. Same exclusivity rule as the writers:
  /// it only moves while no parallel region reads the snapshot.
  [[nodiscard]] std::uint64_t snapshot_epoch() const { return snapshot_epoch_; }

  // -- bound objects ---------------------------------------------------------
  [[nodiscard]] const netlist::Netlist& netlist() const { return nl_; }
  [[nodiscard]] netlist::Netlist& mutable_netlist() { return nl_; }
  [[nodiscard]] const liberty::Library& library() const { return lib_; }
  [[nodiscard]] const variation::VariationModel& variation() const { return var_; }
  [[nodiscard]] const TimingOptions& options() const { return options_; }
  /// The one walk order (netlist::topological_order at construction; the
  /// netlist's structure must not change over the context's lifetime).
  /// update(), every engine pass and every what-if cone follow it.
  [[nodiscard]] const std::vector<netlist::GateId>& topo_order() const { return order_; }
  /// Each node's rank in topo_order(), indexed by GateId.
  [[nodiscard]] std::span<const std::uint32_t> topo_position() const { return position_; }
  /// Netlist::structure_version() at construction.
  [[nodiscard]] std::uint64_t structure_version() const { return structure_version_; }

  // -- constraints -----------------------------------------------------------
  /// Installs external timing constraints (typically from an SDC file via
  /// bench_format::to_constraints). Non-empty vectors must be sized as
  /// documented on TimingConstraints. Does not trigger an update(): the
  /// snapshot is constraint-independent.
  void set_constraints(TimingConstraints constraints) {
    constraints_ = std::move(constraints);
  }
  [[nodiscard]] const TimingConstraints& constraints() const { return constraints_; }
  /// Arrival a node launches at before its fanins are folded in: its
  /// set_input_delay for a constrained primary input, else 0.
  [[nodiscard]] double launch_arrival_ps(netlist::GateId id) const {
    return (nl_.gate(id).fanins.empty() && !constraints_.input_arrival_ps.empty())
               ? constraints_.input_arrival_ps[id]
               : 0.0;
  }

  // -- per-node --------------------------------------------------------------
  /// True for nodes bound to a library cell (logic gates).
  [[nodiscard]] bool has_cell(netlist::GateId id) const;
  /// The cell currently bound to @p id. Precondition: has_cell(id).
  [[nodiscard]] const liberty::Cell& cell(netlist::GateId id) const;
  /// Drive strength of the bound cell (1.0 for unbound nodes).
  [[nodiscard]] double drive(netlist::GateId id) const;
  /// Capacitive load seen by the node's output.
  [[nodiscard]] double load_ff(netlist::GateId id) const { return load_[id]; }
  /// Worst output slew of the node (input slew for PIs).
  [[nodiscard]] double slew_ps(netlist::GateId id) const { return slew_[id]; }

  // -- per-arc (input index i of gate g) --------------------------------------
  [[nodiscard]] double arc_delay_ps(netlist::GateId g, std::size_t i) const {
    return arc_delay_[arc_offset_[g] + i];
  }
  [[nodiscard]] double arc_sigma_ps(netlist::GateId g, std::size_t i) const {
    return arc_sigma_[arc_offset_[g] + i];
  }
  /// Worst arc delay of the gate (its "gate delay").
  [[nodiscard]] double gate_delay_ps(netlist::GateId g) const;
  /// First slot of gate @p g in the dense arc arrays (arc (g, i) lives at
  /// arc_offset(g) + i), for consumers that index per-arc data the same way
  /// (e.g. ISLE's tracked arcs).
  [[nodiscard]] std::uint32_t arc_offset(netlist::GateId g) const { return arc_offset_[g]; }
  /// Total number of arcs (the size of the dense arc arrays).
  [[nodiscard]] std::size_t arc_count() const { return arc_offset_[nl_.node_count()]; }

  // -- aggregates --------------------------------------------------------------
  [[nodiscard]] double area_um2() const { return area_um2_; }

  // -- load terms ---------------------------------------------------------------
  /// Driver @p d's ordered load-term list (structural: built with the topo
  /// order, never altered by sizing). Folding the terms in list order with
  /// the currently bound cells reproduces update()'s load bitwise; the
  /// what-if overlays fold the same list with candidate cells substituted.
  [[nodiscard]] std::span<const LoadTerm> load_terms(netlist::GateId d) const {
    return std::span<const LoadTerm>(load_terms_).subspan(
        load_term_offset_[d], load_term_offset_[d + 1] - load_term_offset_[d]);
  }

  /// The one load fold (see LoadTerm): driver @p d's load accumulated in
  /// update()'s exact term order, with @p cell_of(consumer) supplying each
  /// consumer's cell. update() passes the bound-cell lookup; speculative
  /// overlays substitute candidates.
  template <typename CellOf>
  [[nodiscard]] double fold_load(netlist::GateId d, CellOf&& cell_of) const {
    double load = 0.0;
    for (const LoadTerm& t : load_terms(d)) {
      if (t.consumer == netlist::kNoGate) {
        load += options_.primary_output_load_ff * nl_.gate(d).po_count;
      } else {
        load += cell_of(t.consumer).input_cap_ff(t.fanin_index);
      }
    }
    return load;
  }

  // -- what-if queries (candidate cell for one gate; snapshot unchanged) -------
  /// Load of @p driver if gate @p center were bound to @p candidate.
  [[nodiscard]] double load_ff_with_resize(netlist::GateId driver, netlist::GateId center,
                                           const liberty::Cell& candidate) const;
  /// Delay of arc @p i of gate @p g with an explicit cell binding and load,
  /// using the snapshot's fanin slews.
  [[nodiscard]] double arc_delay_with(netlist::GateId g, std::size_t i,
                                      const liberty::Cell& cell, double load_ff) const;
  /// Sigma for a delay through @p cell (variation model shortcut).
  [[nodiscard]] double sigma_for(const liberty::Cell& cell, double delay_ps) const;

  // -- the slew/arc kernel -------------------------------------------------------
  /// The one slew/arc kernel: relaxes gate @p id bound to @p cell under
  /// @p load_ff, reading each fanin's slew through @p slew_of. Writes arc i's
  /// delay and sigma to @p arc_delay[i] / @p arc_sigma[i] (the gate's first
  /// arc slot in the caller's storage) and returns the worst output slew.
  /// update() runs it over the snapshot; the what-if cone replay
  /// (timing/cone.h) runs it over its cone-sized overlay with candidate cells
  /// and re-folded loads, which is what keeps the two bitwise-equal.
  template <typename SlewOf>
  [[nodiscard]] double relax_gate(netlist::GateId id, const liberty::Cell& cell, double load_ff,
                                  SlewOf&& slew_of, double* arc_delay,
                                  double* arc_sigma) const {
    const auto& g = nl_.gate(id);
    double out_slew = 0.0;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const liberty::TimingArc& arc = cell.arc_from(i);
      const double in_slew = slew_of(g.fanins[i]);
      const double d = arc.delay(in_slew, load_ff);
      arc_delay[i] = d;
      arc_sigma[i] = var_.sigma_ps(d, cell.drive);
      out_slew = std::max(out_slew, arc.output_slew(in_slew, load_ff));
    }
    return out_slew;
  }

  // -- incremental snapshot commit ---------------------------------------------
  /// Commits an exact what-if overlay (timing/cone.h) in place of a full
  /// update(): writes each (driver, load) of @p loads; for the i-th node of
  /// @p nodes (the overlay's change front), writes @p slew[i] and its arcs
  /// from @p arc_delay / @p arc_sigma, which hold the nodes' arcs back to
  /// back in that order; then re-sums the cell area exactly as update() does
  /// (floating-point addition is not associative, so an area *delta* would
  /// drift by ULPs). The caller guarantees the patched values are what a full
  /// update() would compute for the netlist's current sizing state, and that
  /// every node it leaves out already holds them — after the call the
  /// snapshot is bitwise-identical to having called update().
  void apply_snapshot_patch(std::span<const netlist::GateId> nodes,
                            std::span<const std::pair<netlist::GateId, double>> loads,
                            std::span<const double> slew, std::span<const double> arc_delay,
                            std::span<const double> arc_sigma);

 private:
  /// area_um2_ from scratch: update() and apply_snapshot_patch() share it.
  void sum_area();

  netlist::Netlist& nl_;
  const liberty::Library& lib_;
  const variation::VariationModel& var_;
  TimingOptions options_;
  TimingConstraints constraints_;

  std::vector<netlist::GateId> order_;
  std::vector<std::uint32_t> position_;
  std::uint64_t structure_version_ = 0;
  std::vector<std::uint32_t> load_term_offset_;
  std::vector<LoadTerm> load_terms_;
  std::vector<double> load_;
  std::vector<double> slew_;
  std::vector<std::uint32_t> arc_offset_;
  std::vector<double> arc_delay_;
  std::vector<double> arc_sigma_;
  double area_um2_ = 0.0;
  std::uint64_t snapshot_epoch_ = 0;
};

/// Reusable storage for collect_cone and its O(1) GateId -> slot lookup.
/// slots[id] is live only while stamps[id] == stamp, so a new list retires
/// the old one without clearing anything. One workspace per concurrent user.
struct ConeWorkspace {
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<std::uint32_t> stamps;
  std::vector<std::uint32_t> slots;
  std::uint32_t stamp = 0;  ///< stamp of the current list (0 never marks)
  /// The current list's id, unique across every workspace in the process
  /// (drawn from one counter at each restamp), so a holder of a list's
  /// generation can tell whether a workspace still indexes that list.
  std::uint64_t generation = 0;
  std::vector<netlist::GateId> nodes;  ///< the current list, by slot

  [[nodiscard]] std::uint32_t slot(netlist::GateId id) const {
    return stamps[id] == stamp ? slots[id] : kNoSlot;
  }
  /// Retires the current list (new stamp; the index is reset only when the
  /// stamp wraps or @p node_count changes) and empties nodes.
  void restamp(std::size_t node_count);
  /// Indexes @p list (slot i = list[i]).
  void index_list(std::size_t node_count, std::span<const netlist::GateId> list);
};

/// The calling thread's cone workspace, reused by every cone user on it —
/// exact what-if speculations (timing/cone.h) and FASSTA candidate scoring —
/// so none allocates an O(nodes) slot index per call. A thread runs one of
/// them at a time (pool workers run each task to completion and nested
/// parallel regions run inline), so nothing else touches it mid-use; a
/// holder of a list across calls checks its generation.
ConeWorkspace& thread_cone_workspace();

/// The one fanout-cone builder behind every what-if: the fanout closure of
/// @p seeds (duplicates allowed) as a subsequence of the context's
/// topo_order() (so every member follows its in-cone fanins; a node's index
/// is its *slot*), viewing @p ws.nodes until its next use. Cost: the cone's
/// edges plus a stamp test per topo_order() entry from the lowest seed
/// position to the cone's last member; nothing node-sized is cleared or
/// sorted. Audited by debug::validate_cone under STATSIZER_PARANOID.
std::span<const netlist::GateId> collect_cone(const TimingContext& ctx,
                                              std::span<const netlist::GateId> seeds,
                                              ConeWorkspace& ws);

}  // namespace statsizer::sta
