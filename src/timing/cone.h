// Shared machinery for *exact* incremental what-if speculations over a
// resize set's fanout cone. Internal to src/timing (not installed).
//
// ConeSnapshot is the snapshot half: the fanout cone of a resize set
// (sta::collect_cone — the one cone builder, level-sorted) plus the
// recomputed loads, slews, arc delays, and arc sigmas over it, computed by
// calling the context's own kernels — loads through the shared per-driver
// fold (TimingContext::fold_load, in update()'s exact accumulation order with
// candidate cells substituted; a cap *delta* added to the cached load would
// drift by an ULP), slews and arcs through the slew/arc kernel
// (TimingContext::relax_gate), in one serial walk over the level-sorted
// cone. Every value array is indexed by cone slot, so a speculation holds
// O(cone) memory and never allocates or clears anything node- or
// arc-sized; the only GateId -> slot map is the scoring thread's reused
// sta::ConeWorkspace. The cone is collected, and every array sized,
// when the speculation is proposed; scoring only fills them (collect() /
// replay()). replay() re-relaxes only the change front: the resized gates,
// the re-folded drivers, and the nodes with a fanin slot whose slew moved
// bitwise; every other slot copies the context's slew and arcs, which are
// exactly what relax_gate would recompute from unchanged inputs. Values
// outside the cone are untouched (they are
// bitwise-unchanged by the resizes), so an engine that calls its own gate
// kernel over the cone in level order — reading everything else from its
// cached base — reproduces a from-scratch update() + full run bitwise.
// TimingContext::apply_snapshot_patch() consumes the same arrays to commit
// the overlay in place of a full update().
//
// ConeSpeculation is the Transaction (timing/analyzer_impl.h) the FULLSSTA,
// FASSTA and DSTA analyzers share: it scores on the overlay and commits it
// incrementally. Each engine supplies only its engine half
// (propagate_arrivals, which calls the engine's kernel) and its base merge
// (merge_arrivals).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "timing/analyzer_impl.h"

namespace statsizer::timing::detail {

/// Bitwise equality, the proof behind the what-if cutoffs: -0.0 never
/// equals 0.0, and a NaN equals only its own bit pattern.
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The snapshot overlay of one exact what-if: the resize set's fanout cone
/// and the recomputed load/slew/arc values over it, indexed by cone slot.
struct ConeSnapshot {
  /// The cone in order_by_level order (the resized gates, their mapped
  /// drivers, and the downstream fanout closure): slot s is nodes[s].
  std::vector<netlist::GateId> nodes;
  /// Re-folded load of every driver of a resized gate, including unmapped
  /// ones (a primary input's load feeds no arc, but apply_snapshot_patch
  /// must still write it to stay bitwise-equal to a full update()).
  std::vector<std::pair<netlist::GateId, double>> loads;
  std::vector<double> slew;  ///< per slot
  /// Slot s's arcs are [arc_begin[s], arc_begin[s + 1]) of arc_delay and
  /// arc_sigma: the cone's arcs back to back, in cone order.
  std::vector<std::uint32_t> arc_begin;
  std::vector<double> arc_delay;
  std::vector<double> arc_sigma;

  /// Arc @p i of the node at slot @p s: its (delay, sigma).
  [[nodiscard]] std::pair<double, double> arc(std::uint32_t s, std::size_t i) const {
    return {arc_delay[arc_begin[s] + i], arc_sigma[arc_begin[s] + i]};
  }

  /// The structural half, on the proposing thread: collects the cone of
  /// @p resizes into @p ws and sizes every value array, so replay() only
  /// fills storage that already exists. @p ws then indexes the cone.
  void collect(const sta::TimingContext& ctx, std::span<const Resize> resizes,
               sta::ConeWorkspace& ws);

  /// The value half: recomputes the collected cone against @p ctx's current
  /// snapshot with update()'s load fold and slew/arc kernel, re-relaxing a
  /// node only when it is a seed or a fanin slew differs bitwise from the
  /// context's (the others copy the context's values; a paranoid build
  /// re-relaxes them and checks the copy). @p ws must
  /// index this cone. Allocates nothing once the calling thread's
  /// temporaries have served a cone this large.
  void replay(const sta::TimingContext& ctx, std::span<const Resize> resizes,
              const sta::ConeWorkspace& ws);

  /// collect() then replay(): a one-shot overlay.
  void propagate(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                 sta::ConeWorkspace& ws) {
    collect(ctx, resizes, ws);
    replay(ctx, resizes, ws);
  }
};

/// The calling thread's cone workspace, reused by every speculation
/// collected or scored on it, so no what-if allocates an O(nodes) slot
/// index. A thread scores one speculation at a time — pool workers run each
/// task to completion and nested parallel regions run inline — so nothing
/// else touches it mid-score.
sta::ConeWorkspace& thread_cone_workspace();

/// The exact cone speculation of the FULLSSTA, FASSTA and DSTA analyzers.
/// Owner is the analyzer; the subclass is nested in it, so its engine half
/// reads the owner's cached base directly. Construction (propose(), on the
/// proposing thread) collects the cone and allocates the whole overlay;
/// scoring writes only that overlay and its thread's cone workspace, so a
/// pool worker scoring one allocates nothing of its own. commit() installs
/// the overlay incrementally — sizes into the netlist, the snapshot half
/// through TimingContext::apply_snapshot_patch(), the engine half into the
/// owner's base — with no O(E) re-run.
template <typename Owner>
class ConeSpeculation : public Transaction<Owner> {
 public:
  /// Subclasses size their own overlay state in their constructors.
  ConeSpeculation(Owner& owner, sta::TimingContext& ctx, std::span<const Resize> resizes)
      : Transaction<Owner>(owner, ctx, resizes) {
    sta::ConeWorkspace& ws = thread_cone_workspace();
    cone_.collect(ctx_, resizes_, ws);
    collected_generation_ = ws.generation;
    moments_.assign(cone_.nodes.size(), sta::NodeMoments{});
  }

 protected:
  using Transaction<Owner>::owner_;
  using Transaction<Owner>::ctx_;
  using Transaction<Owner>::resizes_;
  using Transaction<Owner>::result_;

  /// Engine half of score(): run the engine's gate kernel over the cone in
  /// slot order (cone_.nodes; ws.slot() maps a GateId to its slot), reading
  /// nodes outside it (ws.slot() == kNoSlot) from the owner's base, and fill
  /// the pre-sized moments_ and result_.mean_ps / result_.sigma_ps.
  virtual void propagate_arrivals(const sta::ConeWorkspace& ws) = 0;
  /// Commit half: install any per-slot state besides moments_ in the base.
  virtual void merge_arrivals() {}

  ConeSnapshot cone_;
  std::vector<sta::NodeMoments> moments_;  ///< arrival moments by cone slot

 private:
  void evaluate() final {
    sta::ConeWorkspace& ws = thread_cone_workspace();
    // A speculation scored where it was proposed, with nothing collected in
    // between, finds its cone still indexed; elsewhere the scoring thread
    // re-stamps its own workspace from the collected list.
    if (ws.generation != collected_generation_) {
      ws.index_list(ctx_.netlist().node_count(), cone_.nodes);
    }
    cone_.replay(ctx_, resizes_, ws);
    propagate_arrivals(ws);
  }

  void install() final {
    auto& nl = ctx_.mutable_netlist();
    for (const Resize& r : resizes_) nl.gate(r.gate).size_index = r.size;
    ctx_.apply_snapshot_patch(cone_.nodes, cone_.loads, cone_.slew, cone_.arc_delay,
                              cone_.arc_sigma);
    merge_arrivals();  // engine-specific base state
    owner_.merge_committed(result_, cone_.nodes, moments_);  // bumps the epoch
  }

  std::uint64_t collected_generation_ = 0;  ///< the cone's list in the proposer's workspace
};

/// Base of the analyzers whose what-ifs are ConeSpeculations (FULLSSTA,
/// FASSTA, DSTA; Self::WhatIfSpeculation is the engine's subclass).
template <typename Self>
class ConeAnalyzer : public AnalyzerBase {
 public:
  Capabilities capabilities() const override { return {.per_node_moments = true}; }

 protected:
  std::unique_ptr<Speculation> speculate(sta::TimingContext& ctx,
                                         std::span<const Resize> resizes) final {
    return std::make_unique<typename Self::WhatIfSpeculation>(static_cast<Self&>(*this), ctx,
                                                              resizes);
  }
};

}  // namespace statsizer::timing::detail
