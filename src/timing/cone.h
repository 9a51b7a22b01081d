// Shared machinery for *exact* incremental what-if speculations over a
// resize set's fanout cone. Internal to src/timing (not installed).
//
// ConeSnapshot is the snapshot half: the dirty closure of a resize set plus
// the recomputed loads, slews, arc delays, and arc sigmas over it, computed
// by calling the context's own kernels — loads through the shared
// per-driver fold (TimingContext::fold_load, in update()'s exact
// accumulation order with candidate cells substituted; a cap *delta* added
// to the cached load would drift by an ULP), slews and arcs through the
// slew/arc kernel (TimingContext::relax_gate), over the same levelized sweep
// (sta::sweep_levels). Values outside the cone are untouched (they are
// bitwise-unchanged by the resizes), so an engine that calls its own gate
// kernel over `dirty` in topological order — reading everything else from
// its cached base — reproduces a from-scratch update() + full run bitwise.
// TimingContext::apply_snapshot_patch() consumes the same arrays to commit
// the overlay in place of a full update().
//
// ConeSpeculation is the transaction around it that the FULLSSTA, FASSTA
// and DSTA analyzers share: epoch guard, cached score, and the incremental
// commit. Each engine supplies only its engine half (propagate_arrivals,
// which calls the engine's kernel) and its base merge (merge_arrivals).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "timing/analyzer.h"

namespace statsizer::timing::detail {

/// The snapshot overlay of one exact what-if: dirty flags plus the
/// recomputed load/slew/arc values for the resize set's fanout cone. Dense
/// (GateId / arc-slot indexed) so the arrays drop straight into
/// TimingContext::apply_snapshot_patch(); each live speculation holds
/// O(nodes + arcs) overlay memory, so callers scoring many speculations
/// concurrently should window their waves.
struct ConeSnapshot {
  /// Candidate cell per gate (nullptr = keep the bound cell).
  std::vector<const liberty::Cell*> cand;
  /// Nodes whose slews/arc delays/arc sigmas are recomputed (the resized
  /// gates, their mapped drivers, and the downstream fanout closure).
  std::vector<std::uint8_t> dirty;
  /// Nodes whose loads are recomputed: every driver of a resized gate,
  /// including unmapped ones (a primary input's load feeds no arc, but
  /// apply_snapshot_patch must still write it to stay bitwise-equal to a
  /// full update()).
  std::vector<std::uint8_t> load_dirty;
  std::vector<double> load;       ///< valid where load_dirty
  std::vector<double> slew;       ///< valid where dirty
  std::vector<double> arc_delay;  ///< dense, ctx.arc_offset() indexing, valid where dirty
  std::vector<double> arc_sigma;
  /// Dirty gates per wavefront level — populated only when propagate() ran
  /// with threads != 1 (empty otherwise). Engine halves replaying the same
  /// dirty set on sta::sweep_levels pass it as the per-level working width.
  std::vector<std::uint32_t> dirty_per_level;

  /// Recomputes the cone for @p resizes against @p ctx's current snapshot
  /// with update()'s load fold and slew/arc kernel. With @p threads != 1 the
  /// dirty replay runs as a levelized wavefront (bitwise-identical results
  /// for any value). Callers already running inside a pool worker — a wave
  /// of speculations scoring concurrently — execute inline regardless.
  void propagate(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                 std::size_t threads = 1);
};

/// The exact cone speculation. Owner is the analyzer (a BoundAnalyzer); the
/// subclass is nested in it, so its engine half reads the owner's cached
/// base directly. score() touches only the speculation's private overlay, so
/// speculations fan out in parallel; commit() installs the overlay
/// incrementally — sizes into the netlist, the snapshot half through
/// TimingContext::apply_snapshot_patch() (bitwise-equal to a full update()),
/// the engine half into the owner's base — with no O(E) re-run.
template <typename Owner>
class ConeSpeculation : public Speculation {
 public:
  ConeSpeculation(Owner& owner, sta::TimingContext& ctx, std::span<const Resize> resizes)
      : owner_(owner), ctx_(ctx), epoch_(owner.epoch()) {
    resizes_.assign(resizes.begin(), resizes.end());
  }

  const Summary& score() final {
    if (scored_) return result_;  // cached scores stay readable after invalidation
    owner_.guard_epoch(epoch_);
    cone_.propagate(ctx_, resizes_, replay_threads());
    propagate_arrivals();
    scored_ = true;
    return result_;
  }

  void commit() final {
    if (committed_) return;  // uniform contract: a second commit is a no-op
    owner_.guard_epoch(epoch_);
    if (!scored_) (void)score();  // must run against the pre-resize snapshot
    auto& nl = ctx_.mutable_netlist();
    for (const Resize& r : resizes_) nl.gate(r.gate).size_index = r.size;
    ctx_.apply_snapshot_patch(cone_.dirty, cone_.load_dirty, cone_.load, cone_.slew,
                              cone_.arc_delay, cone_.arc_sigma);
    merge_arrivals();                 // the engine half's per-node base state
    owner_.merge_committed(result_);  // summary scalars; bumps the epoch
    committed_ = true;
  }

  void rollback() final {}  // the overlay never touched shared state

 protected:
  /// Threads for the snapshot half's wavefront (on the caller's thread;
  /// inline when scoring inside a pool worker): update()'s knob by default.
  virtual std::size_t replay_threads() const { return ctx_.options().threads; }
  /// Engine half of score(): run the engine's gate kernel over cone_.dirty
  /// and fill result_.mean_ps / result_.sigma_ps.
  virtual void propagate_arrivals() = 0;
  /// Commit half: write the overlay's per-node state into the owner's base.
  virtual void merge_arrivals() = 0;

  Owner& owner_;
  sta::TimingContext& ctx_;
  std::uint64_t epoch_ = 0;
  ConeSnapshot cone_;
  Summary result_;
  bool scored_ = false;
  bool committed_ = false;
};

}  // namespace statsizer::timing::detail
