// Shared machinery for *exact* incremental what-if speculations over a
// resize set's fanout cone, and the analyzer base they commit into.
// Internal to src/timing (not installed); include only from src/timing/*.cpp.
//
// ConeSnapshot is the snapshot half: the fanout cone of a resize set
// (sta::collect_cone — the one cone builder, in topo_order()) plus the
// recomputed loads, slews, arc delays, and arc sigmas of its change front,
// computed by calling the context's own kernels — loads through the shared
// per-driver fold (TimingContext::fold_load, in update()'s exact
// accumulation order with candidate cells substituted; a cap *delta* added
// to the cached load would drift by an ULP), slews and arcs through the
// slew/arc kernel (TimingContext::relax_gate), in one serial walk over the
// topo-ordered cone. replay() re-relaxes and stores only the change front:
// the resized gates, the re-folded drivers, and the fanouts of a front node
// whose slew moved bitwise. Every other cone node would recompute the
// context's own slew and arcs from unchanged inputs, so the engine halves
// read those from the context through the snapshot's one accessor
// (ConeSnapshot::arc) and nothing copies them. Front storage is reserved
// when the speculation is proposed, so a speculation holds O(cone) memory
// and never allocates or clears anything node- or arc-sized; the only
// GateId -> slot map is the scoring thread's reused sta::ConeWorkspace.
// Values outside the cone are untouched (they are bitwise-unchanged by the
// resizes), so an engine that calls its own gate kernel over the cone in
// topological order — reading everything else from its cached base —
// reproduces a from-scratch update() + full run bitwise.
// TimingContext::apply_snapshot_patch() writes the front alone to commit
// the overlay in place of a full update().
//
// ConeSpeculation is the one speculation transaction, shared by the
// FULLSSTA, FASSTA and DSTA analyzers: it scores on the overlay and commits it
// incrementally. Each engine supplies only its engine half
// (propagate_arrivals, which calls the engine's kernel) and its base merge
// (merge_arrivals). AnalyzerBase is the one analyzer base: the bound context,
// the cached base summary and the epoch that invalidates stale speculations.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "debug/validate.h"
#include "timing/analyzer.h"
#include "util/check.h"
#include "util/exec.h"

namespace statsizer::timing::detail {

/// Bitwise equality, the proof behind the what-if cutoffs: -0.0 never
/// equals 0.0, and a NaN equals only its own bit pattern.
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The snapshot overlay of one exact what-if: the resize set's fanout cone,
/// and the recomputed load/slew/arc values of its change front.
struct ConeSnapshot {
  static constexpr std::uint32_t kNotFront = ~std::uint32_t{0};

  /// The cone in topo_order() order (the resized gates, their mapped
  /// drivers, and the downstream fanout closure): slot s is nodes[s].
  std::vector<netlist::GateId> nodes;
  /// Re-folded load of every driver of a resized gate, including unmapped
  /// ones (a primary input's load feeds no arc, but apply_snapshot_patch
  /// must still write it to stay bitwise-equal to a full update()).
  std::vector<std::pair<netlist::GateId, double>> loads;
  /// The change front: the slots replay() re-relaxed, as GateIds in slot
  /// order. Every other slot's slew and arcs are the context's, bitwise.
  std::vector<netlist::GateId> front;
  /// By slot: the slot's index in front, or kNotFront.
  std::vector<std::uint32_t> front_of;
  std::vector<double> slew;  ///< per front entry
  /// Front entry f's arcs are [arc_begin[f], arc_begin[f + 1]) of arc_delay
  /// and arc_sigma: the front's arcs back to back, in front order.
  std::vector<std::uint32_t> arc_begin;
  std::vector<double> arc_delay;
  std::vector<double> arc_sigma;

  /// Arc @p i of the node at slot @p s: its (delay, sigma), from the front
  /// or, behind it, from the context collect() was given. The one accessor
  /// the engine halves read the cone's arcs through.
  [[nodiscard]] std::pair<double, double> arc(std::uint32_t s, std::size_t i) const {
    const std::uint32_t f = front_of[s];
    if (f == kNotFront) return {ctx_->arc_delay_ps(nodes[s], i), ctx_->arc_sigma_ps(nodes[s], i)};
    return {arc_delay[arc_begin[f] + i], arc_sigma[arc_begin[f] + i]};
  }
  /// The replayed slew of the node at slot @p s.
  [[nodiscard]] double slew_at(std::uint32_t s) const {
    const std::uint32_t f = front_of[s];
    return f == kNotFront ? ctx_->slew_ps(nodes[s]) : slew[f];
  }

  /// The structural half, on the proposing thread: collects the cone of
  /// @p resizes into @p ws and reserves every value array for a front as
  /// large as the cone, so replay() only fills storage that already exists.
  /// @p ws then indexes the cone.
  void collect(const sta::TimingContext& ctx, std::span<const Resize> resizes,
               sta::ConeWorkspace& ws);

  /// The value half: recomputes the change front of the collected cone
  /// against @p ctx's current snapshot with update()'s load fold and slew/arc
  /// kernel. A node is re-relaxed and stored only when it is a resized gate,
  /// a re-folded driver, or a fanout of a front node whose slew moved
  /// bitwise; every other node's values are exactly the context's, read
  /// through arc() and slew_at() (a paranoid build re-relaxes them and
  /// checks). @p ws must index this cone. Allocates nothing once the calling
  /// thread's temporaries have served a cone this large.
  void replay(const sta::TimingContext& ctx, std::span<const Resize> resizes,
              const sta::ConeWorkspace& ws);

 private:
  const sta::TimingContext* ctx_ = nullptr;  ///< bound by collect()
};

/// The one speculation transaction, the exact cone what-if of the FULLSSTA,
/// FASSTA and DSTA analyzers: the epoch guard, the cached score,
/// score-before-commit, commit-once and the no-op rollback. Owner is the
/// analyzer (an AnalyzerBase); the subclass is nested in it, so its engine
/// half reads the owner's cached base directly. Construction (propose(), on
/// the proposing thread) collects the cone and allocates the whole overlay;
/// scoring writes only that overlay and its thread's cone workspace — never
/// the shared netlist, context or base — so speculations from one base score
/// concurrently and a pool worker scoring one allocates nothing of its own.
/// commit() installs the overlay incrementally — sizes into the netlist, the
/// snapshot half through TimingContext::apply_snapshot_patch(), the engine
/// half into the owner's base — with no O(E) re-run.
template <typename Owner>
class ConeSpeculation : public Speculation {
 public:
  /// Subclasses size their own overlay state in their constructors.
  ConeSpeculation(Owner& owner, sta::TimingContext& ctx, std::span<const Resize> resizes)
      : owner_(owner), ctx_(ctx), resizes_(resizes.begin(), resizes.end()),
        epoch_(owner.epoch()) {
    sta::ConeWorkspace& ws = sta::thread_cone_workspace();
    cone_.collect(ctx_, resizes_, ws);
    collected_generation_ = ws.generation;
    moments_.assign(cone_.nodes.size(), sta::NodeMoments{});
  }

  const Summary& score() final {
    if (scored_) return result_;  // cached scores stay readable after invalidation
    owner_.guard_epoch(epoch_);
    sta::ConeWorkspace& ws = sta::thread_cone_workspace();
    // A speculation scored where it was proposed, with nothing collected in
    // between, finds its cone still indexed; elsewhere the scoring thread
    // re-stamps its own workspace from the collected list.
    if (ws.generation != collected_generation_) {
      ws.index_list(ctx_.netlist().node_count(), cone_.nodes);
    }
    cone_.replay(ctx_, resizes_, ws);
    propagate_arrivals(ws);
    scored_ = true;
    return result_;
  }

  void commit() final {
    if (committed_) return;  // a second commit is a no-op
    owner_.guard_epoch(epoch_);
    // Nothing shared changes before the install, and the install runs with
    // checkpoints suspended, so a commit either completes or never starts.
    if (!scored_) (void)score();
    const util::ScopedExecSuspend suspend;
    auto& nl = ctx_.mutable_netlist();
    for (const Resize& r : resizes_) nl.gate(r.gate).size_index = r.size;
    ctx_.apply_snapshot_patch(cone_.front, cone_.loads, cone_.slew, cone_.arc_delay,
                              cone_.arc_sigma);
    merge_arrivals();  // engine-specific base state
    owner_.merge_committed(result_, cone_.nodes, moments_);  // bumps the epoch
    committed_ = true;
  }

  void rollback() final {}  // score() never touches shared state

  ReplayCounts replayed() const final {
    return scored_ ? ReplayCounts{cone_.nodes.size(), cone_.front.size()} : ReplayCounts{};
  }

 protected:
  /// Engine half of score(): run the engine's gate kernel over the cone in
  /// slot order (cone_.nodes; ws.slot() maps a GateId to its slot), reading
  /// nodes outside it (ws.slot() == kNoSlot) from the owner's base, and fill
  /// the pre-sized moments_ and result_.mean_ps / result_.sigma_ps.
  virtual void propagate_arrivals(const sta::ConeWorkspace& ws) = 0;
  /// Commit half: install any per-slot state besides moments_ in the base.
  virtual void merge_arrivals() {}

  Owner& owner_;
  sta::TimingContext& ctx_;
  std::vector<Resize> resizes_;
  Summary result_;
  ConeSnapshot cone_;
  std::vector<sta::NodeMoments> moments_;  ///< arrival moments by cone slot

 private:
  std::uint64_t epoch_ = 0;
  std::uint64_t collected_generation_ = 0;  ///< the cone's list in the proposer's workspace
  bool scored_ = false;
  bool committed_ = false;
};

/// propose() preconditions on a bound context: at least one resize, distinct
/// mapped gates, size indices inside each gate's group. Throws
/// std::invalid_argument naming @p engine.
void validate_resizes(std::string_view engine, const sta::TimingContext& ctx,
                      std::span<const Resize> resizes);

/// Base of every built-in analyzer: the bound context, the cached base
/// summary and the epoch counter. The epoch implements speculation
/// invalidation: propose() stamps the speculation with the current epoch,
/// and commit()/analyze() bump it, so a stale speculation's score() fails
/// loudly instead of silently evaluating against a base that no longer
/// exists. Self supplies compute() (a from-scratch run) and its
/// ConeSpeculation subclass Self::WhatIfSpeculation; both may be private
/// with AnalyzerBase<Self> a friend.
template <typename Self>
class AnalyzerBase : public Analyzer {
 public:
  const Summary& analyze(sta::TimingContext& ctx) final {
    base_ = static_cast<Self&>(*this).compute(ctx);
    ctx_ = &ctx;
    ++epoch_;
    return base_;
  }

  const Summary& current() const final {
    if (ctx_ == nullptr) {
      throw std::logic_error(std::string(name()) + ": current() before analyze()");
    }
    return base_;
  }

  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) final {
    if (ctx_ == nullptr) {
      throw std::logic_error(std::string(name()) + ": propose() before analyze()");
    }
    validate_resizes(name(), *ctx_, resizes);
    return std::make_unique<typename Self::WhatIfSpeculation>(static_cast<Self&>(*this), *ctx_,
                                                              resizes);
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  void guard_epoch(std::uint64_t speculation_epoch) const {
    if constexpr (debug::kParanoid) {
      // A stamp *ahead* of the analyzer epoch can never come from correct
      // bookkeeping (stale stamps are the caller error handled below).
      debug::validate_epoch(name(), speculation_epoch, epoch_);
    }
    if (speculation_epoch != epoch_) {
      throw std::logic_error(std::string(name()) +
                             ": speculation invalidated by a commit or re-analyze");
    }
  }

  /// Installs a committed speculation's summary scalars and the arrival
  /// moments of its cone (@p moments[s] belongs to @p cone[s]), and
  /// invalidates its siblings.
  void merge_committed(const Summary& scored, std::span<const netlist::GateId> cone,
                       std::span<const sta::NodeMoments> moments) {
    base_.mean_ps = scored.mean_ps;
    base_.sigma_ps = scored.sigma_ps;
    for (std::size_t s = 0; s < cone.size(); ++s) base_.node[cone[s]] = moments[s];
    ++epoch_;
  }

 protected:
  Summary base_;

 private:
  sta::TimingContext* ctx_ = nullptr;  ///< null until the first analyze() completes
  std::uint64_t epoch_ = 0;
};

/// The FULLSSTA engine-table row (fullssta_analyzer.cpp).
std::unique_ptr<Analyzer> make_fullssta_analyzer(const AnalyzerOptions& options);

}  // namespace statsizer::timing::detail
