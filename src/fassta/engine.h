// FASSTA — the fast moment-only statistical timing engine (paper section
// 4.3). It propagates (mean, sigma) pairs instead of full pdfs:
//   sum:  mu = mu_in + d_arc,  var = var_in + sigma_arc^2
//   max:  Clark moments with dominance early-outs and the quadratic erf
//         approximation (fassta/clark.h)
// Boundary conditions at a subcircuit cut come from the most recent FULLSSTA
// pass. The engine's whole reason to exist is evaluating candidate gate sizes
// inside the optimizer's inner loop at negligible cost.
//
// Thread safety: an Engine holds a const reference to the TimingContext
// snapshot, immutable options, and one cache: the base arrivals of a full
// run() that candidate scoring reads outside each resize's fanout cone. The
// cache is keyed on TimingContext::snapshot_epoch() and refreshed lazily by
// the first scorer that sees the epoch move (under a mutex; the others wait
// for it), in place, into a buffer reserved on the constructing thread — so
// a pool worker that happens to refresh it allocates nothing. Every method
// is const and re-entrant — one Engine may be
// shared by any number of threads as long as nobody mutates the netlist or
// writes the snapshot concurrently. The per-call mutable state lives in an
// explicit Scratch workspace; give each worker thread its own (see
// docs/ARCHITECTURE.md, "Concurrency & determinism contracts").
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "netlist/subcircuit.h"
#include "sta/graph.h"

namespace statsizer::fassta {

/// How max is folded over a gate's arcs.
enum class MaxMode {
  kFast,   ///< paper: dominance early-out + quadratic erf
  kExact,  ///< Clark with std::erf (accuracy reference / ablations)
};

struct EngineOptions {
  MaxMode max_mode = MaxMode::kFast;
  double dominance_threshold = 2.6;  ///< |alpha| beyond which one input wins
};

/// Cost summary for a subcircuit under paper eq. 7:
///   cost = max over outputs of (mu_i + lambda * sigma_i).
struct SubcircuitCost {
  double cost = 0.0;
  double worst_mean_ps = 0.0;   ///< moments of the output attaining the max
  double worst_sigma_ps = 0.0;
};

class Engine {
 public:
  /// Reusable workspace for the scoring entry points. A Scratch is NOT
  /// thread-safe: each thread scoring candidates must own its own instance
  /// (the engine itself may be shared). Reusing one Scratch across calls
  /// keeps the per-call cost proportional to the cone (or subcircuit): its
  /// one O(nodes) array, the workspace's stamped GateId -> slot index, is
  /// allocated once and never cleared per call. If a call throws, discard
  /// the Scratch (its bookkeeping may be mid-reset).
  struct Scratch {
    /// run_with_candidate: the fanout cone (sta::collect_cone);
    /// evaluate_candidate: the subcircuit members' slots.
    sta::ConeWorkspace cone;
    std::vector<sta::NodeMoments> arrival;  ///< cone / member arrivals, by slot
    std::vector<netlist::GateId> seeds;     ///< run_with_candidate: the cone's seeds
    std::vector<std::pair<netlist::GateId, double>> perturbed;  ///< run_with_candidate: driver loads
  };

  explicit Engine(const sta::TimingContext& ctx, EngineOptions options = {});

  /// Statistical max of two Gaussian moment pairs under the engine's options.
  /// Pure function of its arguments — safe from any thread.
  [[nodiscard]] sta::NodeMoments stat_max(const sta::NodeMoments& a,
                                          const sta::NodeMoments& b) const;

  /// Full-netlist moment propagation (used standalone and in benchmarks).
  /// Returns per-node arrival moments; @p circuit is filled with the moments
  /// of the statistical max over all primary outputs if non-null. Const and
  /// re-entrant.
  [[nodiscard]] std::vector<sta::NodeMoments> run(sta::NodeMoments* circuit = nullptr) const;

  /// Full-netlist moment propagation with gate @p center hypothetically bound
  /// to @p candidate: loads of the center's drivers and the affected arc
  /// delays are recomputed, everything else reuses the snapshot. Returns the
  /// circuit moments (statistical max over primary outputs). This is the
  /// robust inner-loop score: unlike a truncated window it sees the
  /// max-over-all-paths behaviour of the objective (see DESIGN.md,
  /// "window truncation").
  ///
  /// Only the fanout cone of the perturbed gates (the center, plus those of
  /// its drivers whose load_ff_with_resize differs from load_ff) is
  /// recomputed, in level order over sta::collect_cone's list; every other
  /// arrival is read from a cached run() of the current snapshot, refreshed
  /// when TimingContext::snapshot_epoch() moves. The result is
  /// bitwise-identical to sweeping the whole netlist. Cost: the cone's
  /// edges plus collect_cone's scan, with nothing cleared per call.
  /// c6288's cones average ~34% of its nodes and mesh6's ~18%; perfbench's
  /// fassta.candidate_us reads ~80-100 us per call on c6288 and ~65-80 us
  /// on mesh6 (4-core x86-64 host, RelWithDebInfo). Const and re-entrant;
  /// allocates its own workspace. Hot loops should use the Scratch overload
  /// instead.
  [[nodiscard]] sta::NodeMoments run_with_candidate(netlist::GateId center,
                                                    const liberty::Cell& candidate) const;

  /// Same, reusing @p scratch for the per-call workspace. Safe to call
  /// concurrently from many threads as long as every thread passes a distinct
  /// Scratch; returns moments bitwise-identical to the allocating overload.
  [[nodiscard]] sta::NodeMoments run_with_candidate(netlist::GateId center,
                                                    const liberty::Cell& candidate,
                                                    Scratch& scratch) const;

  /// Backward moment pass: for every node, the statistical moments of the
  /// worst downstream path from the node's *output* to any primary output
  /// (0 for PO drivers' direct observation). Window outputs are scored as
  /// local-arrival (+) downstream-potential, which makes costs of different
  /// window outputs globally comparable — without this, a candidate that
  /// slows a side path with deep downstream logic can look like a win inside
  /// a truncated window (see DESIGN.md, "window truncation"). Const and
  /// re-entrant.
  [[nodiscard]] std::vector<sta::NodeMoments> compute_downstream() const;

  /// Evaluates paper eq. 7 over @p sc with gate @p center hypothetically
  /// bound to @p candidate (pass the currently bound cell to score the status
  /// quo). @p boundary are FULLSSTA's per-node arrival moments (subcircuit
  /// members are recomputed, boundary nodes are read as-is); @p downstream
  /// comes from compute_downstream() on the same snapshot. Const and
  /// re-entrant; allocates its own workspace.
  [[nodiscard]] SubcircuitCost evaluate_candidate(const netlist::Subcircuit& sc,
                                                  std::span<const sta::NodeMoments> boundary,
                                                  std::span<const sta::NodeMoments> downstream,
                                                  netlist::GateId center,
                                                  const liberty::Cell& candidate,
                                                  double lambda) const;

  /// Same, reusing @p scratch (one Scratch per thread). The GateId -> member
  /// map is the scratch's stamped slot index, so the reset cost per call is
  /// O(|subcircuit|) rather than O(nodes).
  [[nodiscard]] SubcircuitCost evaluate_candidate(const netlist::Subcircuit& sc,
                                                  std::span<const sta::NodeMoments> boundary,
                                                  std::span<const sta::NodeMoments> downstream,
                                                  netlist::GateId center,
                                                  const liberty::Cell& candidate,
                                                  double lambda, Scratch& scratch) const;

  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The one FASSTA gate kernel: gate @p g's arrival moments, the
  /// statistical max over its arcs of arrival_of(fanin) + arc, where
  /// arc_of(i) yields arc i's (delay, sigma); (0, 0) for a gate without
  /// fanins. run(), run_with_candidate(), evaluate_candidate() and the
  /// FASSTA analyzer's what-if all fold through it.
  template <typename ArrivalOf, typename ArcOf>
  [[nodiscard]] sta::NodeMoments fold_arcs(const netlist::Gate& g, ArrivalOf&& arrival_of,
                                           ArcOf&& arc_of) const {
    sta::NodeMoments acc;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const sta::NodeMoments& in = arrival_of(g.fanins[i]);
      const auto [d, s] = arc_of(i);
      const sta::NodeMoments through{in.mean_ps + d,
                                     std::sqrt(in.sigma_ps * in.sigma_ps + s * s)};
      acc = (i == 0) ? through : stat_max(acc, through);
    }
    return acc;
  }

  /// Statistical max over the primary-output drivers' arrivals, in output
  /// order: the circuit moments.
  template <typename ArrivalOf>
  [[nodiscard]] sta::NodeMoments fold_outputs(ArrivalOf&& arrival_of) const {
    sta::NodeMoments out{0.0, 0.0};
    bool first = true;
    for (const auto& po : ctx_.netlist().outputs()) {
      out = first ? arrival_of(po.driver) : stat_max(out, arrival_of(po.driver));
      first = false;
    }
    return out;
  }

 private:
  /// run()'s arrivals for the snapshot at its current epoch (lazily refreshed).
  const std::vector<sta::NodeMoments>& base_arrivals() const;
  /// run() into @p arrival, reusing its capacity.
  void run_into(std::vector<sta::NodeMoments>& arrival, sta::NodeMoments* circuit) const;

  const sta::TimingContext& ctx_;
  EngineOptions options_;

  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};
  mutable std::mutex base_mutex_;  ///< serializes refreshes of base_
  mutable std::atomic<std::uint64_t> base_epoch_{kNoEpoch};
  mutable std::vector<sta::NodeMoments> base_;
};

}  // namespace statsizer::fassta
