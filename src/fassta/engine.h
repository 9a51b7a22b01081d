// FASSTA — the fast moment-only statistical timing engine (paper section
// 4.3). It propagates (mean, sigma) pairs instead of full pdfs:
//   sum:  mu = mu_in + d_arc,  var = var_in + sigma_arc^2
//   max:  Clark moments with dominance early-outs and the quadratic erf
//         approximation (fassta/clark.h)
// Boundary conditions at a subcircuit cut come from the most recent FULLSSTA
// pass. The engine's whole reason to exist is evaluating candidate gate sizes
// inside the optimizer's inner loop at negligible cost: all sizes of a gate
// in one walk of their fanout cone, a lane per size (run_with_candidates).
//
// Thread safety: an Engine never changes after construction. It holds a
// const reference to the TimingContext snapshot, const options, and the
// base arrivals of a full run() of the snapshot it was built on, which
// candidate scoring reads outside each resize's fanout cone. A write to the
// snapshot (TimingContext::update(), apply_snapshot_patch()) makes the
// engine stale: candidate scoring then throws std::logic_error, and the
// caller builds a new Engine. Every method is const and re-entrant — one
// Engine may be shared by any number of threads as long as nobody mutates
// the netlist or writes the snapshot concurrently. The per-call working
// state lives in an explicit Scratch workspace and the calling thread's
// sta::thread_cone_workspace(); give each worker thread its own Scratch (see
// docs/ARCHITECTURE.md, "Concurrency & determinism contracts").
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fassta/clark.h"
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
  double dominance_threshold = kDominanceThreshold;  ///< |alpha| beyond which one input wins
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
  /// run_with_candidates() lanes as bits, and how many lanes one walk carries.
  using LaneMask = std::uint64_t;
  static constexpr std::size_t kMaxLanes = 64;

  /// Reusable workspace for the scoring entry points. A Scratch is NOT
  /// thread-safe: each thread scoring candidates must own its own instance
  /// (the engine itself may be shared). Reusing one Scratch across calls
  /// keeps the per-call cost proportional to the cone (or subcircuit): the
  /// one O(nodes) array, the stamped GateId -> slot index, is the calling
  /// thread's sta::thread_cone_workspace(), allocated once per thread and
  /// never cleared per call. If a call throws, discard the Scratch (its
  /// bookkeeping may be mid-reset).
  struct Scratch {
    struct Slot {
      std::uint32_t row = 0;          ///< the node's row of lanes in arrival
      std::uint32_t last_reader = 0;  ///< the last cone slot reading the row
      LaneMask perturbed = 0;         ///< the lanes the node is a seed of
      LaneMask reached = 0;           ///< the lanes whose own seeds reach the node
    };
    std::vector<sta::NodeMoments> arrival;  ///< by subcircuit member, or rows of lanes
    std::vector<Slot> slots;                ///< run_with_candidates: per cone slot
    std::vector<std::uint32_t> free_rows;   ///< rows whose node has no reader left
    std::vector<netlist::GateId> seeds;     ///< the union of the lanes' seeds
  };

  /// Runs the base pass — run() over @p ctx's current snapshot — and
  /// records the snapshot's epoch (TimingContext::snapshot_epoch()).
  explicit Engine(const sta::TimingContext& ctx, EngineOptions options = {});

  /// Statistical max of two Gaussian moment pairs under the engine's options.
  /// Pure function of its arguments — safe from any thread.
  [[nodiscard]] sta::NodeMoments stat_max(const sta::NodeMoments& a,
                                          const sta::NodeMoments& b) const;

  /// Full-netlist moment propagation over the snapshot as it is now (used
  /// standalone and in benchmarks). Returns per-node arrival moments;
  /// @p circuit is filled with the moments of the statistical max over all
  /// primary outputs if non-null. Const and re-entrant.
  [[nodiscard]] std::vector<sta::NodeMoments> run(sta::NodeMoments* circuit = nullptr) const;

  /// run()'s per-node arrival moments at construction.
  [[nodiscard]] std::span<const sta::NodeMoments> base() const { return base_; }

  /// run()'s circuit moments at construction: bitwise run_with_candidate()
  /// of any gate at its current cell, which changes no load and no arc.
  [[nodiscard]] const sta::NodeMoments& base_circuit() const { return circuit_; }

  /// Full-netlist moment propagation with gate @p center hypothetically bound
  /// to @p candidate: loads of the center's drivers and the affected arc
  /// delays are recomputed, everything else reuses the snapshot. Returns the
  /// circuit moments (statistical max over primary outputs). This is the
  /// robust inner-loop score: unlike a truncated window it sees the
  /// max-over-all-paths behaviour of the objective (see docs/ARCHITECTURE.md,
  /// "Deviations from the paper"). The one-lane case of
  /// run_with_candidates().
  ///
  /// Only the fanout cone of the perturbed gates (the center, plus those of
  /// its drivers whose load_ff_with_resize differs from load_ff) is
  /// recomputed, in topological order over sta::collect_cone's list; every
  /// other arrival is read from base(). The result is bitwise-identical to
  /// sweeping the whole netlist. Cost: the cone's edges plus collect_cone's
  /// scan, with nothing cleared per call, and no allocation once @p scratch
  /// and the thread's cone workspace have served a cone this large.
  /// c6288's cones average ~34% of its nodes and mesh6's ~18% (the baseline
  /// WNSS path gates' union cones 35% and 24%); perfbench's
  /// fassta.candidate_us read 73 us per call on c6288 and 88 us on mesh6
  /// (one traced run each, 4-core x86-64 host, RelWithDebInfo). Safe to call
  /// concurrently from many threads as long as every thread passes a
  /// distinct Scratch. Throws std::logic_error if the snapshot was written
  /// after the engine was built.
  [[nodiscard]] sta::NodeMoments run_with_candidate(netlist::GateId center,
                                                    const liberty::Cell& candidate,
                                                    Scratch& scratch) const;

  /// out[k] = run_with_candidate(center, *cells[k]), bitwise, from one cone
  /// walk: the cone of the union of the candidates' seeds, with one lane
  /// per candidate performing its own walk's IEEE operations in order (base
  /// arrivals where its own seeds do not reach). Lanes share the cone
  /// collection and the per-node lookups, and a row is recycled after its
  /// node's last reader: a c6288 path gate's 7 other sizes take 0.40-0.45x
  /// the time of its 8 calls (BM_FasstaGateScoring, 4-core x86-64 host).
  /// Same contracts as run_with_candidate().
  void run_with_candidates(netlist::GateId center, std::span<const liberty::Cell* const> cells,
                           std::span<sta::NodeMoments> out, Scratch& scratch) const;

  /// Backward moment pass: for every node, the statistical moments of the
  /// worst downstream path from the node's *output* to any primary output
  /// (0 for PO drivers' direct observation). Window outputs are scored as
  /// local-arrival (+) downstream-potential, which makes costs of different
  /// window outputs globally comparable — without this, a candidate that
  /// slows a side path with deep downstream logic can look like a win inside
  /// a truncated window (see docs/ARCHITECTURE.md, "Deviations from the
  /// paper"). Const and re-entrant.
  [[nodiscard]] std::vector<sta::NodeMoments> compute_downstream() const;

  /// Evaluates paper eq. 7 over @p sc with gate @p center hypothetically
  /// bound to @p candidate (pass the currently bound cell to score the status
  /// quo). @p boundary are FULLSSTA's per-node arrival moments (subcircuit
  /// members are recomputed, boundary nodes are read as-is); @p downstream
  /// comes from compute_downstream() on the same snapshot. The GateId ->
  /// member map is the thread's stamped cone workspace, so the reset cost
  /// per call is O(|subcircuit|) rather than O(nodes). Const and re-entrant
  /// (one Scratch per thread).
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
  /// fanins. run(), evaluate_candidate() and the FASSTA analyzer's what-if
  /// fold through it; run_with_candidates() performs the same operations
  /// lane by lane.
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
  const sta::TimingContext& ctx_;
  EngineOptions options_;
  std::uint64_t epoch_;                ///< the snapshot epoch base_ was run at
  sta::NodeMoments circuit_;            ///< run()'s circuit moments at construction
  std::vector<sta::NodeMoments> base_;  ///< run() at construction
};

}  // namespace statsizer::fassta
