#include "opt/sizer_statistical.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/subcircuit.h"
#include "opt/confirm.h"
#include "opt/wnss.h"
#include "timing/analyzer.h"
#include "util/check.h"
#include "util/exec.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace statsizer::opt {

using netlist::GateId;

namespace {

/// Required global cost decrease (ps) for the accurate engine to accept a move.
constexpr double kMinImprovement = 1e-3;
/// Planning threshold: a candidate enters the resize plan only if the fast
/// engine predicts at least this much cost gain (ps). Set above the
/// FASSTA-vs-FULLSSTA disagreement noise so plans contain confident moves;
/// acceptance still uses kMinImprovement against the accurate engine.
constexpr double kMinPredictedGain = 0.3;
/// Gates per global sweep: the netlist's top gates ranked by arc sigma.
constexpr std::size_t kGlobalSweepGateLimit = 24;

/// One planned resize with its locally-predicted cost improvement.
struct PlannedResize {
  timing::Resize move;
  double predicted_gain = 0.0;
};

/// Every library size of each gate of a list, scored: gate i's sizes score
/// into [offsets[i], offsets[i + 1]) of costs in library size order.
struct CandidateScores {
  std::vector<std::size_t> offsets;  ///< gates.size() + 1 entries
  std::vector<double> costs;
};

/// The parallel candidate-scoring kernel shared by the plan stage and the
/// rescue sweeps' prescoring. Fans the FASSTA evaluations across
/// options.threads workers: every worker reads the iteration's immutable
/// Engine (and through it the const TimingContext snapshot) and keeps its
/// mutable state in a private Scratch; slot i of the result is written
/// exactly once by whichever worker draws it, and the scores themselves do
/// not depend on evaluation order — so the returned array is
/// bitwise-identical for any thread count. A chunk is one gate at all of its
/// sizes: the global mode walks the gate's cone once, one lane per size but
/// the current one, whose score is the base cost.
CandidateScores score_candidates(const sta::TimingContext& ctx, const fassta::Engine& engine,
                                 const StatisticalSizerOptions& options, InnerScoring scoring,
                                 std::span<const GateId> gates,
                                 std::span<const sta::NodeMoments> boundary,
                                 std::span<const sta::NodeMoments> downstream) {
  const auto& nl = ctx.netlist();
  const auto& lib = ctx.library();
  const Objective& obj = options.objective;
  CandidateScores out{{0}, {}};
  for (const GateId g : gates) {
    out.offsets.push_back(out.offsets.back() + lib.group(nl.gate(g).cell_group).size_count());
  }
  const std::vector<std::size_t>& offsets = out.offsets;
  std::vector<double>& costs = out.costs;
  costs.resize(offsets.back());

  // Gate gi's lanes (its sizes but the current one) take slots from offsets[gi].
  std::vector<const liberty::Cell*> cells(offsets.back());
  std::vector<sta::NodeMoments> lanes(offsets.back());
  util::parallel_for(
      gates.size(), 1, options.threads, [&](std::size_t gi, std::size_t, std::size_t) {
        // One scratch per thread, reused across gates and calls: once it has
        // served the largest cone, scoring allocates nothing.
        thread_local fassta::Engine::Scratch scratch;
        const GateId g = gates[gi];
        const netlist::Gate& gate = nl.gate(g);
        const std::size_t first = offsets[gi];
        const auto sizes = static_cast<std::uint16_t>(offsets[gi + 1] - first);
        std::size_t n = 0;  // lanes
        if (scoring == InnerScoring::kSubcircuit) {
          const netlist::Subcircuit sc = netlist::extract_subcircuit(
              nl, g, options.subcircuit_levels, options.subcircuit_levels);
          for (std::uint16_t s = 0; s < sizes; ++s) {
            const liberty::Cell& cell = lib.cell_for(gate.cell_group, s);
            costs[first + s] =
                engine.evaluate_candidate(sc, boundary, downstream, g, cell, obj.lambda, scratch)
                    .cost;
          }
          return;
        }
        for (std::uint16_t s = 0; s < sizes; ++s) {
          if (s != gate.size_index) cells[first + n++] = &lib.cell_for(gate.cell_group, s);
        }
        engine.run_with_candidates(g, {&cells[first], n}, {&lanes[first], n}, scratch);
        for (std::uint16_t s = 0, k = 0; s < sizes; ++s) {
          costs[first + s] =
              obj.cost(s == gate.size_index ? engine.base_circuit() : lanes[first + k++]);
        }
        if constexpr (debug::kParanoid) {
          const liberty::Cell& current = lib.cell_for(gate.cell_group, gate.size_index);
          const sta::NodeMoments alone = engine.run_with_candidate(g, current, scratch);
          STATSIZER_PARANOID_CHECK(std::memcmp(&alone, &engine.base_circuit(), sizeof alone) == 0,
                                   "opt/score_candidates",
                                   "the current size does not score the base cost");
          if (n == 0) return;
          const std::size_t k = first + gi % n;
          const sta::NodeMoments lane = engine.run_with_candidate(g, *cells[k], scratch);
          STATSIZER_PARANOID_CHECK(std::memcmp(&lane, &lanes[k], sizeof lane) == 0,
                                   "opt/score_candidates", "a lane differs from its one-lane score");
        }
      });
  return out;
}

/// Move source 1: the fast-engine plan over the WNSS path. Every (gate, size)
/// pair on the path is scored concurrently against the frozen snapshot; the
/// plan, in path order, is then built serially from the score array, which
/// keeps it independent of the thread count.
std::vector<PlannedResize> plan_moves(const sta::TimingContext& ctx, const fassta::Engine& engine,
                                      const StatisticalSizerOptions& options,
                                      std::span<const GateId> path,
                                      std::span<const sta::NodeMoments> boundary,
                                      std::span<const sta::NodeMoments> downstream,
                                      std::size_t& evaluations) {
  const auto& nl = ctx.netlist();
  const auto [offsets, costs] =
      score_candidates(ctx, engine, options, options.scoring, path, boundary, downstream);
  evaluations += costs.size();
  std::vector<PlannedResize> plan;
  for (std::size_t gi = 0; gi < path.size(); ++gi) {
    const std::uint16_t current = nl.gate(path[gi]).size_index;
    const std::size_t base = offsets[gi];
    std::uint16_t best_size = current;
    double best_cost = costs[base + current];
    for (std::size_t s = base; s < offsets[gi + 1]; ++s) {
      if (s != base + current && costs[s] < best_cost - kMinPredictedGain) {
        best_cost = costs[s];
        best_size = static_cast<std::uint16_t>(s - base);
      }
    }
    if (best_size != current) {
      plan.push_back({{path[gi], best_size}, costs[base + current] - best_cost});
    }
  }
  return plan;
}

/// Move sources 2 and 3: every other size of each of @p gates, in descending
/// fast-engine predicted gain, for the accurate engine to confirm in order.
/// The prescore only orders, never filters: engine disagreement is exactly
/// what these rescues exist for.
std::vector<timing::Resize> sweep_moves(const sta::TimingContext& ctx, const fassta::Engine& engine,
                                        const StatisticalSizerOptions& options,
                                        std::span<const GateId> gates, std::size_t& evaluations) {
  const auto& nl = ctx.netlist();
  const auto [offsets, prescores] =
      score_candidates(ctx, engine, options, InnerScoring::kGlobalFassta, gates, {}, {});
  evaluations += prescores.size();

  struct RescueCandidate {
    timing::Resize move;
    double gain = 0.0;
    std::size_t job_index = 0;  ///< deterministic tiebreak (gate order, size)
  };
  std::vector<RescueCandidate> ordered;
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const std::size_t base = offsets[gi];
    const std::uint16_t current = nl.gate(gates[gi]).size_index;
    for (std::size_t s = base; s < offsets[gi + 1]; ++s) {
      if (s == base + current) continue;
      ordered.push_back({{gates[gi], static_cast<std::uint16_t>(s - base)},
                         prescores[base + current] - prescores[s], s});
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const RescueCandidate& a, const RescueCandidate& b) {
              if (a.gain != b.gain) return a.gain > b.gain;
              return a.job_index < b.job_index;
            });
  std::vector<timing::Resize> moves;
  moves.reserve(ordered.size());
  for (const RescueCandidate& c : ordered) moves.push_back(c.move);
  return moves;
}

/// Move source 3's gates: the netlist's top gates ranked by arc sigma (the
/// fattest delay contributors, wherever they sit).
std::vector<GateId> fattest_gates(const sta::TimingContext& ctx) {
  const auto& nl = ctx.netlist();
  std::vector<GateId> fat;
  for (GateId g = 0; g < nl.node_count(); ++g) {
    if (ctx.has_cell(g)) fat.push_back(g);
  }
  std::vector<double> worst_sigma(nl.node_count(), 0.0);  // sort keys, computed once
  for (const GateId g : fat) {
    for (std::size_t i = 0; i < nl.gate(g).fanins.size(); ++i) {
      worst_sigma[g] = std::max(worst_sigma[g], ctx.arc_sigma_ps(g, i));
    }
  }
  std::sort(fat.begin(), fat.end(),
            [&](GateId a, GateId b) { return worst_sigma[a] > worst_sigma[b]; });
  fat.resize(std::min(fat.size(), kGlobalSweepGateLimit));
  return fat;
}

/// Move source 4: one size up for every mapped gate with headroom, or only
/// for those at or below the median drive. Balanced fabrics (wide XOR trees)
/// spread the output variance over thousands of near-identical paths; no
/// single-gate move registers, but a whole-population upsize halves sigma at
/// once (sigma ~ 1/drive).
std::vector<timing::Resize> bump_moves(const sta::TimingContext& ctx, bool only_small) {
  const auto& nl = ctx.netlist();
  double median_drive = 1.0;
  if (only_small) {
    std::vector<double> drives;
    for (GateId g = 0; g < nl.node_count(); ++g) {
      if (ctx.has_cell(g)) drives.push_back(ctx.drive(g));
    }
    std::sort(drives.begin(), drives.end());
    if (!drives.empty()) median_drive = drives[drives.size() / 2];
  }
  std::vector<timing::Resize> ups;
  for (GateId g = 0; g < nl.node_count(); ++g) {
    if (!ctx.has_cell(g)) continue;
    if (only_small && ctx.drive(g) > median_drive) continue;
    const std::uint16_t size = nl.gate(g).size_index;
    if (size + 1u < ctx.library().group(nl.gate(g).cell_group).size_count()) {
      ups.push_back(timing::Resize{g, static_cast<std::uint16_t>(size + 1)});
    }
  }
  return ups;
}

CircuitStats stats_of(const sta::TimingContext& ctx, const timing::Summary& s) {
  return CircuitStats{s.mean_ps, s.sigma_ps, ctx.area_um2()};
}

}  // namespace

StatisticalSizerStats size_statistically(sta::TimingContext& ctx,
                                         const StatisticalSizerOptions& options) {
  auto& nl = ctx.mutable_netlist();
  const Objective& obj = options.objective;

  // Candidates score on the FASSTA kernel below; everything accurate goes
  // through the confirm analyzer's transactional what-if API.
  if (options.score_engine != "fassta") {
    throw std::invalid_argument("size_statistically: score_engine must be \"fassta\", got \"" +
                                options.score_engine + "\"");
  }
  const std::unique_ptr<timing::Analyzer> confirm = timing::make_analyzer(
      options.confirm_engine,
      timing::AnalyzerOptions{options.fullssta, options.fassta, options.threads});

  StatisticalSizerStats stats;

  ctx.update();
  const timing::Summary* full = &confirm->analyze(ctx);
  stats.initial = stats_of(ctx, *full);
  double global_cost = obj.cost(full->mean_ps, full->sigma_ps);
  double accepted_cost = global_cost;  // the cost a confirmation must beat

  const auto record = [&](GateId gate, std::uint16_t from, std::uint16_t to, MoveSource source) {
    if (options.record_trajectory) {
      stats.trajectory.push_back(ResizeEvent{stats.iterations, gate, from, to, source});
    }
  };

  // Resize sets the accurate engine rejected at the snapshot epoch
  // rejected_epoch, each as its sorted (gate, size) keys. Until the next
  // commit the base and the cost to beat are fixed, and so is a verdict.
  std::set<std::vector<std::uint64_t>> rejected;
  std::uint64_t rejected_epoch = ctx.snapshot_epoch();

  // Confirms @p moves through opt::confirm against the accurate engine: one
  // candidate per resize walked in order, or (atomic) the whole list as one
  // multi-resize speculation. A candidate already rejected at this snapshot
  // is skipped, not re-judged. Every approved candidate is recorded,
  // committed and becomes the cost to beat; returns the number of
  // candidates committed.
  const auto confirm_moves = [&](std::span<const timing::Resize> moves, bool atomic,
                                 MoveSource source) {
    SourceConfirmations& counts = stats.confirmations[static_cast<std::size_t>(source)];
    double cost = 0.0;
    std::vector<std::uint64_t> key;  // the live candidate's
    const timing::Speculation* live = nullptr;
    const auto propose = [&](std::size_t i) -> std::unique_ptr<timing::Speculation> {
      const std::span<const timing::Resize> set = atomic ? moves : moves.subspan(i, 1);
      if (!atomic && nl.gate(set[0].gate).size_index == set[0].size) {
        return nullptr;  // moved here by a commit
      }
      if (ctx.snapshot_epoch() != rejected_epoch) {
        rejected.clear();
        rejected_epoch = ctx.snapshot_epoch();
      }
      key.clear();
      for (const timing::Resize& r : set) key.push_back(std::uint64_t{r.gate} << 16 | r.size);
      std::sort(key.begin(), key.end());
      if (rejected.count(key) != 0) {
        ++counts.skipped_repeats;
        return nullptr;
      }
      std::unique_ptr<timing::Speculation> spec = confirm->propose_resizes(set);
      live = spec.get();
      return spec;
    };
    const auto judge = [&](std::size_t, const timing::Summary& s) {
      const timing::ReplayCounts replayed = live->replayed();
      stats.cone_slots += replayed.cone_slots;
      stats.front_slots += replayed.front_slots;
      cost = obj.cost(s.mean_ps, s.sigma_ps);
      const bool approved = cost < accepted_cost - kMinImprovement;
      if (!approved) rejected.insert(key);
      return approved;
    };
    const Confirmed walk =
        opt::confirm(atomic ? 1 : moves.size(), propose, judge,
                     [&](std::size_t i, const std::function<void()>&) {
                       accepted_cost = cost;
                       if (source == MoveSource::kUniformBump) {
                         record(netlist::kNoGate, 0, 0, source);  // the whole population
                       } else {
                         for (const timing::Resize& r : atomic ? moves : moves.subspan(i, 1)) {
                           record(r.gate, nl.gate(r.gate).size_index, r.size, source);
                         }
                       }
                       return i + 1;
                     });
    counts.judged += walk.judged;
    counts.committed += walk.committed;
    return walk.committed;
  };

  for (stats.iterations = 0; stats.iterations < options.max_iterations; ++stats.iterations) {
    // Cooperative control per greedy iteration (serial, on the calling
    // thread): long sizing jobs honor deadlines/cancellation between moves.
    util::checkpoint("opt/sizer/iteration");
    if (options.target_sigma_ps.has_value() && full->sigma_ps <= *options.target_sigma_ps) {
      stats.constraints_met = true;
      break;
    }

    const WnssTrace trace = trace_wnss(ctx, full->node);
    if (trace.path.empty()) break;

    // The inner scorer, built on this iteration's snapshot. That is exact:
    // every move source scores before any commit (the rescue sources run
    // only while nothing was accepted).
    const fassta::Engine scorer(ctx, options.fassta);

    // Downstream statistical potential per node (only the subcircuit scoring
    // mode needs it; see engine.h on window truncation).
    std::vector<sta::NodeMoments> downstream;
    if (options.scoring == InnerScoring::kSubcircuit) downstream = scorer.compute_downstream();

    std::size_t accepted = 0;
    accepted_cost = global_cost;

    // ---- move source 1: the plan, as one batch, else one resize at a time ----
    std::vector<PlannedResize> plan = plan_moves(ctx, scorer, options, trace.path, full->node,
                                                 downstream, stats.fassta_evaluations);
    if (!plan.empty()) {
      std::vector<timing::Resize> moves;
      for (const PlannedResize& r : plan) moves.push_back(r.move);
      if (confirm_moves(moves, /*atomic=*/true, MoveSource::kPlan) == 1) {
        accepted = plan.size();
      } else {
        STATSIZER_DEBUG() << "iter " << stats.iterations << ": batch of " << plan.size()
                          << " rejected, trying singles";
        std::sort(plan.begin(), plan.end(),
                  [](const PlannedResize& a, const PlannedResize& b) {
                    return a.predicted_gain > b.predicted_gain;
                  });
        for (std::size_t i = 0; i < plan.size(); ++i) moves[i] = plan[i].move;
        accepted = confirm_moves(moves, /*atomic=*/false, MoveSource::kSingle);
      }
    }

    // ---- move source 2: exact sweep of the path prefix -----------------------
    // The fast engine's plan may have filtered out moves the accurate engine
    // would take (engine disagreement). This implements the paper's "until
    // ... no further improvement" termination on the *accurate* objective,
    // with a bounded budget.
    if (accepted == 0) {
      const std::span<const GateId> prefix(
          trace.path.data(), std::min(trace.path.size(), options.exact_fallback_gate_limit));
      accepted = confirm_moves(
          sweep_moves(ctx, scorer, options, prefix, stats.fassta_evaluations),
          /*atomic=*/false, MoveSource::kExactFallback);
      stats.exact_resizes += accepted;
    }

    // ---- move source 3: netlist-wide sweep of the fattest arcs ---------------
    if (accepted == 0 && stats.global_sweeps < options.max_global_sweeps) {
      ++stats.global_sweeps;
      accepted = confirm_moves(
          sweep_moves(ctx, scorer, options, fattest_gates(ctx), stats.fassta_evaluations),
          /*atomic=*/false, MoveSource::kGlobalSweep);
      stats.exact_resizes += accepted;
      STATSIZER_DEBUG() << "iter " << stats.iterations << ": global sweep kept " << accepted
                        << " resizes";
    }

    // ---- move source 4: coordinated population bump --------------------------
    // All gates first, then the below-median-drive half; the second bump is
    // proposed only after the first is rejected.
    if (accepted == 0 && stats.uniform_bump_rounds < kMaxUniformBumps) {
      ++stats.uniform_bump_rounds;
      for (const bool only_small : {false, true}) {
        const std::vector<timing::Resize> ups = bump_moves(ctx, only_small);
        if (!ups.empty() && confirm_moves(ups, /*atomic=*/true, MoveSource::kUniformBump) == 1) {
          accepted = 1;
          STATSIZER_DEBUG() << "iter " << stats.iterations << ": uniform bump accepted";
          break;
        }
      }
    }

    if (accepted == 0) break;  // converged: no confirmed move from any source
    stats.resizes += accepted;

    // The committed base IS the refreshed accurate analysis: every commit
    // merged its overlay into the analyzer's summary.
    full = &confirm->current();
    global_cost = obj.cost(full->mean_ps, full->sigma_ps);
    STATSIZER_DEBUG() << "iter " << stats.iterations << ": cost " << global_cost
                      << " (mu " << full->mean_ps << ", sigma " << full->sigma_ps << ")";
  }

  // Final report from the analyzer's committed base (netlist, snapshot, and
  // summary are already in their final state — nothing to recompute).
  stats.final_ = stats_of(ctx, confirm->current());
  if (options.target_sigma_ps.has_value() &&
      confirm->current().sigma_ps <= *options.target_sigma_ps) {
    stats.constraints_met = true;
  }
  return stats;
}

}  // namespace statsizer::opt
