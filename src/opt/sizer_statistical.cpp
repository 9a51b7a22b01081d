#include "opt/sizer_statistical.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "netlist/subcircuit.h"
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
  GateId gate = netlist::kNoGate;
  std::uint16_t new_size = 0;
  double predicted_gain = 0.0;
};

/// A gate list × every library size of each gate. Gate i's sizes score into
/// [offsets[i], offsets[i + 1]) in library size order, so a score array can
/// be read back per gate.
struct CandidateJobs {
  std::span<const GateId> gates;
  std::vector<std::size_t> offsets;  ///< gates.size() + 1 entries
};

CandidateJobs list_candidates(const netlist::Netlist& nl, const liberty::Library& lib,
                              std::span<const GateId> gates) {
  CandidateJobs out{gates, {0}};
  for (const GateId g : gates) {
    out.offsets.push_back(out.offsets.back() + lib.group(nl.gate(g).cell_group).size_count());
  }
  return out;
}

/// The fast-engine side of the inner loop: either the specialized fassta
/// kernel (score_engine == "fassta", the default — per-worker Scratch, zero
/// per-candidate allocation) or any other engine speculating
/// through the timing::Analyzer interface. Either scores against the
/// snapshot the sizer last re-based it on.
struct InnerScorer {
  std::optional<fassta::Engine> fassta;  ///< fast path when engaged
  timing::Analyzer* analyzer = nullptr;  ///< analyzer path otherwise
};

/// The parallel candidate-scoring kernel shared by the plan stage and the
/// rescue sweeps' prescoring. Fans the fast-engine evaluations across
/// options.threads workers: every worker reads the same const TimingContext
/// snapshot (through the shared Engine or Analyzer) and keeps its mutable
/// state private (a fassta Scratch, or a Speculation's overlay); slot i of
/// the result is written exactly once by whichever worker draws it, and the
/// scores themselves do not depend on evaluation order — so the returned
/// array is bitwise-identical for any thread count. A chunk is one gate at
/// all of its sizes: the global fassta mode walks the gate's cone once, one
/// lane per size but the current one, whose score is the base cost.
std::vector<double> score_candidates(const sta::TimingContext& ctx,
                                     const InnerScorer& scorer,
                                     const StatisticalSizerOptions& options,
                                     InnerScoring scoring, const CandidateJobs& cand,
                                     std::span<const sta::NodeMoments> boundary,
                                     std::span<const sta::NodeMoments> downstream) {
  const auto& nl = ctx.netlist();
  const auto& lib = ctx.library();
  const Objective& obj = options.objective;
  std::vector<double> costs(cand.offsets.back());

  if (!scorer.fassta.has_value()) {
    timing::Analyzer& analyzer = *scorer.analyzer;
    util::parallel_for(cand.gates.size(), 1, options.threads,
                       [&](std::size_t gi, std::size_t, std::size_t) {
                         for (std::size_t i = cand.offsets[gi]; i < cand.offsets[gi + 1]; ++i) {
                           const auto spec = analyzer.propose(
                               cand.gates[gi], static_cast<std::uint16_t>(i - cand.offsets[gi]));
                           const timing::Summary& s = spec->score();
                           costs[i] = obj.cost(s.mean_ps, s.sigma_ps);
                         }
                       });
    return costs;
  }

  const fassta::Engine& engine = *scorer.fassta;
  // Gate gi's lanes (its sizes but the current one) take slots from offsets[gi].
  std::vector<const liberty::Cell*> cells(cand.offsets.back());
  std::vector<sta::NodeMoments> lanes(cand.offsets.back());
  util::parallel_for(
      cand.gates.size(), 1, options.threads, [&](std::size_t gi, std::size_t, std::size_t) {
        // One scratch per thread, reused across gates and calls: once it has
        // served the largest cone, scoring allocates nothing.
        thread_local fassta::Engine::Scratch scratch;
        const GateId g = cand.gates[gi];
        const netlist::Gate& gate = nl.gate(g);
        const std::size_t first = cand.offsets[gi];
        const auto sizes = static_cast<std::uint16_t>(cand.offsets[gi + 1] - first);
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
  return costs;
}

CircuitStats stats_of(const sta::TimingContext& ctx, const timing::Summary& s) {
  CircuitStats out;
  out.mean_ps = s.mean_ps;
  out.sigma_ps = s.sigma_ps;
  out.area_um2 = ctx.area_um2();
  return out;
}

}  // namespace

StatisticalSizerStats size_statistically(sta::TimingContext& ctx,
                                         const StatisticalSizerOptions& options) {
  auto& nl = ctx.mutable_netlist();
  const auto& lib = ctx.library();
  const Objective& obj = options.objective;

  // Engine selection through timing::make_analyzer. The fassta
  // score engine keeps the specialized kernel below; everything accurate
  // goes through the confirm analyzer's transactional what-if API.
  timing::AnalyzerOptions engine_options;
  engine_options.fullssta = options.fullssta;
  engine_options.fassta = options.fassta;
  const bool fassta_scorer = options.score_engine == "fassta";
  if (!fassta_scorer && options.scoring == InnerScoring::kSubcircuit) {
    throw std::invalid_argument(
        "InnerScoring::kSubcircuit requires score_engine == \"fassta\"");
  }
  const std::unique_ptr<timing::Analyzer> confirm =
      timing::make_analyzer(options.confirm_engine, engine_options);
  std::unique_ptr<timing::Analyzer> score_analyzer;
  if (!fassta_scorer) {
    score_analyzer = timing::make_analyzer(options.score_engine, engine_options);
  }
  InnerScorer scorer{std::nullopt, score_analyzer.get()};

  StatisticalSizerStats stats;

  ctx.update();
  const timing::Summary* full = &confirm->analyze(ctx);
  stats.initial = stats_of(ctx, *full);
  double global_cost = obj.cost(full->mean_ps, full->sigma_ps);

  const auto record = [&](GateId gate, std::uint16_t from, std::uint16_t to,
                          MoveSource source) {
    if (!options.record_trajectory) return;
    stats.trajectory.push_back(ResizeEvent{stats.iterations, gate, from, to, source});
  };

  // Confirms a fixed-order candidate list through timing::first_accepted:
  // commits each first improvement and walks on from the next candidate.
  const auto confirm_in_order = [&](std::span<const timing::Resize> ordered,
                                    double& accepted_cost, MoveSource source) {
    std::size_t kept = 0;
    double cost = 0.0;
    while (!ordered.empty()) {
      const timing::Accepted hit = timing::first_accepted(
          options.threads, ordered.size(),
          [&](std::size_t i) -> std::unique_ptr<timing::Speculation> {
            const timing::Resize& c = ordered[i];
            if (nl.gate(c.gate).size_index == c.size) return nullptr;  // moved here by a commit
            return confirm->propose(c.gate, c.size);
          },
          [&](std::size_t, const timing::Summary& s) {
            cost = obj.cost(s.mean_ps, s.sigma_ps);
            return cost < accepted_cost - kMinImprovement;
          });
      if (hit.speculation == nullptr) break;
      const timing::Resize& c = ordered[hit.index];
      record(c.gate, nl.gate(c.gate).size_index, c.size, source);
      hit.speculation->commit();
      accepted_cost = cost;
      ++kept;
      ordered = ordered.subspan(hit.index + 1);
    }
    return kept;
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

    // The one re-base of the inner scorer per iteration. It is exact: every
    // score_candidates call of the iteration runs before any commit (the
    // rescue sweeps run only while nothing was accepted).
    if (fassta_scorer) {
      scorer.fassta.emplace(ctx, options.fassta);
    } else {
      (void)score_analyzer->analyze(ctx);
    }

    // Downstream statistical potential per node (only the subcircuit scoring
    // mode needs it; see engine.h on window truncation).
    std::vector<sta::NodeMoments> downstream;
    if (options.scoring == InnerScoring::kSubcircuit) {
      downstream = scorer.fassta->compute_downstream();
    }

    // ---- move source 1: fast-engine plan over the WNSS path ---------------
    // Every (gate, size) pair on the path is scored concurrently against the
    // frozen snapshot; the plan itself is then built serially from the score
    // array, which keeps it independent of the thread count.
    const CandidateJobs cand = list_candidates(nl, lib, trace.path);
    stats.fassta_evaluations += cand.offsets.back();
    const std::vector<double> costs =
        score_candidates(ctx, scorer, options, options.scoring, cand, full->node, downstream);

    std::vector<PlannedResize> plan;
    for (std::size_t gi = 0; gi < trace.path.size(); ++gi) {
      const GateId g = trace.path[gi];
      const auto& gate = nl.gate(g);
      const auto& group = lib.group(gate.cell_group);
      const std::size_t base = cand.offsets[gi];

      const double current_cost = costs[base + gate.size_index];
      std::uint16_t best_size = gate.size_index;
      double best_cost = current_cost;
      for (std::uint16_t s = 0; s < group.size_count(); ++s) {
        if (s == gate.size_index) continue;
        const double c = costs[base + s];
        if (c < best_cost - kMinPredictedGain) {
          best_cost = c;
          best_size = s;
        }
      }
      if (best_size != gate.size_index) {
        plan.push_back(PlannedResize{g, best_size, current_cost - best_cost});
      }
    }

    std::size_t accepted = 0;
    double accepted_cost = global_cost;

    if (!plan.empty()) {
      // Batch commit: one multi-resize speculation, verified against the
      // accurate global objective, accepted or rolled back atomically.
      std::vector<timing::Resize> batch;
      batch.reserve(plan.size());
      for (const PlannedResize& r : plan) batch.push_back(timing::Resize{r.gate, r.new_size});
      auto batch_spec = confirm->propose_resizes(batch);
      const timing::Summary& batch_summary = batch_spec->score();
      const double batch_cost = obj.cost(batch_summary.mean_ps, batch_summary.sigma_ps);
      if (batch_cost < global_cost - kMinImprovement) {
        for (const PlannedResize& r : plan) {
          record(r.gate, nl.gate(r.gate).size_index, r.new_size, MoveSource::kPlan);
        }
        batch_spec->commit();
        accepted = plan.size();
        accepted_cost = batch_cost;
      } else {
        // Roll back, then retry one at a time in descending predicted gain.
        batch_spec->rollback();
        STATSIZER_DEBUG() << "iter " << stats.iterations << ": batch of " << plan.size()
                          << " rejected (" << global_cost << " -> " << batch_cost
                          << "), trying singles";
        std::sort(plan.begin(), plan.end(),
                  [](const PlannedResize& a, const PlannedResize& b) {
                    return a.predicted_gain > b.predicted_gain;
                  });
        std::vector<timing::Resize> singles;
        singles.reserve(plan.size());
        for (const PlannedResize& r : plan) {
          singles.push_back(timing::Resize{r.gate, r.new_size});
        }
        accepted += confirm_in_order(singles, accepted_cost, MoveSource::kSingle);
      }
    }

    // Bounded exact-engine sweep over a gate list: the fast engine prescores
    // every (gate, size) candidate in parallel — the same kernel as the plan
    // stage — to order the trials by predicted gain; the accurate engine then
    // confirms the candidates in that fixed order (confirm_in_order).
    // The prescore only orders, never filters: engine disagreement is
    // exactly what this rescue exists for.
    const auto exact_sweep = [&](std::span<const GateId> gates, MoveSource source) {
      const CandidateJobs sweep = list_candidates(nl, lib, gates);
      stats.fassta_evaluations += sweep.offsets.back();
      const std::vector<double> prescores =
          score_candidates(ctx, scorer, options, InnerScoring::kGlobalFassta, sweep, full->node,
                           {});

      struct RescueCandidate {
        GateId gate = netlist::kNoGate;
        std::uint16_t size = 0;
        double gain = 0.0;
        std::size_t job_index = 0;  ///< deterministic tiebreak (gate order, size)
      };
      std::vector<RescueCandidate> ordered;
      for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const GateId g = gates[gi];
        const std::size_t base = sweep.offsets[gi];
        const std::uint16_t current = nl.gate(g).size_index;
        const auto& group = lib.group(nl.gate(g).cell_group);
        for (std::uint16_t s = 0; s < group.size_count(); ++s) {
          if (s == current) continue;
          ordered.push_back(
              RescueCandidate{g, s, prescores[base + current] - prescores[base + s],
                              base + s});
        }
      }
      std::sort(ordered.begin(), ordered.end(),
                [](const RescueCandidate& a, const RescueCandidate& b) {
                  if (a.gain != b.gain) return a.gain > b.gain;
                  return a.job_index < b.job_index;
                });

      std::vector<timing::Resize> trials;
      trials.reserve(ordered.size());
      for (const RescueCandidate& c : ordered) {
        trials.push_back(timing::Resize{c.gate, c.size});
      }
      const std::size_t kept = confirm_in_order(trials, accepted_cost, source);
      stats.exact_resizes += kept;
      return kept;
    };

    // ---- move source 2: exact sweep of the path prefix ---------------------
    if (accepted == 0) {
      // The fast engine's plan may have filtered out moves the accurate
      // engine would take (engine disagreement). This implements the paper's
      // "until ... no further improvement" termination on the *accurate*
      // objective, with a bounded budget.
      const std::size_t n_path =
          std::min(trace.path.size(), options.exact_fallback_gate_limit);
      accepted += exact_sweep(std::span<const GateId>(trace.path.data(), n_path),
                              MoveSource::kExactFallback);
    }

    // ---- move source 3: netlist-wide sweep of the fattest arcs -------------
    if (accepted == 0 && stats.global_sweeps < options.max_global_sweeps) {
      ++stats.global_sweeps;
      // The snapshot is always in sync here: trials are speculative (they
      // never touch the netlist) and every commit refreshed the context.
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
      accepted += exact_sweep(fat, MoveSource::kGlobalSweep);
      STATSIZER_DEBUG() << "iter " << stats.iterations << ": global sweep kept "
                        << accepted << " resizes";
    }

    // ---- move source 4: coordinated population bump -------------------------
    // Balanced fabrics (wide XOR trees) spread the output variance over
    // thousands of near-identical paths; no single-gate move registers, but a
    // whole-population upsize halves sigma at once (sigma ~ 1/drive). The
    // bump is one multi-resize speculation: scored without touching the
    // netlist, committed (or discarded) atomically.
    if (accepted == 0 && stats.uniform_bump_rounds < options.max_uniform_bumps) {
      ++stats.uniform_bump_rounds;
      const auto try_bump = [&](bool only_small) {
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
          const auto& group = lib.group(nl.gate(g).cell_group);
          if (nl.gate(g).size_index + 1u < group.size_count()) {
            ups.push_back(
                timing::Resize{g, static_cast<std::uint16_t>(nl.gate(g).size_index + 1)});
          }
        }
        if (ups.empty()) return false;
        auto spec = confirm->propose_resizes(ups);
        const timing::Summary& s = spec->score();
        const double c = obj.cost(s.mean_ps, s.sigma_ps);
        if (c < accepted_cost - kMinImprovement) {
          spec->commit();
          accepted_cost = c;
          return true;
        }
        spec->rollback();
        return false;
      };
      if (try_bump(/*only_small=*/false) || try_bump(/*only_small=*/true)) {
        ++accepted;
        record(netlist::kNoGate, 0, 0, MoveSource::kUniformBump);
        STATSIZER_DEBUG() << "iter " << stats.iterations << ": uniform bump accepted";
      }
    }

    if (accepted == 0) break;  // converged: no confirmed move from any source
    stats.resizes += accepted;

    // The committed base IS the refreshed accurate analysis: every commit
    // merged its overlay into the analyzer's summary, so the back-to-back
    // update() + run_fullssta() refreshes that used to live here (and at
    // the function exit) are gone.
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
