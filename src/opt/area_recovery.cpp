#include "opt/area_recovery.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ssta/fullssta.h"
#include "util/thread_pool.h"

namespace statsizer::opt {

using netlist::GateId;

namespace {

/// Accepted downsizes in statistical mode accumulate between exact
/// verifications; every kChunk the confirm engine re-checks the budgets.
constexpr std::size_t kChunk = 12;

std::string screen_engine_name(const AreaRecoveryOptions& options, bool statistical) {
  if (!options.screen_engine.empty()) return options.screen_engine;
  return statistical ? "fassta" : "dsta";
}

/// Gates with shrink headroom, largest cells first: most area to win back.
std::vector<GateId> recovery_order(const sta::TimingContext& ctx) {
  const auto& nl = ctx.netlist();
  std::vector<GateId> order;
  for (GateId id = 0; id < nl.node_count(); ++id) {
    if (ctx.has_cell(id) && nl.gate(id).size_index > 0) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](GateId a, GateId b) {
    return ctx.cell(a).area_um2 > ctx.cell(b).area_um2;
  });
  return order;
}

}  // namespace

AreaRecoveryStats recover_area(sta::TimingContext& ctx, const AreaRecoveryOptions& options) {
  auto& nl = ctx.mutable_netlist();
  const Objective& obj = options.objective;
  const bool statistical = options.criterion == RecoveryCriterion::kStatisticalCost;

  timing::AnalyzerOptions engine_options;
  engine_options.fullssta = options.fullssta;
  engine_options.fassta = options.fassta;
  const auto screen = timing::make_analyzer(screen_engine_name(options, statistical),
                                            engine_options);
  if (!screen->capabilities().what_if) {
    throw std::invalid_argument("recover_area: screen engine \"" +
                                std::string(screen->name()) + "\" lacks what-if speculation");
  }

  AreaRecoveryStats stats;
  ctx.update();
  stats.area_before_um2 = ctx.area_um2();

  // Per-trial screening metric: deterministic arrival, or the *fast* engine's
  // statistical cost with a sigma cap. The fast screen drifts from the
  // accurate engine on reconvergent fabrics, so in statistical mode every
  // chunk of accepted downsizes is re-verified against the confirm engine
  // and rolled back wholesale if the accurate budgets are exceeded.
  const auto screen_cost = [&](const timing::Summary& s) {
    return statistical ? obj.cost(s.mean_ps, s.sigma_ps) : s.mean_ps;
  };
  const timing::Summary& entry = screen->analyze(ctx);
  const double screen_budget = screen_cost(entry) * (1.0 + options.tolerance);
  const double screen_sigma_budget = entry.sigma_ps * (1.0 + options.sigma_tolerance);

  // Accurate budgets (statistical mode only), measured with the same
  // FullSstaOptions the caller reports the final result with — guard and
  // report share one statistical model.
  std::unique_ptr<timing::Analyzer> confirm;
  double exact_cost_budget = 0.0;
  double exact_sigma_budget = 0.0;
  if (statistical) {
    confirm = timing::make_analyzer(options.confirm_engine, engine_options);
    if (!confirm->capabilities().what_if) {
      throw std::invalid_argument("recover_area: confirm engine \"" +
                                  options.confirm_engine + "\" lacks what-if speculation");
    }
    const timing::Summary& full = confirm->analyze(ctx);
    exact_cost_budget = obj.cost(full.mean_ps, full.sigma_ps) * (1.0 + options.tolerance);
    exact_sigma_budget = full.sigma_ps * (1.0 + options.sigma_tolerance);
  }

  // Downsizes accepted since the last checkpoint live in the netlist (and in
  // the screen engine's committed base) but are not yet exact-verified; the
  // confirm analyzer's base still holds the checkpoint state. `pending`
  // remembers each touched gate's checkpoint size so a failed verification
  // can restore the checkpoint without an O(nodes) sizes snapshot.
  struct PendingGate {
    GateId gate = netlist::kNoGate;
    std::uint16_t checkpoint_size = 0;
  };
  std::vector<PendingGate> pending;
  std::size_t since_checkpoint = 0;  // accepted downsize *steps* since the checkpoint
  const auto note_accept = [&](GateId g, std::uint16_t from) {
    for (const PendingGate& p : pending) {
      if (p.gate == g) return;  // keep the first (= checkpoint) size
    }
    pending.push_back(PendingGate{g, from});
  };

  // The kChunk exact re-verification: one atomic multi-resize speculation
  // from the checkpoint base (the confirm engine re-propagates only the
  // pending resizes' fanout cone — the pre-port loop re-ran the full engine
  // here). On success the commit makes the current state the new checkpoint;
  // on failure the speculation's rollback is free and the netlist's pending
  // size indices are restored in place of the old wholesale
  // set_sizes(checkpoint) + update().
  const auto verify_chunk = [&]() -> bool {
    ++stats.exact_verifications;
    std::vector<timing::Resize> batch;
    batch.reserve(pending.size());
    for (const PendingGate& p : pending) {
      batch.push_back(timing::Resize{p.gate, nl.gate(p.gate).size_index});
    }
    auto spec = confirm->propose_resizes(batch);
    const timing::Summary& s = spec->score();
    const bool ok = obj.cost(s.mean_ps, s.sigma_ps) <= exact_cost_budget &&
                    s.sigma_ps <= exact_sigma_budget;
    if (ok) {
      // The netlist already holds the batch sizes and the screen commits
      // kept the snapshot bitwise in sync, so this commit re-patches the
      // cone with identical values and advances the confirm engine's base
      // to the new checkpoint — no O(E) snapshot rebuild.
      spec->commit();
    } else {
      spec->rollback();
      ++stats.chunk_rollbacks;
      stats.downsizes -= since_checkpoint;
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        nl.gate(it->gate).size_index = it->checkpoint_size;
      }
      ctx.update();  // re-sync the snapshot with the restored checkpoint sizes
    }
    pending.clear();
    since_checkpoint = 0;
    return ok;
  };

  // Wave geometry: timing::speculation_window — one per-gate candidate per
  // worker with a concurrent screen engine, else 1 (one trial at a time).
  // A commit invalidates the tail (the base moved), so wider waves would
  // waste speculative scores during accept-heavy stretches; the wave walk
  // below makes the committed sequence independent of the window size, so
  // results are bitwise-identical for any thread count.
  const std::size_t window = timing::speculation_window(*screen, options.threads);

  bool stopped = false;
  for (std::size_t pass = 0; pass < options.max_passes && !stopped; ++pass) {
    const std::vector<GateId> order = recovery_order(ctx);
    std::size_t changed = 0;
    // Rollback accounting: the slice of `changed` that is not yet
    // exact-verified, so a chunk rollback can retract exactly this pass's
    // share and `changed` keeps matching the committed netlist.
    std::size_t changed_since_checkpoint = 0;

    // The wave walk. Serial semantics being reproduced: visit gates in
    // descending-area order; downsize each one step at a time until a trial
    // violates a budget (the gate is then done for this pass) or size 0.
    // Every trial is judged against the committed base holding exactly the
    // accepts ordered before it. A wave proposes the next candidate of each
    // gate in the window; the walk scans the fixed order, rejections are
    // final (their basis matched), and the first acceptance commits and
    // invalidates the tail — the next wave restarts at the accepting gate
    // (its next downsize step is the next serial trial).
    std::size_t pos = 0;
    std::vector<std::unique_ptr<timing::Speculation>> wave;
    while (pos < order.size() && !stopped) {
      const std::size_t count = std::min(order.size() - pos, window);
      wave.clear();
      wave.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint16_t cur = nl.gate(order[pos + i]).size_index;
        if (cur == 0) continue;  // defensive: nothing left to shrink
        wave[i] = screen->propose(order[pos + i], static_cast<std::uint16_t>(cur - 1));
      }
      if (count > 1) {
        // Chunk 1: trials are coarse (a fanout-cone re-propagation each).
        util::parallel_for(count, 1, window,
                           [&](std::size_t begin, std::size_t end, std::size_t) {
                             for (std::size_t i = begin; i < end; ++i) {
                               if (wave[i] != nullptr) (void)wave[i]->score();
                             }
                           });
      }
      std::size_t advanced = count;  // whole window decided, no acceptance
      for (std::size_t i = 0; i < count; ++i) {
        if (wave[i] == nullptr) continue;
        ++stats.screen_trials;
        const timing::Summary& s = wave[i]->score();  // cached when prescored
        const bool ok = screen_cost(s) <= screen_budget &&
                        (!statistical || s.sigma_ps <= screen_sigma_budget);
        if (!ok) {
          // Rejected: the gate is done for this pass. Free its cone-sized
          // overlay now instead of holding every rejected one until the
          // window ends.
          wave[i].reset();
          continue;
        }
        const GateId g = order[pos + i];
        // Checkpoint bookkeeping is only consumed by the statistical
        // chunk verification; the deterministic criterion skips its cost.
        if (statistical) {
          note_accept(g, nl.gate(g).size_index);
          ++changed_since_checkpoint;
          ++since_checkpoint;
        }
        wave[i]->commit();  // incremental: patches the snapshot, no update()
        ++stats.downsizes;
        ++changed;
        // Re-wave at this gate while it has headroom (the serial loop keeps
        // downsizing the same gate until a rejection).
        advanced = nl.gate(g).size_index > 0 ? i : i + 1;
        if (statistical && since_checkpoint >= kChunk) {
          if (verify_chunk()) {
            changed_since_checkpoint = 0;
          } else {
            changed -= changed_since_checkpoint;
            changed_since_checkpoint = 0;
            stopped = true;
          }
        }
        break;  // the commit invalidated the remaining wave
      }
      pos += advanced;
    }
    if (changed == 0) break;
  }

  // Verify the trailing partial chunk.
  if (statistical && since_checkpoint > 0 && !stopped) {
    (void)verify_chunk();
  }

  ctx.update();
  stats.area_after_um2 = ctx.area_um2();
  if (statistical) {
    stats.has_final_summary = true;
    stats.final_summary = confirm->current();
  }
  return stats;
}

}  // namespace statsizer::opt
