#include "opt/area_recovery.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "ssta/fullssta.h"

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

  bool stopped = false;
  for (std::size_t pass = 0; pass < kMaxRecoveryPasses && !stopped; ++pass) {
    const std::vector<GateId> order = recovery_order(ctx);
    std::size_t changed = 0;
    // Rollback accounting: the slice of `changed` that is not yet
    // exact-verified, so a chunk rollback can retract exactly this pass's
    // share and `changed` keeps matching the committed netlist.
    std::size_t changed_since_checkpoint = 0;

    // Visit gates in descending-area order and downsize each one step at a
    // time until a trial violates a budget (the gate is then done for this
    // pass) or size 0: after an acceptance the walk resumes at the accepted
    // gate while it has headroom.
    std::span<const GateId> rest = order;
    while (!rest.empty() && !stopped) {
      const timing::Accepted hit = timing::first_accepted(
          options.threads, rest.size(),
          [&](std::size_t i) -> std::unique_ptr<timing::Speculation> {
            const std::uint16_t cur = nl.gate(rest[i]).size_index;
            if (cur == 0) return nullptr;  // defensive: nothing left to shrink
            return screen->propose(rest[i], static_cast<std::uint16_t>(cur - 1));
          },
          [&](std::size_t, const timing::Summary& s) {
            ++stats.screen_trials;
            return screen_cost(s) <= screen_budget &&
                   (!statistical || s.sigma_ps <= screen_sigma_budget);
          });
      if (hit.speculation == nullptr) break;
      const GateId g = rest[hit.index];
      // Checkpoint bookkeeping is only consumed by the statistical chunk
      // verification; the deterministic criterion skips its cost.
      if (statistical) {
        note_accept(g, nl.gate(g).size_index);
        ++changed_since_checkpoint;
        ++since_checkpoint;
      }
      hit.speculation->commit();  // incremental: patches the snapshot, no update()
      ++stats.downsizes;
      ++changed;
      rest = rest.subspan(nl.gate(g).size_index > 0 ? hit.index : hit.index + 1);
      if (statistical && since_checkpoint >= kChunk) {
        if (verify_chunk()) {
          changed_since_checkpoint = 0;
        } else {
          changed -= changed_since_checkpoint;
          changed_since_checkpoint = 0;
          stopped = true;
        }
      }
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
