#include "ssta/isle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "ssta/sample_loop.h"
#include "sta/dsta.h"
#include "util/exec.h"
#include "util/numeric.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "variation/model.h"

namespace statsizer::ssta {

using netlist::GateId;

namespace {

// Salt deriving the mixture-component selector stream from the main seed,
// so the selection draws never share a key with the arc normals.
constexpr std::uint64_t kSelectorSalt = 0x49534c45u;  // "ISLE"

// Surrogate arc score is delay + kappa * sigma: kappa > 0 ranks paths by
// their high-quantile delay, not just the nominal critical path.
constexpr double kSurrogateKappa = 1.0;

// Degeneracy trip-wire: failures were seen but their ESS is below this.
constexpr double kMinFailureEss = 8.0;

// One arc of a dominant path with its linear-Gaussian coefficients: the
// sampled delay is delay + sqrt(gf)*sys * x_g + local_coeff * x1 +
// floor_coeff * x2 in the underlying standard normals (truncation aside).
struct PathArc {
  GateId gate = netlist::kNoGate;
  std::uint32_t fanin = 0;
  std::uint32_t slot = 0;  ///< index into the tracked-coordinate scratch
  double local_coeff = 0.0;
  double floor_coeff = 0.0;
};

// A shifted mixture component = one dominant path with its mean shift.
struct Component {
  std::vector<PathArc> arcs;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
  double global_coeff = 0.0;  ///< sum of sqrt(gf)*sys over the path
  double beta = 0.0;
  double theta_global = 0.0;
  double half_norm = 0.0;  ///< |theta|^2 / 2 (== beta^2 / 2 by construction)
};

struct Proposal {
  std::vector<Component> components;
  /// Dense arc index (arc_offset(g) + i) -> tracked slot, -1 if untracked.
  std::vector<std::int32_t> slot_of_arc;
  std::size_t tracked = 0;
  /// Per component, dense over tracked slots (0 for arcs off that path).
  std::vector<std::vector<double>> shift1, shift2;
  bool shift_clamped = false;
};

// The surrogate DP: longest path under score = delay + kappa * sigma, with
// the same arrival initialization as the draw loop (constrained primary
// inputs launch at their set_input_delay offset). Returns the top-K paths
// (distinct primary-output drivers) with their linear-Gaussian moments.
std::vector<Component> build_surrogate_paths(const sta::TimingContext& ctx,
                                             const IsleOptions& options) {
  const auto& nl = ctx.netlist();
  const auto& var = ctx.variation();
  const auto& pi_arrival = ctx.constraints().input_arrival_ps;

  std::vector<double> score(nl.node_count(), 0.0);
  std::vector<std::int32_t> best(nl.node_count(), -1);
  for (const GateId id : ctx.topo_order()) {
    const auto& g = nl.gate(id);
    double s = ctx.launch_arrival_ps(id);
    std::int32_t arg = -1;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const double cand = score[g.fanins[i]] + ctx.arc_delay_ps(id, i) +
                          kSurrogateKappa * ctx.arc_sigma_ps(id, i);
      if (arg < 0 || cand > s) {
        s = cand;
        arg = static_cast<std::int32_t>(i);
      }
    }
    score[id] = s;
    best[id] = arg;
  }

  // Top-K distinct primary-output drivers by surrogate score.
  std::vector<GateId> drivers;
  for (const auto& po : nl.outputs()) {
    if (std::find(drivers.begin(), drivers.end(), po.driver) == drivers.end()) {
      drivers.push_back(po.driver);
    }
  }
  // Equal scores keep GateId order, so the pick never rests on the sort's
  // unspecified order of equal keys.
  std::sort(drivers.begin(), drivers.end(), [&](GateId a, GateId b) {
    return score[a] != score[b] ? score[a] > score[b] : a < b;
  });
  const std::size_t k = std::min<std::size_t>(std::max<std::size_t>(options.dominant_paths, 1),
                                              drivers.size());

  std::vector<Component> components;
  components.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    Component c;
    GateId g = drivers[p];
    double var_sum = 0.0;
    while (best[g] >= 0) {
      const auto i = static_cast<std::uint32_t>(best[g]);
      const variation::ArcTerms terms = var.arc_terms(ctx.arc_delay_ps(g, i), ctx.drive(g));
      PathArc arc;
      arc.gate = g;
      arc.fanin = i;
      arc.local_coeff = terms.local_ps;
      arc.floor_coeff = var.random_sigma_ps();
      c.arcs.push_back(arc);
      c.mean_ps += terms.delay_ps;
      c.global_coeff += terms.shared_ps;
      var_sum += arc.local_coeff * arc.local_coeff + arc.floor_coeff * arc.floor_coeff;
      g = nl.gate(g).fanins[i];
    }
    if (!pi_arrival.empty()) c.mean_ps += pi_arrival[g];
    c.sigma_ps = std::sqrt(c.global_coeff * c.global_coeff + var_sum);
    components.push_back(std::move(c));
  }
  return components;
}

// Turns the surrogate paths into shifted mixture components for clock period
// T: theta = beta * c / sigma with beta = (T - mean) / sigma clamped to
// kIsleMaxShift. Registers every retained path arc as a tracked coordinate.
//
// Only the dominant (highest-scored) path decides the proposal's health: if
// *its* sigma vanishes or *its* beta clamps, the target is genuinely out of
// the proposal's reach and the result is flagged. A *secondary* path tripping
// the same limits just means that PO cone is a useless failure direction
// (e.g. a short side-output whose T sits hundreds of path-sigmas out) — it is
// dropped from the mixture, which stays unbiased with whatever survives.
Proposal finalize_proposal(const sta::TimingContext& ctx, std::vector<Component> components,
                           double clock_period_ps) {
  Proposal prop;
  prop.slot_of_arc.assign(ctx.arc_count(), -1);
  std::vector<Component> kept;
  for (std::size_t kc = 0; kc < components.size(); ++kc) {
    Component& c = components[kc];
    const bool dominant = kc == 0;
    if (c.sigma_ps < 1e-9) {
      // No variation along the path: nothing to shift, and the surrogate
      // cannot point at a failure region.
      if (!dominant) continue;
      prop.shift_clamped = true;  // keep it with theta = 0, flagged
      kept.push_back(std::move(c));
      continue;
    }
    const double raw_beta = (clock_period_ps - c.mean_ps) / c.sigma_ps;
    c.beta = std::clamp(raw_beta, -kIsleMaxShift, kIsleMaxShift);
    if (c.beta != raw_beta) {
      if (!dominant) continue;
      prop.shift_clamped = true;
    }
    c.theta_global = c.beta * c.global_coeff / c.sigma_ps;
    kept.push_back(std::move(c));
  }
  prop.components = std::move(kept);
  for (Component& c : prop.components) {
    for (PathArc& arc : c.arcs) {
      const std::size_t dense = ctx.arc_offset(arc.gate) + arc.fanin;
      if (prop.slot_of_arc[dense] < 0) {
        prop.slot_of_arc[dense] = static_cast<std::int32_t>(prop.tracked++);
      }
      arc.slot = static_cast<std::uint32_t>(prop.slot_of_arc[dense]);
    }
  }
  prop.shift1.assign(prop.components.size(), std::vector<double>(prop.tracked, 0.0));
  prop.shift2.assign(prop.components.size(), std::vector<double>(prop.tracked, 0.0));
  for (std::size_t kc = 0; kc < prop.components.size(); ++kc) {
    Component& c = prop.components[kc];
    double norm2 = c.theta_global * c.theta_global;
    if (c.sigma_ps >= 1e-9) {
      const double scale = c.beta / c.sigma_ps;
      for (const PathArc& arc : c.arcs) {
        prop.shift1[kc][arc.slot] = scale * arc.local_coeff;
        prop.shift2[kc][arc.slot] = scale * arc.floor_coeff;
        norm2 += prop.shift1[kc][arc.slot] * prop.shift1[kc][arc.slot] +
                 prop.shift2[kc][arc.slot] * prop.shift2[kc][arc.slot];
      }
    }
    c.half_norm = 0.5 * norm2;
  }
  return prop;
}

}  // namespace

namespace detail {

IsleResult run_draws(const sta::TimingContext& ctx, const IsleOptions& options, const char* site,
                     std::vector<sta::NodeMoments>* node) {
  if (options.defensive_fraction < 0.0 || options.defensive_fraction > 1.0) {
    throw std::invalid_argument("run_isle: defensive_fraction must be in [0, 1]");
  }
  if (options.clock_period_ps < 0.0) {
    throw std::invalid_argument("run_isle: negative clock_period_ps");
  }
  if (options.target_yield_se < 0.0) {
    throw std::invalid_argument("run_isle: negative target_yield_se");
  }

  const auto& nl = ctx.netlist();
  const auto& var = ctx.variation();

  IsleResult result;

  // The surrogate is always built: it supplies the unconstrained clock-period
  // fallback and the reported dominant-path moments even in kNominal mode.
  std::vector<Component> paths = build_surrogate_paths(ctx, options);
  if (!paths.empty()) {
    result.surrogate_mean_ps = paths.front().mean_ps;
    result.surrogate_sigma_ps = paths.front().sigma_ps;
  }

  double clock_period_ps = options.clock_period_ps;
  if (clock_period_ps <= 0.0 && ctx.constraints().clock_period_ps.has_value()) {
    clock_period_ps = *ctx.constraints().clock_period_ps;
  }
  if (clock_period_ps <= 0.0) {
    clock_period_ps = result.surrogate_mean_ps + 2.0 * result.surrogate_sigma_ps;
  }
  result.clock_period_ps = clock_period_ps;

  // A defensive fraction of 1 is all-nominal sampling: take the kNominal
  // fast path (no tracked coordinates, weights identically 1).
  const bool importance = options.proposal == IsleProposal::kImportance &&
                          options.defensive_fraction < 1.0 && !paths.empty();
  Proposal prop;
  if (importance) {
    prop = finalize_proposal(ctx, std::move(paths), clock_period_ps);
    result.shift_clamped = prop.shift_clamped;
    result.proposal_paths = prop.components.size();
    if (!prop.components.empty()) result.shift_beta = prop.components.front().beta;
  }
  const std::size_t num_components = prop.components.size();
  const double alpha = importance ? options.defensive_fraction : 1.0;

  const std::size_t cap = options.samples;
  const std::size_t batch = std::max<std::size_t>(options.batch, 1);

  // Per-node arrival statistics (Monte Carlo's): each draw chunk of a batch
  // accumulates its own, and after the batch's join they fold into
  // `node_stats` in ascending chunk order.
  const std::size_t n = nl.node_count();
  const std::size_t chunk_draws = node != nullptr ? kDrawChunk : kDrawChunk / 4;
  std::vector<util::RunningStats> node_stats;
  std::vector<std::vector<util::RunningStats>> chunk_stats;
  if (node != nullptr) {
    node_stats.resize(n);
    chunk_stats.resize(util::detail::chunk_count(batch, kDrawChunk));
  }

  // delay_at_ps's per-arc terms, computed once for every draw of the run.
  std::vector<variation::ArcTerms> terms(ctx.arc_count());
  for (GateId id = 0; id < n; ++id) {
    for (std::size_t i = 0; i < nl.gate(id).fanins.size(); ++i) {
      terms[ctx.arc_offset(id) + i] = var.arc_terms(ctx.arc_delay_ps(id, i), ctx.drive(id));
    }
  }

  // One batch of draws [base, base + count). Per-slot writes into the result
  // vectors; every sample's randomness comes only from its counter-based
  // streams, so the batch is bitwise thread-count-invariant.
  const auto run_batch = [&](std::size_t base, std::size_t count) {
    util::parallel_for(
        count, chunk_draws, options.threads,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          std::vector<double> arrival(n, 0.0);
          std::vector<double> x1s(prop.tracked, 0.0);
          std::vector<double> x2s(prop.tracked, 0.0);
          util::RunningStats* stats = nullptr;
          if (node != nullptr) {
            chunk_stats[chunk].assign(n, util::RunningStats{});
            stats = chunk_stats[chunk].data();
          }
          const auto arrival_of = [&](GateId f) { return arrival[f]; };
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t s = base + i;
            // Component selection from its own derived stream: word 0 flips
            // the defensive coin, word 1 picks the component.
            std::ptrdiff_t comp = -1;
            if (importance) {
              const std::uint64_t sel = util::stream_seed(options.seed ^ kSelectorSalt, s);
              if (!(util::keyed_uniform(sel, 0) < alpha)) {
                comp = static_cast<std::ptrdiff_t>(util::keyed_index(sel, 1, num_components));
              }
            }
            const std::uint64_t stream = util::stream_seed(options.seed, s);
            const double xg = util::keyed_normal(stream, kGlobalNormalKey) +
                              (comp >= 0 ? prop.components[comp].theta_global : 0.0);
            // Longest path over the draw's arc delays. Every arc's normals are
            // keyed by its dense index, so no draw depends on the visit order.
            // A tracked (dominant-path) arc shifts them and records x for the
            // likelihood ratio.
            for (const GateId id : ctx.topo_order()) {
              arrival[id] = sta::latest_arrival(ctx, id, arrival_of, [&](std::size_t f) {
                const std::size_t a = ctx.arc_offset(id) + f;
                const double z1 = util::keyed_normal(stream, arc_normal_key(a, 0));
                const double z2 = util::keyed_normal(stream, arc_normal_key(a, 1));
                const std::int32_t slot = prop.tracked == 0 ? -1 : prop.slot_of_arc[a];
                if (slot < 0) return var.delay_at_ps(terms[a], xg, z1, z2);
                x1s[slot] = z1 + (comp >= 0 ? prop.shift1[comp][slot] : 0.0);
                x2s[slot] = z2 + (comp >= 0 ? prop.shift2[comp][slot] : 0.0);
                return var.delay_at_ps(terms[a], xg, x1s[slot], x2s[slot]);
              });
              if (stats != nullptr) stats[id].add(arrival[id]);
            }
            double circuit = 0.0;
            for (const auto& po : nl.outputs()) circuit = std::max(circuit, arrival[po.driver]);
            result.delay_samples[s] = circuit;
            // Likelihood ratio against the defensive mixture:
            //   w = 1 / (alpha + (1-alpha)/K * sum_k exp(theta_k.x - |theta_k|^2/2)).
            double w = 1.0;
            if (importance) {
              double sum_exp = 0.0;
              for (std::size_t kc = 0; kc < num_components; ++kc) {
                double dot = prop.components[kc].theta_global * xg;
                const std::vector<double>& s1 = prop.shift1[kc];
                const std::vector<double>& s2 = prop.shift2[kc];
                for (std::size_t t = 0; t < prop.tracked; ++t) {
                  dot += s1[t] * x1s[t] + s2[t] * x2s[t];
                }
                sum_exp += std::exp(dot - prop.components[kc].half_norm);
              }
              w = 1.0 / (alpha + (1.0 - alpha) / static_cast<double>(num_components) *
                                     sum_exp);
            }
            result.weights[s] = w;
          }
        });
    if (node == nullptr) return;
    for (std::size_t c = 0; c < util::detail::chunk_count(count, kDrawChunk); ++c) {
      for (GateId id = 0; id < n; ++id) node_stats[id].merge(chunk_stats[c][id]);
    }
  };

  // Draws grow in fixed `batch` steps; after each batch one serial in-order
  // fold updates every statistic, and the adaptive stop is evaluated only at
  // batch boundaries — both pure functions of the options, never of the
  // thread count.
  util::RunningStats wi_stats;  // per-draw weighted failure indicator
  util::RunningStats w_stats;
  double sum_w = 0.0, sum_w2 = 0.0, sum_wi = 0.0, sum_wi2 = 0.0;
  double sum_wd = 0.0, sum_wd2 = 0.0;
  double max_w = 0.0;
  std::size_t failures_seen = 0;
  std::size_t drawn = 0;
  while (drawn < cap) {
    // Cooperative control at batch granularity, always on the calling
    // thread: the batch sequence is a pure function of the options, so
    // fault-injection hit counts stay deterministic for any thread count.
    util::checkpoint(site);
    const std::size_t count = std::min(batch, cap - drawn);
    result.delay_samples.resize(drawn + count);
    result.weights.resize(drawn + count);
    run_batch(drawn, count);
    for (std::size_t s = drawn; s < drawn + count; ++s) {
      const double d = result.delay_samples[s];
      const double w = result.weights[s];
      const double wi = d > clock_period_ps ? w : 0.0;
      if (wi > 0.0) ++failures_seen;
      wi_stats.add(wi);
      w_stats.add(w);
      sum_w += w;
      sum_w2 += w * w;
      sum_wi += wi;
      sum_wi2 += wi * wi;
      sum_wd += w * d;
      sum_wd2 += w * d * d;
      max_w = std::max(max_w, w);
    }
    drawn += count;
    // A sample with no failure hits reports a zero standard error that says
    // nothing about the true one — the adaptive stop must not trust it, or a
    // deep-tail nominal run would "converge" instantly at min_draws. With no
    // failures ever seen the loop runs to the cap (you cannot certify a CI
    // you have not observed).
    if (options.target_yield_se > 0.0 && drawn >= options.min_draws &&
        failures_seen > 0) {
      const double se =
          std::sqrt(wi_stats.sample_variance() / static_cast<double>(drawn));
      if (se <= options.target_yield_se) break;
    }
  }

  result.draws = drawn;
  if (node != nullptr) {
    node->resize(n);
    for (GateId id = 0; id < n; ++id) {
      (*node)[id] = sta::NodeMoments{node_stats[id].mean(), node_stats[id].stddev()};
    }
  }
  if (drawn == 0) {
    result.degenerate = true;
    return result;
  }

  // The plain sum over the draw count, not the running mean: under the
  // nominal proposal it is the failure count over the draws, correctly
  // rounded, so the yield is Monte Carlo's pass fraction.
  const double p_fail = std::clamp(sum_wi / static_cast<double>(drawn), 0.0, 1.0);
  result.failure_probability = p_fail;
  result.yield = 1.0 - p_fail;
  result.std_error = std::sqrt(wi_stats.sample_variance() / static_cast<double>(drawn));
  result.ess = sum_w2 > 0.0 ? sum_w * sum_w / sum_w2 : 0.0;
  result.failure_ess = sum_wi2 > 0.0 ? sum_wi * sum_wi / sum_wi2 : 0.0;
  result.weight_variance = w_stats.sample_variance();
  result.max_weight = max_w;
  if (sum_w > 0.0) {
    result.weighted_mean_ps = sum_wd / sum_w;
    const double wv = sum_wd2 / sum_w - result.weighted_mean_ps * result.weighted_mean_ps;
    result.weighted_sigma_ps = std::sqrt(std::max(wv, 0.0));
  }
  result.degenerate =
      result.shift_clamped ||
      result.ess < kIsleMinEssFraction * static_cast<double>(drawn) ||
      (p_fail > 0.0 && result.failure_ess < kMinFailureEss);
  return result;
}

}  // namespace detail

IsleResult run_isle(const sta::TimingContext& ctx, const IsleOptions& options) {
  return detail::run_draws(ctx, options, "ssta/isle/batch", nullptr);
}

IsleOptions for_yield_engine(IsleOptions options, std::string_view engine) {
  if (engine == "mc") {
    options.proposal = IsleProposal::kNominal;
  } else if (engine != "isle") {
    throw std::invalid_argument("unknown yield engine \"" + std::string(engine) +
                                "\" (known: isle, mc)");
  }
  return options;
}

}  // namespace statsizer::ssta
