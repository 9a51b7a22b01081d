// The engine table, the speculative walk, and the FASSTA / DSTA / canonical /
// Monte-Carlo adapters. The FULLSSTA adapter (the incremental what-if
// overlay) lives in fullssta_analyzer.cpp, the ISLE one in isle_analyzer.cpp.
#include "timing/analyzer.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "ssta/canonical.h"
#include "sta/dsta.h"
#include "timing/analyzer_impl.h"
#include "timing/cone.h"
#include "util/thread_pool.h"

namespace statsizer::timing {

namespace detail {

void AnalyzerBase::validate_resizes(std::span<const Resize> resizes) const {
  if (ctx_ == nullptr || !has_base_) {
    throw std::logic_error(std::string(name()) + ": propose() before analyze()");
  }
  const sta::TimingContext& ctx = *ctx_;
  if (resizes.empty()) {
    throw std::invalid_argument(std::string(name()) + ": propose() with no resizes");
  }
  const auto& nl = ctx.netlist();
  for (const Resize& r : resizes) {
    if (r.gate >= nl.node_count() || !ctx.has_cell(r.gate)) {
      throw std::invalid_argument(std::string(name()) + ": propose() on unmapped gate");
    }
    const auto& group = ctx.library().group(nl.gate(r.gate).cell_group);
    if (r.size >= group.size_count()) {
      throw std::invalid_argument(std::string(name()) + ": size index out of range for " +
                                  nl.gate(r.gate).name);
    }
  }
  // Duplicate-gate detection over a sorted copy of the batch's gates: no
  // allocation for the hot single-resize path, O(m log m) for a bump.
  if (resizes.size() < 2) return;
  std::vector<netlist::GateId> gates;
  gates.reserve(resizes.size());
  for (const Resize& r : resizes) gates.push_back(r.gate);
  std::sort(gates.begin(), gates.end());
  const auto dup = std::adjacent_find(gates.begin(), gates.end());
  if (dup != gates.end()) {
    throw std::invalid_argument(std::string(name()) + ": duplicate gate " +
                                nl.gate(*dup).name + " in one speculation");
  }
}

/// The speculation of the engines without a cone replay (canonical, mc,
/// isle): score() runs compute() on a private copy of the design — the
/// resized netlist under a fresh TimingContext over the same library,
/// variation model, options and constraints — so it writes nothing shared.
class AnalyzerBase::PrivateSpeculation final : public Transaction<AnalyzerBase> {
 public:
  using Transaction::Transaction;

 private:
  void evaluate() override {
    netlist::Netlist nl = ctx_.netlist();
    for (const Resize& r : resizes_) nl.gate(r.gate).size_index = r.size;
    sta::TimingContext copy(nl, ctx_.library(), ctx_.variation(), ctx_.options());
    copy.set_constraints(ctx_.constraints());
    result_ = owner_.compute(copy);
  }

  void install() override {
    auto& nl = ctx_.mutable_netlist();
    for (const Resize& r : resizes_) nl.gate(r.gate).size_index = r.size;
    ctx_.update();  // a pure function of the sizes: the snapshot the score ran on
    owner_.install_base(result_);
  }
};

std::unique_ptr<Speculation> AnalyzerBase::speculate(sta::TimingContext& ctx,
                                                     std::span<const Resize> resizes) {
  return std::make_unique<PrivateSpeculation>(*this, ctx, resizes);
}

namespace {

using netlist::GateId;

// ---------------------------------------------------------------------------
// FASSTA and DSTA: exact incremental what-ifs over the shared cone
// speculation (timing/cone.h). Both engines propagate a scalar "arrival"
// per node (moment pairs for FASSTA, latest arrival for DSTA) from the
// snapshot's arc delays, so the engine half of a speculation calls the
// engine's kernel (fassta::Engine::fold_arcs / fold_outputs,
// sta::latest_arrival / latest_output) over the level-sorted cone, reading
// everything outside the cone from the analyzer's cached base
// (Summary::node). Commits patch the snapshot in place, which is what
// lets opt::recover_area screen thousands of downsize trials without a
// single full TimingContext::update().
// ---------------------------------------------------------------------------

class FasstaAnalyzer final : public ConeAnalyzer<FasstaAnalyzer> {
 public:
  explicit FasstaAnalyzer(const AnalyzerOptions& options) : options_(options.fassta) {}

  std::string_view name() const override { return "fassta"; }

 private:
  friend class ConeAnalyzer<FasstaAnalyzer>;

  class WhatIfSpeculation final : public ConeSpeculation<FasstaAnalyzer> {
   public:
    using ConeSpeculation::ConeSpeculation;

   private:
    /// The FASSTA gate kernel over the cone: moment propagation from the
    /// cone's arc delays/sigmas, base moments outside the cone.
    void propagate_arrivals(const sta::ConeWorkspace& ws) override {
      const auto& nl = ctx_.netlist();
      const fassta::Engine& engine = *owner_.engine_;
      const std::span<const sta::NodeMoments> base = owner_.current().node;
      const auto arrival_of = [&](GateId id) -> const sta::NodeMoments& {
        const std::uint32_t s = ws.slot(id);
        return s != sta::ConeWorkspace::kNoSlot ? moments_[s] : base[id];
      };
      for (std::uint32_t s = 0; s < cone_.nodes.size(); ++s) {
        moments_[s] = engine.fold_arcs(nl.gate(cone_.nodes[s]), arrival_of,
                                       [&](std::size_t i) { return cone_.arc(s, i); });
      }
      const sta::NodeMoments out = engine.fold_outputs(arrival_of);
      result_.mean_ps = out.mean_ps;
      result_.sigma_ps = out.sigma_ps;
    }
  };

  Summary compute(sta::TimingContext& ctx) override {
    engine_.emplace(ctx, options_);  // rebinds: compute() runs only in analyze()
    Summary s;
    sta::NodeMoments circuit;
    s.node = engine_->run(&circuit);
    s.mean_ps = circuit.mean_ps;
    s.sigma_ps = circuit.sigma_ps;
    return s;
  }

  fassta::EngineOptions options_;
  std::optional<fassta::Engine> engine_;
};

// ---------------------------------------------------------------------------
// Deterministic STA: mean = latest primary-output arrival, sigma = 0.
// ---------------------------------------------------------------------------

class DstaAnalyzer final : public ConeAnalyzer<DstaAnalyzer> {
 public:
  explicit DstaAnalyzer(const AnalyzerOptions& options)
      : clock_period_ps_(options.clock_period_ps) {}

  std::string_view name() const override { return "dsta"; }

 private:
  friend class ConeAnalyzer<DstaAnalyzer>;

  class WhatIfSpeculation final : public ConeSpeculation<DstaAnalyzer> {
   public:
    using ConeSpeculation::ConeSpeculation;

   private:
    /// The DSTA arrival kernel over the cone: latest arrival from the
    /// cone's arc delays, base arrivals outside the cone.
    void propagate_arrivals(const sta::ConeWorkspace& ws) override {
      // moments_ arrives zeroed; sigma stays 0.
      const std::span<const sta::NodeMoments> base = owner_.current().node;
      const auto arrival_of = [&](GateId id) {
        const std::uint32_t s = ws.slot(id);
        return (s != sta::ConeWorkspace::kNoSlot ? moments_[s] : base[id]).mean_ps;
      };
      for (std::uint32_t s = 0; s < cone_.nodes.size(); ++s) {
        moments_[s].mean_ps = sta::latest_arrival(
            ctx_, cone_.nodes[s], arrival_of, [&](std::size_t i) { return cone_.arc(s, i).first; });
      }
      result_.mean_ps = sta::latest_output(ctx_.netlist(), arrival_of).first;
      result_.sigma_ps = 0.0;
    }
  };

  Summary compute(sta::TimingContext& ctx) override {
    const sta::DstaResult r = sta::run_dsta(ctx, clock_period_ps_);
    Summary s;
    s.mean_ps = r.max_arrival_ps;
    s.sigma_ps = 0.0;
    s.node.resize(r.arrival_ps.size());
    for (std::size_t i = 0; i < r.arrival_ps.size(); ++i) {
      s.node[i] = sta::NodeMoments{r.arrival_ps[i], 0.0};
    }
    return s;
  }

  std::optional<double> clock_period_ps_;
};

// ---------------------------------------------------------------------------
// Canonical first-order SSTA: the correlation-aware engine (one shared
// global variable). Unlike FULLSSTA/FASSTA it tracks the variation model's
// global_fraction through the max.
// ---------------------------------------------------------------------------

class CanonicalAnalyzer final : public AnalyzerBase {
 public:
  explicit CanonicalAnalyzer(const AnalyzerOptions&) {}

  std::string_view name() const override { return "canonical"; }

  Capabilities capabilities() const override { return {.per_node_moments = true}; }

 private:
  Summary compute(sta::TimingContext& ctx) override {
    const ssta::CanonicalResult r = ssta::run_canonical(ctx);
    Summary s;
    s.mean_ps = r.mean_ps;
    s.sigma_ps = r.sigma_ps;
    s.node.resize(r.node.size());
    for (std::size_t i = 0; i < r.node.size(); ++i) {
      s.node[i] = sta::NodeMoments{r.node[i].mean_ps(), r.node[i].sigma_ps()};
    }
    return s;
  }
};

// ---------------------------------------------------------------------------
// Monte Carlo: the sampling reference. Deterministic for a fixed seed (and
// for any MonteCarloOptions::threads value — counter-based sample streams),
// so the private-copy what-if is exact.
// ---------------------------------------------------------------------------

class McAnalyzer final : public AnalyzerBase {
 public:
  explicit McAnalyzer(const AnalyzerOptions& options) : mc_(options.monte_carlo) {}

  std::string_view name() const override { return "mc"; }

  Capabilities capabilities() const override {
    return {.per_node_moments = mc_.per_node_stats};
  }

 private:
  Summary compute(sta::TimingContext& ctx) override {
    const ssta::MonteCarloResult r = ssta::run_monte_carlo(ctx, mc_);
    Summary s;
    s.mean_ps = r.mean_ps;
    s.sigma_ps = r.sigma_ps;
    s.node = r.node;  // empty unless per_node_stats
    return s;
  }

  ssta::MonteCarloOptions mc_;
};

}  // namespace

std::unique_ptr<Analyzer> make_fassta_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<FasstaAnalyzer>(options);
}
std::unique_ptr<Analyzer> make_canonical_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<CanonicalAnalyzer>(options);
}
std::unique_ptr<Analyzer> make_dsta_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<DstaAnalyzer>(options);
}
std::unique_ptr<Analyzer> make_mc_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<McAnalyzer>(options);
}

}  // namespace detail

Accepted first_accepted(
    Analyzer& /*engine*/, std::size_t threads, std::size_t count,
    const std::function<std::unique_ptr<Speculation>(std::size_t)>& propose,
    const std::function<bool(std::size_t, const Summary&)>& accept) {
  // One candidate per worker: an acceptance discards the rest of its window,
  // and acceptances land early in the optimizer's orders. Inside a pool
  // worker the scores would run inline, so the window is 1 there.
  const std::size_t window = util::region_threads(threads);
  std::vector<std::unique_ptr<Speculation>> wave;
  for (std::size_t next = 0; next < count;) {
    const std::size_t width = std::min(count - next, window);
    wave.clear();
    wave.resize(width);
    for (std::size_t i = 0; i < width; ++i) wave[i] = propose(next + i);
    if (width > 1) {
      // Chunk 1: each score is a whole fanout-cone replay.
      util::parallel_for(width, 1, window, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          if (wave[i] != nullptr) (void)wave[i]->score();
        }
      });
    }
    for (std::size_t i = 0; i < width; ++i) {
      if (wave[i] == nullptr) continue;
      if (accept(next + i, wave[i]->score())) return {next + i, std::move(wave[i])};
      wave[i].reset();  // a rejected overlay is never reread
    }
    next += width;
  }
  return {count, nullptr};
}

// ---------------------------------------------------------------------------
// The engine table
// ---------------------------------------------------------------------------

namespace {

struct EngineEntry {
  std::string_view name;
  std::unique_ptr<Analyzer> (*make)(const AnalyzerOptions&);
};

/// Sorted by name: analyzer_names() and the unknown-name message list it in
/// this order.
constexpr EngineEntry kEngines[] = {
    {"canonical", detail::make_canonical_analyzer},
    {"dsta", detail::make_dsta_analyzer},
    {"fassta", detail::make_fassta_analyzer},
    {"fullssta", detail::make_fullssta_analyzer},
    {"isle", detail::make_isle_analyzer},
    {"mc", detail::make_mc_analyzer},
};

}  // namespace

std::unique_ptr<Analyzer> make_analyzer(std::string_view name, const AnalyzerOptions& options) {
  for (const EngineEntry& e : kEngines) {
    if (e.name == name) return e.make(options);
  }
  std::string known;
  for (const EngineEntry& e : kEngines) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw std::invalid_argument("unknown analyzer \"" + std::string(name) + "\" (known: " + known +
                              ")");
}

std::vector<std::string> analyzer_names() {
  std::vector<std::string> names;
  for (const EngineEntry& e : kEngines) names.emplace_back(e.name);
  return names;
}

}  // namespace statsizer::timing
