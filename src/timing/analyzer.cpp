// Registry plus the FASSTA / DSTA / Monte-Carlo adapters. The FULLSSTA
// adapter (the incremental what-if overlay) lives in fullssta_analyzer.cpp.
#include "timing/analyzer.h"

#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "ssta/canonical.h"
#include "sta/dsta.h"
#include "timing/analyzer_impl.h"
#include "timing/cone.h"

namespace statsizer::timing {

namespace detail {

void BoundAnalyzer::validate_resizes(std::span<const Resize> resizes) const {
  const sta::TimingContext& ctx = bound();
  if (!has_base_) {
    throw std::logic_error(std::string(name()) + ": propose() before analyze()");
  }
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
  // Duplicate-gate detection, sized to the batch: the hot paths propose
  // single resizes (vacuously duplicate-free, no allocation), small batches
  // compare pairwise, and only the netlist-wide population bumps pay for a
  // seen-flag vector.
  if (resizes.size() < 2) return;
  if (resizes.size() <= 32) {
    for (std::size_t i = 1; i < resizes.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (resizes[j].gate == resizes[i].gate) {
          throw std::invalid_argument(std::string(name()) + ": duplicate gate " +
                                      nl.gate(resizes[i].gate).name + " in one speculation");
        }
      }
    }
    return;
  }
  std::vector<std::uint8_t> seen(nl.node_count(), 0);
  for (const Resize& r : resizes) {
    if (seen[r.gate] != 0) {
      throw std::invalid_argument(std::string(name()) + ": duplicate gate " +
                                  nl.gate(r.gate).name + " in one speculation");
    }
    seen[r.gate] = 1;
  }
}

namespace {

using netlist::GateId;

// The SerializedSpeculation / SerializedAnalyzer fallback plumbing lives in
// analyzer_impl.h (detail) so out-of-file adapters — the ISLE engine in
// isle_analyzer.cpp — can subclass it too.

// ---------------------------------------------------------------------------
// FASSTA and DSTA: exact incremental what-ifs over the shared cone
// speculation (timing/cone.h). Both engines propagate a scalar "arrival"
// per node (moment pairs for FASSTA, latest arrival for DSTA) from the
// snapshot's arc delays, so the engine half of a speculation calls the
// engine's kernel (fassta::Engine::fold_arcs / fold_outputs,
// sta::latest_arrival / latest_output) over the dirty set in topological
// order, reading everything outside the cone from the analyzer's cached
// base (Summary::node). Commits patch the snapshot in place, which is what
// lets opt::recover_area screen thousands of downsize trials without a
// single full TimingContext::update().
// ---------------------------------------------------------------------------

class FasstaAnalyzer final : public SerializedAnalyzer {
 public:
  explicit FasstaAnalyzer(const AnalyzerOptions& options) : options_(options.fassta) {}

  std::string_view name() const override { return "fassta"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.what_if = true;
    c.concurrent_speculations = true;
    c.exact_speculation = true;
    return c;
  }

  // Single-resize propose() is inherited: it delegates to this override.
  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) override {
    validate_resizes(resizes);
    return std::make_unique<WhatIfSpeculation>(*this, bound(), resizes);
  }

 private:
  class WhatIfSpeculation final : public ConeSpeculation<FasstaAnalyzer> {
   public:
    using ConeSpeculation::ConeSpeculation;

   private:
    /// The FASSTA gate kernel over the dirty set: moment propagation from
    /// the cone's arc delays/sigmas, base moments outside the cone.
    void propagate_arrivals() override {
      const auto& nl = ctx_.netlist();
      ov_moments_.assign(nl.node_count(), sta::NodeMoments{});
      const fassta::Engine& engine = *owner_.engine_;
      const std::span<const sta::NodeMoments> base = owner_.current().node;
      const auto arrival_of = [&](GateId id) -> const sta::NodeMoments& {
        return cone_.dirty[id] ? ov_moments_[id] : base[id];
      };
      for (const GateId id : ctx_.topo_order()) {
        if (!cone_.dirty[id]) continue;
        const std::uint32_t off = ctx_.arc_offset(id);
        ov_moments_[id] = engine.fold_arcs(nl.gate(id), arrival_of, [&](std::size_t i) {
          return std::pair{cone_.arc_delay[off + i], cone_.arc_sigma[off + i]};
        });
      }
      const sta::NodeMoments out = engine.fold_outputs(arrival_of);
      result_.mean_ps = out.mean_ps;
      result_.sigma_ps = out.sigma_ps;
    }

    void merge_arrivals() override {
      for (GateId id = 0; id < ov_moments_.size(); ++id) {
        if (cone_.dirty[id]) owner_.base_.node[id] = ov_moments_[id];
      }
    }

    std::vector<sta::NodeMoments> ov_moments_;
  };

  Summary compute(sta::TimingContext& ctx) override {
    Summary s;
    sta::NodeMoments circuit;
    s.node = engine_->run(&circuit);
    s.mean_ps = circuit.mean_ps;
    s.sigma_ps = circuit.sigma_ps;
    (void)ctx;
    return s;
  }

  void on_bind(sta::TimingContext& ctx) override { engine_.emplace(ctx, options_); }

  fassta::EngineOptions options_;
  std::optional<fassta::Engine> engine_;
};

// ---------------------------------------------------------------------------
// Deterministic STA: mean = latest primary-output arrival, sigma = 0.
// ---------------------------------------------------------------------------

class DstaAnalyzer final : public SerializedAnalyzer {
 public:
  explicit DstaAnalyzer(const AnalyzerOptions& options)
      : clock_period_ps_(options.clock_period_ps) {}

  std::string_view name() const override { return "dsta"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.what_if = true;
    c.concurrent_speculations = true;
    c.exact_speculation = true;
    return c;
  }

  // Single-resize propose() is inherited: it delegates to this override.
  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) override {
    validate_resizes(resizes);
    return std::make_unique<WhatIfSpeculation>(*this, bound(), resizes);
  }

 private:
  class WhatIfSpeculation final : public ConeSpeculation<DstaAnalyzer> {
   public:
    using ConeSpeculation::ConeSpeculation;

   private:
    /// The DSTA arrival kernel over the dirty set: latest arrival from the
    /// cone's arc delays, base arrivals outside the cone.
    void propagate_arrivals() override {
      const auto& nl = ctx_.netlist();
      ov_arrival_.assign(nl.node_count(), 0.0);
      const std::span<const sta::NodeMoments> base = owner_.current().node;
      const auto arrival_of = [&](GateId id) {
        return cone_.dirty[id] ? ov_arrival_[id] : base[id].mean_ps;
      };
      for (const GateId id : ctx_.topo_order()) {
        if (!cone_.dirty[id]) continue;
        const std::uint32_t off = ctx_.arc_offset(id);
        ov_arrival_[id] = sta::latest_arrival(
            ctx_, id, arrival_of, [&](std::size_t i) { return cone_.arc_delay[off + i]; });
      }
      result_.mean_ps = sta::latest_output(nl, arrival_of).first;
      result_.sigma_ps = 0.0;
    }

    void merge_arrivals() override {
      for (GateId id = 0; id < ov_arrival_.size(); ++id) {
        if (cone_.dirty[id]) owner_.base_.node[id] = sta::NodeMoments{ov_arrival_[id], 0.0};
      }
    }

    std::vector<double> ov_arrival_;
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

class CanonicalAnalyzer final : public SerializedAnalyzer {
 public:
  explicit CanonicalAnalyzer(const AnalyzerOptions&) {}

  std::string_view name() const override { return "canonical"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.what_if = true;
    c.exact_speculation = true;
    return c;
  }

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
// so the serialized what-if is exact.
// ---------------------------------------------------------------------------

class McAnalyzer final : public SerializedAnalyzer {
 public:
  explicit McAnalyzer(const AnalyzerOptions& options) : mc_(options.monte_carlo) {}

  std::string_view name() const override { return "mc"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = mc_.per_node_stats;
    c.what_if = true;
    c.exact_speculation = true;
    return c;
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

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, AnalyzerFactory, std::less<>> factories;

  Registry() {
    factories.emplace("fullssta", detail::make_fullssta_analyzer);
    factories.emplace("fassta", detail::make_fassta_analyzer);
    factories.emplace("canonical", detail::make_canonical_analyzer);
    factories.emplace("dsta", detail::make_dsta_analyzer);
    factories.emplace("mc", detail::make_mc_analyzer);
    factories.emplace("isle", detail::make_isle_analyzer);
  }

  static Registry& instance() {
    static Registry r;
    return r;
  }
};

}  // namespace

std::unique_ptr<Analyzer> make_analyzer(std::string_view name, const AnalyzerOptions& options) {
  Registry& reg = Registry::instance();
  AnalyzerFactory factory;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.factories.find(name);
    if (it == reg.factories.end()) {
      std::string known;
      for (const auto& [n, f] : reg.factories) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw std::invalid_argument("unknown analyzer \"" + std::string(name) +
                                  "\" (known: " + known + ")");
    }
    factory = it->second;
  }
  return factory(options);
}

std::vector<std::string> analyzer_names() {
  Registry& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [n, f] : reg.factories) names.push_back(n);
  return names;  // std::map iterates sorted
}

bool register_analyzer(std::string name, AnalyzerFactory factory) {
  Registry& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.factories.emplace(std::move(name), std::move(factory)).second;
}

}  // namespace statsizer::timing
