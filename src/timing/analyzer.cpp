// The engine table and the FASSTA and DSTA adapters.
// The FULLSSTA adapter (the incremental what-if overlay with its pdf half)
// lives in fullssta_analyzer.cpp.
#include "timing/analyzer.h"

#include <algorithm>
#include <optional>

#include "sta/dsta.h"
#include "timing/cone.h"

namespace statsizer::timing {

namespace detail {

void validate_resizes(std::string_view engine, const sta::TimingContext& ctx,
                      std::span<const Resize> resizes) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(std::string(engine) + ": " + what);
  };
  if (resizes.empty()) fail("propose() with no resizes");
  const auto& nl = ctx.netlist();
  for (const Resize& r : resizes) {
    if (r.gate >= nl.node_count() || !ctx.has_cell(r.gate)) {
      fail("propose() on unmapped gate");
    }
    const auto& group = ctx.library().group(nl.gate(r.gate).cell_group);
    if (r.size >= group.size_count()) {
      fail("size index out of range for " + nl.gate(r.gate).name);
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
    fail("duplicate gate " + nl.gate(*dup).name + " in one speculation");
  }
}

namespace {

using netlist::GateId;

// ---------------------------------------------------------------------------
// FASSTA and DSTA: exact incremental what-ifs over the shared cone
// speculation (timing/cone.h). Both engines propagate a scalar "arrival"
// per node (moment pairs for FASSTA, latest arrival for DSTA) from the
// snapshot's arc delays, so the engine half of a speculation calls the
// engine's kernel (fassta::Engine::fold_arcs / fold_outputs,
// sta::latest_arrival / latest_output) over the topo-ordered cone, reading
// everything outside the cone from the analyzer's cached base
// (Summary::node). Commits patch the snapshot in place, which is what
// lets opt::recover_area screen thousands of downsize trials without a
// single full TimingContext::update().
// ---------------------------------------------------------------------------

class FasstaAnalyzer final : public AnalyzerBase<FasstaAnalyzer> {
 public:
  explicit FasstaAnalyzer(const AnalyzerOptions& options) : options_(options.fassta) {}

  std::string_view name() const override { return "fassta"; }

 private:
  friend class AnalyzerBase<FasstaAnalyzer>;

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

  /// The engine's base pass is the analysis. Commits leave engine_ stale;
  /// its kernels (fold_arcs, fold_outputs) read only the options.
  Summary compute(const sta::TimingContext& ctx) {
    engine_.emplace(ctx, options_);  // rebinds: compute() runs only in analyze()
    Summary s;
    s.node.assign(engine_->base().begin(), engine_->base().end());
    const sta::NodeMoments circuit =
        engine_->fold_outputs([&](GateId id) -> const sta::NodeMoments& { return s.node[id]; });
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

class DstaAnalyzer final : public AnalyzerBase<DstaAnalyzer> {
 public:
  std::string_view name() const override { return "dsta"; }

 private:
  friend class AnalyzerBase<DstaAnalyzer>;

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

  static Summary compute(const sta::TimingContext& ctx) {
    const sta::DstaResult r = sta::run_dsta(ctx);
    Summary s;
    s.mean_ps = r.max_arrival_ps;
    s.sigma_ps = 0.0;
    s.node.resize(r.arrival_ps.size());
    for (std::size_t i = 0; i < r.arrival_ps.size(); ++i) {
      s.node[i] = sta::NodeMoments{r.arrival_ps[i], 0.0};
    }
    return s;
  }
};

std::unique_ptr<Analyzer> make_fassta_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<FasstaAnalyzer>(options);
}
std::unique_ptr<Analyzer> make_dsta_analyzer(const AnalyzerOptions&) {
  return std::make_unique<DstaAnalyzer>();
}

}  // namespace
}  // namespace detail

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
    {"dsta", detail::make_dsta_analyzer},
    {"fassta", detail::make_fassta_analyzer},
    {"fullssta", detail::make_fullssta_analyzer},
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
