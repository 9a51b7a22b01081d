// Flow — the library's front door. Wires together the whole stack
// (synthetic library, circuit generation or .bench/.v input,
// technology mapping, variation model, baseline mean-delay sizing,
// StatisticalGreedy optimization, reporting) behind a handful of calls:
//
//   core::Flow flow;
//   flow.load_table1("c432");
//   flow.run_baseline();                       // the paper's "original" point
//   auto rec = flow.optimize(/*lambda=*/3.0);  // StatisticalGreedy
//   std::cout << rec.sigma_reduction;          // ~ -0.5 .. -0.8
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "bench_format/provenance.h"
#include "bench_format/sdc_reader.h"
#include "drc/drc.h"
#include "liberty/model.h"
#include "liberty/synthetic.h"
#include "netlist/netlist.h"
#include "opt/area_recovery.h"
#include "opt/initial_sizing.h"
#include "opt/objective.h"
#include "opt/sizer_deterministic.h"
#include "opt/sizer_statistical.h"
#include "pdf/discrete_pdf.h"
#include "sta/graph.h"
#include "ssta/fullssta.h"
#include "ssta/isle.h"
#include "techmap/mapper.h"
#include "timing/analyzer.h"
#include "util/status.h"
#include "variation/model.h"

namespace statsizer::core {

struct FlowOptions {
  liberty::SyntheticOptions library;
  variation::VariationParams variation;
  sta::TimingOptions timing;
  techmap::MapOptions mapping;
  opt::InitialSizingOptions initial_sizing;
  opt::DeterministicSizerOptions baseline;
  ssta::FullSstaOptions fullssta;
  /// Importance-sampled yield estimation (Flow::estimate_yield).
  ssta::IsleOptions isle;
  /// Baseline shaping: how constrained-mode area recovery guards timing, its
  /// tolerance, and how many lambda = 0 polish iterations run after recovery
  /// to leave the "original" circuit near its mean-delay optimum (the paper's
  /// premise; without it the lambda runs would harvest mean instead of
  /// variance). Constants, not knobs: nothing tunes them.
  static constexpr opt::RecoveryCriterion recovery_criterion =
      opt::RecoveryCriterion::kDeterministicArrival;
  static constexpr double recovery_tolerance = 0.003;
  static constexpr std::size_t post_recovery_polish_iterations = 20;
  /// Worker threads for StatisticalGreedy's candidate scoring and exact
  /// confirmation waves and area recovery's screening waves, applied to
  /// run_baseline's stages and to optimize() when no overrides are passed
  /// (explicit overrides carry their own threads field, which optimize()
  /// also forwards to its recovery stage). 0 (the default) = hardware
  /// concurrency, 1 = serial on the calling thread; results are
  /// bitwise-identical for any value (flow_threading_test pins the default
  /// against 1). Each extra worker holds one speculative overlay at a time
  /// and allocates nothing of its own while scoring.
  std::size_t sizer_threads = 0;
  /// Engines of the statistical sizer and area recovery
  /// (timing::make_analyzer registry names), applied — like sizer_threads —
  /// to run_baseline's stages and to optimize() without overrides.
  /// confirm_engine is the accurate acceptance/verification engine;
  /// score_engine is the fast inner-loop scorer ("fassta" = the specialized
  /// kernel) and doubles as optimize()'s recovery screen. Constants: an
  /// overrides struct passed to optimize() carries its own engines.
  static constexpr std::string_view confirm_engine = "fullssta";
  static constexpr std::string_view score_engine = "fassta";
  /// Design-rule analysis thresholds (loading and preflight()).
  drc::DrcOptions drc;
  /// When set (the default), run_baseline() and optimize() refuse — with a
  /// std::logic_error naming the first finding — to size a design whose
  /// preflight() reports error-severity diagnostics. Warnings never block.
  bool preflight = true;
};

/// Everything one statistical optimization run produced.
struct OptimizationRecord {
  double lambda = 0.0;
  opt::CircuitStats before;
  opt::CircuitStats after;
  /// Relative changes (fractions; sigma_change is typically negative).
  double mean_change = 0.0;
  double sigma_change = 0.0;
  double area_change = 0.0;
  std::size_t iterations = 0;
  std::size_t resizes = 0;
  double runtime_seconds = 0.0;
  /// Output-delay pdf after optimization (Fig. 1 material). Size 0 when
  /// optimize()'s overrides pick a confirm engine other than "fullssta",
  /// the only one that carries a pdf.
  pdf::DiscretePdf output_pdf;
};

/// Flow::estimate_yield's payload: which engine produced the estimate plus
/// the full estimator result (yield, standard error, draws, ESS/weight
/// diagnostics, resolved clock period).
struct YieldReport {
  std::string engine;
  ssta::IsleResult result;

  [[nodiscard]] double yield() const { return result.yield; }
  [[nodiscard]] double std_error() const { return result.std_error; }
  [[nodiscard]] std::size_t draws() const { return result.draws; }
};

class Flow {
 public:
  explicit Flow(FlowOptions options = {});

  // -- circuit loading (each call replaces the current circuit) --------------
  /// Maps and adopts an externally built netlist.
  [[nodiscard]] Status load_circuit(netlist::Netlist nl);
  /// Generates one of the 13 Table-1 workloads.
  [[nodiscard]] Status load_table1(std::string_view name);
  /// Reads an ISCAS .bench file.
  [[nodiscard]] Status load_bench_file(const std::string& path);
  /// Reads a structural-Verilog file against this flow's library. The file's
  /// cell bindings (drive strengths) are adopted as-is: load_circuit skips
  /// re-mapping for already-mapped netlists.
  [[nodiscard]] Status load_verilog_file(const std::string& path);
  /// Reads a netlist file with the reader its extension names: .bench or .v.
  /// Any other extension is kInvalidArgument.
  [[nodiscard]] Status load_file(const std::string& path);

  // -- constraints ------------------------------------------------------------
  /// Parses SDC text / a file and installs the resulting constraints on the
  /// current TimingContext (clock period as the required-time target,
  /// set_input_delay as primary-input arrivals, set_output_delay as
  /// per-output required-time margins). Port names are matched against the
  /// loaded netlist; unknown ports are errors. Precondition: a circuit is
  /// loaded.
  [[nodiscard]] Status apply_sdc(std::string_view text);
  [[nodiscard]] Status apply_sdc_file(const std::string& path);

  // -- write-back -------------------------------------------------------------
  /// Writes the current (sized) netlist as structural Verilog.
  [[nodiscard]] Status write_verilog_file(const std::string& path) const;

  // -- design-rule analysis ----------------------------------------------------
  /// Runs the full DRC sweep (structural + binding + electrical + SDC
  /// coverage) over the current circuit with FlowOptions::drc, using the
  /// ingestion provenance and the most recent apply_sdc source when
  /// available. The report is stored (last_drc()) and returned.
  /// Precondition: a circuit is loaded.
  const drc::DrcReport& preflight();
  /// The most recent DRC report: the structural screen from the last load,
  /// or the last explicit preflight() sweep.
  [[nodiscard]] const drc::DrcReport& last_drc() const { return last_drc_; }
  /// Name -> source-line provenance of the last file-based load (empty for
  /// generated and in-memory circuits).
  [[nodiscard]] const bench_format::Provenance& provenance() const { return provenance_; }

  // -- optimization -----------------------------------------------------------
  /// Deterministic mean-delay sizing: establishes the paper's "original"
  /// operating point. Precondition: a circuit is loaded.
  opt::DeterministicSizerStats run_baseline();

  /// StatisticalGreedy at the given lambda, measured against the state at
  /// call time. @p overrides tweaks the sizer beyond the lambda (optional).
  /// Throws std::invalid_argument unless @p lambda is finite and >= 0.
  OptimizationRecord optimize(double lambda,
                              const opt::StatisticalSizerOptions* overrides = nullptr);

  // -- analysis ----------------------------------------------------------------
  /// Timing yield Y(T) = P(circuit delay <= T) of the current state.
  /// @p clock_period_ps 0 = resolve per FlowOptions::isle (explicit option,
  /// then the installed SDC clock, then the surrogate fallback). @p engine
  /// selects the estimator: "isle" (importance sampling, the default) or
  /// "mc" (plain Monte Carlo through the same machinery — weights are 1 and
  /// the draw budget/adaptive stopping behave identically, which makes the
  /// two reports draw-for-draw comparable). Throws std::invalid_argument for
  /// other names or a negative or non-finite @p clock_period_ps,
  /// std::logic_error when no circuit is loaded.
  [[nodiscard]] YieldReport estimate_yield(double clock_period_ps = 0.0,
                                           std::string_view engine = "isle") const;
  /// FULLSSTA-based summary of the current state.
  [[nodiscard]] opt::CircuitStats analyze() const;
  /// Full FULLSSTA result (pdfs, per-node moments).
  [[nodiscard]] ssta::FullSstaResult full_analysis() const;
  /// A what-if timing::Analyzer from the registry ("dsta", "fassta",
  /// "fullssta"), configured with this flow's FULLSSTA options (not yet
  /// bound: call ->analyze(flow.timing())). Throws std::invalid_argument for
  /// any other name.
  [[nodiscard]] std::unique_ptr<timing::Analyzer> make_analyzer(
      std::string_view name = "fullssta") const;

  // -- access -------------------------------------------------------------------
  [[nodiscard]] bool has_circuit() const { return netlist_ != nullptr; }
  [[nodiscard]] const netlist::Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const liberty::Library& library() const { return library_; }
  [[nodiscard]] sta::TimingContext& timing() { return *context_; }
  [[nodiscard]] const FlowOptions& options() const { return options_; }

 private:
  /// Shared tail of the load_* paths: structural DRC screen (errors refuse
  /// the circuit, with the first diagnostic as the status message), netlist
  /// invariants, mapping, context construction. Does not touch provenance_ —
  /// the file loaders fill it before delegating.
  [[nodiscard]] Status adopt_circuit(netlist::Netlist nl);
  /// Shared tail of the apply_sdc* paths: binds @p sdc to the netlist and
  /// records it, with its @p file ("" for text), as the source for DRC.
  [[nodiscard]] Status adopt_sdc(StatusOr<bench_format::Sdc> sdc, std::string file);
  /// Throws std::logic_error when preflighting is on and the current design
  /// has error-severity diagnostics. @p stage names the refusing API.
  void require_clean(const char* stage);

  FlowOptions options_;
  liberty::Library library_;
  variation::VariationModel variation_;
  std::unique_ptr<netlist::Netlist> netlist_;       // stable address for context_
  std::unique_ptr<sta::TimingContext> context_;
  bench_format::Provenance provenance_;
  std::optional<bench_format::Sdc> sdc_;            // last applied SDC, for DRC
  std::string sdc_file_;
  drc::DrcReport last_drc_;
};

}  // namespace statsizer::core
