#include "flow_bench.h"

#include <stdexcept>
#include <string_view>

#include "bench_format/verilog_reader.h"
#include "bench_util.h"
#include "drc/drc.h"
#include "fassta/engine.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "sta/dsta.h"
#include "timing/analyzer.h"

namespace perfbench {

namespace sz = statsizer;

namespace {

void load_or_throw(sz::core::Flow& flow, const std::string& path) {
  if (const sz::Status s = flow.load_verilog_file(path); !s.ok()) {
    throw std::runtime_error("load " + path + ": " + s.message());
  }
}

void preflight_or_throw(sz::core::Flow& flow) {
  if (flow.preflight().has_errors()) {
    throw std::runtime_error("preflight DRC: " + flow.last_drc().first_error()->message);
  }
}

/// Median wall time of @p reps calls of @p fn, inside one span per call.
template <typename Fn>
double median_seconds(Tracer& tracer, const std::string& span, int reps, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope scope(tracer, span);
    const double t0 = now_s();
    fn();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

}  // namespace

std::vector<sz::netlist::GateId> sizable_gates(const sz::core::Flow& flow) {
  std::vector<sz::netlist::GateId> out;
  const sz::netlist::Netlist& nl = flow.netlist();
  for (sz::netlist::GateId g = 0; g < nl.node_count(); ++g) {
    const sz::netlist::Gate& gate = nl.gate(g);
    if (nl.is_input(g) || nl.is_constant(g) || gate.cell_group == sz::netlist::kUnmapped) continue;
    if (flow.library().group(gate.cell_group).size_count() > 1) out.push_back(g);
  }
  return out;
}

std::string FlowOutcome::design_digest() const {
  Digest d;
  d.add(baseline_sizes);
  d.add(final_sizes);
  for (const double v : {original.mean_ps, original.sigma_ps, original.area_um2,
                         record.after.mean_ps, record.after.sigma_ps, record.after.area_um2,
                         record.sigma_change, record.area_change, clock_ps}) {
    d.add(v);
  }
  return d.hex();
}

std::string FlowOutcome::yield_digest() const {
  Digest d;
  for (const sz::core::YieldReport* y : {&isle_base, &mc_base, &isle_final}) {
    d.add(y->yield());
    d.add(y->std_error());
    d.add(static_cast<std::uint64_t>(y->draws()));
  }
  return d.hex();
}

sz::core::FlowOptions flow_options(std::uint64_t seed) {
  sz::core::FlowOptions o;
  o.isle.seed = derive_seed(seed, 1);
  return o;
}

sz::opt::StatisticalSizerOptions sizer_overrides(const sz::core::FlowOptions& o,
                                                 std::size_t logic_gates) {
  sz::opt::StatisticalSizerOptions s;
  s.threads = o.sizer_threads;
  s.confirm_engine = o.confirm_engine;
  s.score_engine = o.score_engine;
  s.fullssta = o.fullssta;
  if (logic_gates > 1500) {
    s.max_iterations = 40;
    s.exact_fallback_gate_limit = 10;
    s.max_global_sweeps = 2;
  }
  return s;
}

FlowOutcome run_flow(const std::string& verilog_path, double lambda, std::uint64_t seed,
                     const std::function<void()>& between) {
  FlowOutcome out;
  double paused = 0.0;
  const auto clock = [&paused] { return now_s() - paused; };
  const auto pause = [&] {
    if (!between) return;
    const double p0 = now_s();
    between();
    paused += now_s() - p0;
  };
  const double t0 = clock();
  sz::core::Flow flow(flow_options(seed));
  load_or_throw(flow, verilog_path);
  preflight_or_throw(flow);
  const double t1 = clock();
  pause();
  (void)flow.run_baseline();
  out.original = flow.analyze();
  out.baseline_sizes = flow.netlist().sizes();
  const double t2 = clock();
  pause();
  out.clock_ps = out.original.mean_ps + 3.0 * out.original.sigma_ps;
  out.isle_base = flow.estimate_yield(out.clock_ps, "isle");
  out.mc_base = flow.estimate_yield(out.clock_ps, "mc");
  const double t3 = clock();
  pause();
  const sz::opt::StatisticalSizerOptions overrides =
      sizer_overrides(flow.options(), flow.netlist().logic_gate_count());
  out.record = flow.optimize(lambda, &overrides);
  out.final_sizes = flow.netlist().sizes();
  const double t4 = clock();
  pause();
  out.isle_final = flow.estimate_yield(out.clock_ps, "isle");
  const double t5 = clock();

  out.baseline_s = t2 - t1;
  out.yield_s = (t3 - t2) + (t5 - t4);
  out.optimize_s = t4 - t3;
  out.flow_s = t5 - t0;
  return out;
}

FlowOutcome run_flow_staged(const std::string& verilog_path, double lambda, std::uint64_t seed,
                            Tracer& tracer) {
  using Scope = Tracer::Scope;
  FlowOutcome out;
  Scope root(tracer, "flow");
  const double t0 = now_s();
  Scope setup(tracer, "flow.setup");
  sz::core::Flow flow(flow_options(seed));
  {
    Scope s(tracer, "core.load");
    load_or_throw(flow, verilog_path);
  }
  {
    Scope s(tracer, "core.preflight");
    preflight_or_throw(flow);
  }
  setup.close();
  const double t1 = now_s();

  // Flow::run_baseline, stage by stage.
  const sz::core::FlowOptions& o = flow.options();
  sz::sta::TimingContext& ctx = flow.timing();
  Scope baseline(tracer, "flow.baseline");
  {
    Scope s(tracer, "core.preflight");
    preflight_or_throw(flow);
  }
  {
    Scope s(tracer, "opt.initial_sizing");
    (void)sz::opt::apply_initial_sizing(ctx, o.initial_sizing);
  }
  {
    Scope s(tracer, "opt.tilos");
    (void)sz::opt::size_for_mean_delay(ctx, o.baseline);
  }
  sz::opt::StatisticalSizerOptions polish;
  polish.objective.lambda = 0.0;
  polish.threads = o.sizer_threads;
  polish.confirm_engine = o.confirm_engine;
  polish.score_engine = o.score_engine;
  polish.max_iterations = flow.netlist().logic_gate_count() > 1500 ? 50 : 150;
  polish.fullssta = o.fullssta;
  {
    Scope s(tracer, "opt.polish");
    (void)sz::opt::size_statistically(ctx, polish);
  }
  sz::opt::AreaRecoveryOptions recovery;
  recovery.criterion = o.recovery_criterion;
  recovery.tolerance = o.recovery_tolerance;
  recovery.objective.lambda = 0.0;
  recovery.threads = o.sizer_threads;
  recovery.confirm_engine = o.confirm_engine;
  recovery.fullssta = o.fullssta;
  {
    Scope s(tracer, "opt.recovery");
    out.baseline_recovery = sz::opt::recover_area(ctx, recovery);
  }
  if (o.post_recovery_polish_iterations > 0) {
    Scope s(tracer, "opt.repolish");
    polish.max_iterations = o.post_recovery_polish_iterations;
    (void)sz::opt::size_statistically(ctx, polish);
  }
  {
    Scope s(tracer, "core.analyze");
    out.original = flow.analyze();
  }
  out.baseline_sizes = flow.netlist().sizes();
  baseline.close();
  const double t2 = now_s();

  out.clock_ps = out.original.mean_ps + 3.0 * out.original.sigma_ps;
  Scope base_yield(tracer, "flow.yield");
  {
    Scope s(tracer, "ssta.isle");
    out.isle_base = flow.estimate_yield(out.clock_ps, "isle");
  }
  {
    Scope s(tracer, "ssta.mc");
    out.mc_base = flow.estimate_yield(out.clock_ps, "mc");
  }
  base_yield.close();
  const double t3 = now_s();

  // Flow::optimize(lambda, &overrides), stage by stage.
  Scope optimize(tracer, "flow.optimize");
  {
    Scope s(tracer, "core.preflight");
    preflight_or_throw(flow);
  }
  sz::opt::StatisticalSizerOptions sizer =
      sizer_overrides(o, flow.netlist().logic_gate_count());
  sizer.objective.lambda = lambda;
  {
    Scope s(tracer, "opt.sizer");
    out.sizer = sz::opt::size_statistically(ctx, sizer);
  }
  sz::opt::AreaRecoveryOptions stat_recovery;
  stat_recovery.criterion = sz::opt::RecoveryCriterion::kStatisticalCost;
  stat_recovery.objective = sizer.objective;
  stat_recovery.tolerance = 0.002;
  stat_recovery.threads = sizer.threads;
  stat_recovery.screen_engine = sizer.score_engine;
  stat_recovery.confirm_engine = sizer.confirm_engine;
  stat_recovery.fullssta = sizer.fullssta;
  stat_recovery.fassta = sizer.fassta;
  {
    Scope s(tracer, "opt.stat_recovery");
    out.recovery = sz::opt::recover_area(ctx, stat_recovery);
  }
  sz::core::OptimizationRecord& rec = out.record;
  rec.lambda = lambda;
  rec.before = out.sizer.initial;
  rec.after.mean_ps = out.recovery.final_summary.mean_ps;
  rec.after.sigma_ps = out.recovery.final_summary.sigma_ps;
  rec.after.area_um2 = ctx.area_um2();
  const auto change = [](double after, double before) {
    return before > 0.0 ? after / before - 1.0 : 0.0;
  };
  rec.mean_change = change(rec.after.mean_ps, rec.before.mean_ps);
  rec.sigma_change = change(rec.after.sigma_ps, rec.before.sigma_ps);
  rec.area_change = change(rec.after.area_um2, rec.before.area_um2);
  rec.iterations = out.sizer.iterations;
  rec.resizes = out.sizer.resizes;
  out.final_sizes = flow.netlist().sizes();
  optimize.close();
  const double t4 = now_s();

  {
    Scope final_yield(tracer, "flow.yield");
    Scope s(tracer, "ssta.isle");
    out.isle_final = flow.estimate_yield(out.clock_ps, "isle");
  }
  const double t5 = now_s();

  out.baseline_s = t2 - t1;
  out.yield_s = (t3 - t2) + (t5 - t4);
  out.optimize_s = t4 - t3;
  out.flow_s = t5 - t0;
  return out;
}

double measure_layers(const std::string& design_path, const std::string& baseline_path,
                    std::uint64_t seed, Tracer& tracer, Report& report) {
  Rng rng(derive_seed(seed, 2));
  sz::core::Flow base(flow_options(seed));
  load_or_throw(base, baseline_path);
  sz::sta::TimingContext& ctx = base.timing();
  const sz::core::FlowOptions& o = base.options();
  const std::vector<sz::netlist::GateId> gates = sizable_gates(base);
  if (gates.empty()) throw std::runtime_error("measure_layers: no sizable gates");
  const auto random_resize = [&]() {
    const sz::netlist::GateId g = gates[rng.below(gates.size())];
    const auto count = base.library().group(base.netlist().gate(g).cell_group).size_count();
    return sz::timing::Resize{g, static_cast<std::uint16_t>(rng.below(count))};
  };

  // -- setup layers ------------------------------------------------------------
  report.add("bench_format.verilog_read_ms",
             1e3 * median_seconds(tracer, "bench_format.verilog_read", 5, [&] {
               auto nl = sz::bench_format::read_verilog_file(design_path, base.library());
               if (!nl.ok()) throw std::runtime_error(nl.status().message());
             }),
             "ms");
  {
    sz::core::Flow loader(o);
    report.add("core.load_ms", 1e3 * median_seconds(tracer, "core.load", 5, [&] {
                                 load_or_throw(loader, design_path);
                               }),
               "ms");
    report.add("core.preflight_ms", 1e3 * median_seconds(tracer, "core.preflight", 5, [&] {
                                      (void)loader.preflight();
                                    }),
               "ms");
  }
  report.add("drc.sweep_ms", 1e3 * median_seconds(tracer, "drc.sweep", 5, [&] {
                               (void)sz::drc::run_drc(ctx, o.drc);
                             }),
             "ms");
  report.add("core.analyze_ms",
             1e3 * median_seconds(tracer, "core.analyze", 5, [&] { (void)base.analyze(); }), "ms");

  // -- propagation kernels ------------------------------------------------------
  report.add("sta.update_ms",
             1e3 * median_seconds(tracer, "sta.update", 9, [&] { ctx.update(); }), "ms");
  report.add("sta.dsta_ms",
             1e3 * median_seconds(tracer, "sta.dsta", 9, [&] { (void)sz::sta::run_dsta(ctx); }),
             "ms");
  report.add("ssta.fullssta_ms", 1e3 * median_seconds(tracer, "ssta.fullssta", 5, [&] {
                                   (void)sz::ssta::run_fullssta(ctx, o.fullssta);
                                 }),
             "ms");
  {
    const sz::fassta::Engine engine(ctx);
    report.add("fassta.run_us",
               1e6 * median_seconds(tracer, "fassta.run", 21, [&] { (void)engine.run(); }), "us");
    sz::fassta::Engine::Scratch scratch;
    constexpr int kCandidates = 300;
    std::vector<sz::timing::Resize> picks(kCandidates);
    for (auto& p : picks) p = random_resize();
    Tracer::Scope span(tracer, "fassta.candidate");
    const double t0 = now_s();
    for (const sz::timing::Resize& p : picks) {
      const auto& cell =
          base.library().cell_for(base.netlist().gate(p.gate).cell_group, p.size);
      (void)engine.run_with_candidate(p.gate, cell, scratch);
    }
    report.add("fassta.candidate_us", 1e6 * (now_s() - t0) / kCandidates, "us");
  }

  // -- what-if speculation: median propose -> score -> rollback on the baseline
  double idle_fullssta_us = 0.0;
  for (const auto& [engine, count] :
       {std::pair<const char*, int>{"fullssta", 100}, {"fassta", 300}, {"dsta", 300}}) {
    std::unique_ptr<sz::timing::Analyzer> analyzer = base.make_analyzer(engine);
    (void)analyzer->analyze(ctx);
    std::vector<sz::timing::Resize> picks(count);
    for (auto& p : picks) p = random_resize();
    Tracer::Scope span(tracer, std::string("timing.whatif_") + engine);
    std::vector<double> times;
    for (const sz::timing::Resize& p : picks) {
      const double t0 = now_s();
      auto spec = analyzer->propose(p.gate, p.size);
      (void)spec->score();
      spec->rollback();
      times.push_back(now_s() - t0);
    }
    report.add(std::string("timing.whatif_") + engine + "_us", 1e6 * median(times), "us");
    if (std::string_view(engine) == "fullssta") idle_fullssta_us = 1e6 * median(times);
  }

  // -- pdf primitives, replayed on this design's own FULLSSTA node pdfs --------
  sz::ssta::FullSstaOptions keep = o.fullssta;
  keep.keep_node_pdfs = true;
  const sz::ssta::FullSstaResult full = sz::ssta::run_fullssta(ctx, keep);
  std::vector<const sz::pdf::DiscretePdf*> operands;
  for (const sz::pdf::DiscretePdf& p : full.node_pdf) {
    if (p.size() > 1) operands.push_back(&p);
  }
  if (operands.empty()) throw std::runtime_error("measure_layers: no non-point node pdfs");
  constexpr int kPdfOps = 4000;
  std::vector<std::pair<const sz::pdf::DiscretePdf*, const sz::pdf::DiscretePdf*>> pairs;
  for (int i = 0; i < kPdfOps; ++i) {
    pairs.emplace_back(operands[rng.below(operands.size())],
                       operands[rng.below(operands.size())]);
  }
  std::vector<std::pair<double, double>> arcs;  // (delay, sigma) of random arcs
  for (int i = 0; i < kPdfOps; ++i) {
    const sz::netlist::GateId g = gates[rng.below(gates.size())];
    const std::size_t arc = rng.below(base.netlist().gate(g).fanins.size());
    arcs.emplace_back(ctx.arc_delay_ps(g, arc), ctx.arc_sigma_ps(g, arc));
  }
  const std::size_t samples = o.fullssta.samples_per_pdf;
  double sink = 0.0;
  const auto per_op_ns = [&](const char* span, auto&& op) {
    return 1e9 / kPdfOps * median_seconds(tracer, span, 5, [&] {
             for (int i = 0; i < kPdfOps; ++i) sink += op(i).mass_at(0);
           });
  };
  report.add("pdf.sum_ns", per_op_ns("pdf.sum", [&](int i) {
               return sz::pdf::sum(*pairs[i].first, *pairs[i].second, samples);
             }),
             "ns");
  report.add("pdf.max_ns", per_op_ns("pdf.max", [&](int i) {
               return sz::pdf::max(*pairs[i].first, *pairs[i].second, samples);
             }),
             "ns");
  report.add("pdf.normal_ns", per_op_ns("pdf.normal", [&](int i) {
               return sz::pdf::DiscretePdf::normal(arcs[i].first, arcs[i].second, samples,
                                                   o.fullssta.span_sigmas);
             }),
             "ns");
  if (!(sink > 0.0)) report.fail("pdf replay produced no mass");
  return idle_fullssta_us;
}

}  // namespace perfbench
