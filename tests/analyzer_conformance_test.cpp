// Table-driven conformance suite for the timing::Analyzer engine API.
// Every engine in timing::analyzer_names() (dsta, fassta, fullssta) runs
// through the same contract checks:
//   * analyze() produces a finite summary with per-node moments, and a pdf
//     consistent with its mean where it carries one;
//   * propose()/score()/rollback() leaves the netlist, the TimingContext,
//     and the analyzer base bitwise-identical to the pre-propose state;
//   * a committed speculation's base equals a from-scratch analyze() of the
//     resized netlist bitwise;
//   * commits invalidate sibling speculations (epoch guard);
//   * a cancelled score() changes nothing, and a commit() either completes
//     or changes nothing;
//   * speculations from one base score concurrently, bitwise equal to
//     serial scoring.
// Plus the FULLSSTA-specific guarantees the parallel rescue confirmations
// rest on: what-if scores (single and multi-resize) bitwise-equal a
// from-scratch update() + run_fullssta() on the cla_adder and parity-fabric
// circuits from sizer_parallel_test, concurrent speculative scoring is
// thread-count-invariant, a committed overlay equals the from-scratch
// run (arrival moments, output pdf, mean, sigma), and so does the dataflow
// cone walk at 1, 2, 3 and 8 workers, over a c6288 cone of 1000+ slots too.
#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "core/flow.h"
#include "liberty/synthetic.h"
#include "opt/confirm.h"
#include "opt/initial_sizing.h"
#include "opt/sizer_statistical.h"
#include "serve/job.h"
#include "ssta/fullssta.h"
#include "ssta/isle.h"
#include "techmap/mapper.h"
#include "timing/analyzer.h"
#include "util/exec.h"
#include "util/thread_pool.h"

namespace statsizer::timing {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
    (void)opt::apply_initial_sizing(*ctx);
  }
};

/// Wide balanced XOR fabric (mirrors sizer_parallel_test): reconvergence-free
/// breadth, thousands of near-identical paths.
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

/// Every observable of the timing snapshot, bit-for-bit.
struct Fingerprint {
  std::vector<std::uint16_t> sizes;
  std::vector<double> loads;
  std::vector<double> slews;
  std::vector<double> arc_delays;
  std::vector<double> arc_sigmas;
  double area = 0.0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(const sta::TimingContext& ctx) {
  Fingerprint f;
  const auto& nl = ctx.netlist();
  f.sizes = nl.sizes();
  f.area = ctx.area_um2();
  for (GateId g = 0; g < nl.node_count(); ++g) {
    f.loads.push_back(ctx.load_ff(g));
    f.slews.push_back(ctx.slew_ps(g));
    for (std::size_t i = 0; i < nl.gate(g).fanins.size(); ++i) {
      f.arc_delays.push_back(ctx.arc_delay_ps(g, i));
      f.arc_sigmas.push_back(ctx.arc_sigma_ps(g, i));
    }
  }
  return f;
}

void expect_summaries_equal(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.mean_ps, b.mean_ps);
  EXPECT_EQ(a.sigma_ps, b.sigma_ps);
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_EQ(a.node[i].mean_ps, b.node[i].mean_ps) << "node " << i;
    EXPECT_EQ(a.node[i].sigma_ps, b.node[i].sigma_ps) << "node " << i;
  }
  ASSERT_EQ(a.output_pdf.size(), b.output_pdf.size());
  EXPECT_EQ(a.output_pdf.origin(), b.output_pdf.origin());
  EXPECT_EQ(a.output_pdf.step(), b.output_pdf.step());
  EXPECT_EQ(a.output_pdf.masses(), b.output_pdf.masses());
}

/// A mapped gate with more than one available size, plus a target size that
/// differs from the current one.
struct Candidate {
  GateId gate = netlist::kNoGate;
  std::uint16_t size = 0;
};

std::vector<Candidate> some_candidates(const sta::TimingContext& ctx, std::size_t limit) {
  std::vector<Candidate> out;
  const auto& nl = ctx.netlist();
  for (GateId g = 0; g < nl.node_count() && out.size() < limit; ++g) {
    if (!ctx.has_cell(g)) continue;
    const auto& group = ctx.library().group(nl.gate(g).cell_group);
    if (group.size_count() < 2) continue;
    const std::uint16_t current = nl.gate(g).size_index;
    out.push_back(Candidate{g, static_cast<std::uint16_t>((current + 1) % group.size_count())});
  }
  return out;
}

class AnalyzerConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalyzerConformance, AnalyzeProducesCapabilityConsistentSummary) {
  Bench b(circuits::make_cla_adder(4));
  auto an = make_analyzer(GetParam());
  EXPECT_EQ(an->name(), GetParam());
  EXPECT_THROW((void)an->current(), std::logic_error);
  EXPECT_THROW((void)an->propose(0, 0), std::logic_error);  // before analyze()

  const Summary& s = an->analyze(*b.ctx);
  EXPECT_GT(s.mean_ps, 0.0);
  EXPECT_GE(s.sigma_ps, 0.0);
  EXPECT_EQ(s.node.size(), b.nl.node_count());
  if (s.output_pdf.size() > 0) {
    EXPECT_EQ(an->name(), "fullssta");
    EXPECT_GT(s.output_pdf.size(), 1u);
    EXPECT_EQ(s.mean_ps, s.output_pdf.mean());
  }
}

TEST_P(AnalyzerConformance, RollbackRestoresBitwiseIdenticalState) {
  Bench b(circuits::make_cla_adder(4));
  auto an = make_analyzer(GetParam());

  (void)an->analyze(*b.ctx);
  const Summary before_summary = an->current();
  const Fingerprint before = fingerprint(*b.ctx);

  const auto cands = some_candidates(*b.ctx, 3);
  ASSERT_FALSE(cands.empty());
  for (const Candidate& c : cands) {
    auto spec = an->propose(c.gate, c.size);
    const Summary& scored = spec->score();
    EXPECT_GT(scored.mean_ps, 0.0);
    spec->rollback();
    EXPECT_EQ(fingerprint(*b.ctx), before) << "rollback leaked state";
    expect_summaries_equal(an->current(), before_summary);
  }
  // Destroying an unresolved speculation is an implicit rollback.
  { auto spec = an->propose(cands[0].gate, cands[0].size); }
  EXPECT_EQ(fingerprint(*b.ctx), before);
}

TEST_P(AnalyzerConformance, CommittedSpeculationEqualsFromScratchAnalysis) {
  auto an = make_analyzer(GetParam());

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 1);
  ASSERT_FALSE(cands.empty());

  auto spec = an->propose(cands[0].gate, cands[0].size);
  const Summary scored = spec->score();
  spec->commit();
  EXPECT_EQ(b.nl.gate(cands[0].gate).size_index, cands[0].size);
  const Summary committed = an->current();

  // From scratch: an identical twin bench resized up front.
  Bench twin(circuits::make_cla_adder(4));
  twin.nl.gate(cands[0].gate).size_index = cands[0].size;
  twin.ctx->update();
  auto fresh = make_analyzer(GetParam());
  const Summary& reference = fresh->analyze(*twin.ctx);

  expect_summaries_equal(committed, reference);
  EXPECT_EQ(fingerprint(*b.ctx), fingerprint(*twin.ctx));
  EXPECT_EQ(scored.mean_ps, reference.mean_ps);
  EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
}

// The one input on which an engine kernel's two callers differ: a full
// analysis launches constrained primary inputs at their set_input_delay,
// while a cone replay reads their arrivals from the base. A committed what-if
// on an SDC-constrained context must still equal a from-scratch analysis.
TEST_P(AnalyzerConformance, CommittedSpeculationEqualsFromScratchAnalysisUnderSdc) {
  auto an = make_analyzer(GetParam());

  const auto constrained = [] {
    auto b = std::make_unique<Bench>(circuits::make_cla_adder(4));
    sta::TimingConstraints c;
    c.clock_period_ps = 400.0;
    c.input_arrival_ps.assign(b->nl.node_count(), 0.0);
    const auto& inputs = b->nl.inputs();
    for (std::size_t i = 0; i < inputs.size(); i += 2) {
      c.input_arrival_ps[inputs[i]] = 25.0 + 10.0 * static_cast<double>(i);
    }
    b->ctx->set_constraints(std::move(c));
    return b;
  };

  const auto b = constrained();
  (void)an->analyze(*b->ctx);
  const auto cands = some_candidates(*b->ctx, 1);
  ASSERT_FALSE(cands.empty());

  auto spec = an->propose(cands[0].gate, cands[0].size);
  const Summary scored = spec->score();
  spec->commit();
  const Summary committed = an->current();

  const auto twin = constrained();
  twin->nl.gate(cands[0].gate).size_index = cands[0].size;
  twin->ctx->update();
  auto fresh = make_analyzer(GetParam());
  const Summary& reference = fresh->analyze(*twin->ctx);

  expect_summaries_equal(committed, reference);
  EXPECT_EQ(fingerprint(*b->ctx), fingerprint(*twin->ctx));
  EXPECT_EQ(scored.mean_ps, reference.mean_ps);
  EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
}

TEST_P(AnalyzerConformance, CommitInvalidatesSiblingSpeculations) {
  auto an = make_analyzer(GetParam());

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 2);
  ASSERT_GE(cands.size(), 2u);

  auto first = an->propose(cands[0].gate, cands[0].size);
  auto second = an->propose(cands[1].gate, cands[1].size);
  auto third = an->propose(cands[1].gate, cands[1].size);
  const Summary second_scored = second->score();  // cached pre-invalidation
  first->commit();
  EXPECT_NO_THROW(first->commit());  // committing twice is a uniform no-op
  EXPECT_EQ(second->score().mean_ps, second_scored.mean_ps);  // cache readable
  EXPECT_THROW((void)third->score(), std::logic_error);       // stale base
  EXPECT_THROW(third->commit(), std::logic_error);
  third->rollback();  // rollback of an invalidated speculation is a no-op
}

TEST_P(AnalyzerConformance, ProposeValidatesArguments) {
  auto an = make_analyzer(GetParam());

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 1);
  ASSERT_FALSE(cands.empty());
  const GateId g = cands[0].gate;
  const auto& group = b.lib.group(b.nl.gate(g).cell_group);

  EXPECT_THROW((void)an->propose(g, static_cast<std::uint16_t>(group.size_count())),
               std::invalid_argument);
  EXPECT_THROW((void)an->propose_resizes({}), std::invalid_argument);
  const Resize dup[] = {{g, 0}, {g, 1}};
  EXPECT_THROW((void)an->propose_resizes(dup), std::invalid_argument);
  // Unmapped node (a primary input).
  ASSERT_FALSE(b.nl.inputs().empty());
  EXPECT_THROW((void)an->propose(b.nl.inputs()[0], 0), std::invalid_argument);
}

// Every speculation scores privately, so a score() under a cancelled token
// — which a cone replay, having no checkpoint, completes — leaves the
// netlist, the snapshot and the base exactly as they were, and a commit()
// under the same context either completes or changes nothing.
TEST_P(AnalyzerConformance, CancelledScoreChangesNothing) {
  auto an = make_analyzer(GetParam());

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const Summary before_summary = an->current();
  const Fingerprint before = fingerprint(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 1);
  ASSERT_FALSE(cands.empty());

  util::ExecContext exec;
  exec.cancel.cancel();
  auto spec = an->propose(cands[0].gate, cands[0].size);
  {
    const util::ScopedExecContext scope(exec);
    try {
      (void)spec->score();
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    }
  }
  EXPECT_EQ(fingerprint(*b.ctx), before) << "an aborted score leaked state";
  expect_summaries_equal(an->current(), before_summary);

  bool committed = false;
  {
    const util::ScopedExecContext scope(exec);
    try {
      spec->commit();
      committed = true;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    }
  }
  if (!committed) {
    EXPECT_EQ(fingerprint(*b.ctx), before) << "an aborted commit leaked state";
    expect_summaries_equal(an->current(), before_summary);
    return;
  }
  Bench twin(circuits::make_cla_adder(4));
  twin.nl.gate(cands[0].gate).size_index = cands[0].size;
  twin.ctx->update();
  auto fresh = make_analyzer(GetParam());
  expect_summaries_equal(an->current(), fresh->analyze(*twin.ctx));
  EXPECT_EQ(fingerprint(*b.ctx), fingerprint(*twin.ctx));
}

TEST_P(AnalyzerConformance, CommitWithoutScoreEqualsFromScratchAnalysis) {
  auto an = make_analyzer(GetParam());

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 3);
  ASSERT_FALSE(cands.empty());
  for (const Candidate& c : cands) an->propose(c.gate, c.size)->commit();

  Bench twin(circuits::make_cla_adder(4));
  for (const Candidate& c : cands) twin.nl.gate(c.gate).size_index = c.size;
  twin.ctx->update();
  auto fresh = make_analyzer(GetParam());
  expect_summaries_equal(an->current(), fresh->analyze(*twin.ctx));
  EXPECT_EQ(fingerprint(*b.ctx), fingerprint(*twin.ctx));
}

// Single- and multi-resize speculations from one base, scored concurrently on
// the pool, equal the serial scores bitwise for every engine.
TEST_P(AnalyzerConformance, ConcurrentScoringIsThreadCountInvariant) {
  auto an = make_analyzer(GetParam());

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 8);
  ASSERT_GE(cands.size(), 2u);
  std::vector<std::vector<Resize>> batches;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Candidate& next = cands[(i + 1) % cands.size()];
    batches.push_back({Resize{cands[i].gate, cands[i].size}});
    batches.push_back({Resize{cands[i].gate, cands[i].size}, Resize{next.gate, next.size}});
  }
  const auto score_all = [&](std::size_t threads) {
    std::vector<std::unique_ptr<Speculation>> specs(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) specs[i] = an->propose_resizes(batches[i]);
    std::vector<double> means(batches.size());
    std::vector<double> sigmas(batches.size());
    util::parallel_for(batches.size(), 1, threads,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) {
                           const Summary& s = specs[i]->score();
                           means[i] = s.mean_ps;
                           sigmas[i] = s.sigma_ps;
                         }
                       });
    return std::pair(means, sigmas);
  };

  const Fingerprint before = fingerprint(*b.ctx);
  const auto reference = score_all(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = score_all(threads);
    EXPECT_EQ(parallel.first, reference.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second, reference.second) << "threads=" << threads;
  }
  EXPECT_EQ(fingerprint(*b.ctx), before);
}

INSTANTIATE_TEST_SUITE_P(Registry, AnalyzerConformance,
                         ::testing::ValuesIn(analyzer_names()),
                         [](const auto& info) { return info.param; });

TEST(AnalyzerRegistry, KnowsTheBuiltins) {
  const auto names = analyzer_names();
  EXPECT_EQ(names, (std::vector<std::string>{"dsta", "fassta", "fullssta"}));
  EXPECT_THROW((void)make_analyzer("no-such-engine"), std::invalid_argument);
  // canonical SSTA, Monte Carlo and ISLE have no what-if: not registry engines.
  for (const char* removed : {"canonical", "mc", "isle"}) {
    EXPECT_THROW((void)make_analyzer(removed), std::invalid_argument) << removed;
  }
}

// ---------------------------------------------------------------------------
// FULLSSTA what-if vs full re-run: the bitwise-equivalence the parallel
// rescue confirmations rest on, exercised on the two circuits from
// sizer_parallel_test (a reconvergent carry chain and a balanced fabric).
// ---------------------------------------------------------------------------

class FullSstaWhatIf : public ::testing::TestWithParam<int> {
 protected:
  static Netlist circuit() {
    return GetParam() == 0 ? circuits::make_cla_adder(8) : parity_fabric(16);
  }
};

TEST_P(FullSstaWhatIf, ScoreMatchesFromScratchRerunBitwise) {
  Bench b(circuit());
  auto an = make_analyzer("fullssta");
  (void)an->analyze(*b.ctx);

  for (const Candidate& c : some_candidates(*b.ctx, 24)) {
    auto spec = an->propose(c.gate, c.size);
    const Summary& scored = spec->score();

    // From-scratch reference: mutate, rebuild the snapshot, run the engine,
    // restore. (update() is a pure function of the sizes, so the restore
    // leaves the bench bitwise-identical for the next candidate.)
    const std::uint16_t keep = b.nl.gate(c.gate).size_index;
    b.nl.gate(c.gate).size_index = c.size;
    b.ctx->update();
    const ssta::FullSstaResult reference = ssta::run_fullssta(*b.ctx);
    b.nl.gate(c.gate).size_index = keep;
    b.ctx->update();

    EXPECT_EQ(scored.mean_ps, reference.mean_ps) << "gate " << c.gate;
    EXPECT_EQ(scored.sigma_ps, reference.sigma_ps) << "gate " << c.gate;
    spec->rollback();
  }
}

TEST_P(FullSstaWhatIf, MultiResizeScoreMatchesFromScratchRerunBitwise) {
  Bench b(circuit());
  auto an = make_analyzer("fullssta");
  (void)an->analyze(*b.ctx);

  const auto cands = some_candidates(*b.ctx, 6);
  ASSERT_GE(cands.size(), 2u);
  std::vector<Resize> resizes;
  for (const Candidate& c : cands) resizes.push_back(Resize{c.gate, c.size});

  auto spec = an->propose_resizes(resizes);
  const Summary& scored = spec->score();

  const auto keep = b.nl.sizes();
  for (const Resize& r : resizes) b.nl.gate(r.gate).size_index = r.size;
  b.ctx->update();
  const ssta::FullSstaResult reference = ssta::run_fullssta(*b.ctx);
  b.nl.set_sizes(keep);
  b.ctx->update();

  EXPECT_EQ(scored.mean_ps, reference.mean_ps);
  EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
}

TEST_P(FullSstaWhatIf, CommittedOverlayEqualsFromScratchRun) {
  Bench b(circuit());
  auto an = make_analyzer("fullssta");
  (void)an->analyze(*b.ctx);

  // Commit a chain of speculations (the rescue pattern: serial commits in
  // gain order), then compare the merged base against a from-scratch run.
  const auto cands = some_candidates(*b.ctx, 4);
  for (const Candidate& c : cands) {
    auto spec = an->propose(c.gate, c.size);
    (void)spec->score();
    spec->commit();
  }
  const Summary& merged = an->current();

  ssta::FullSstaOptions opt;
  opt.keep_node_pdfs = true;
  const ssta::FullSstaResult reference = ssta::run_fullssta(*b.ctx, opt);
  EXPECT_EQ(merged.mean_ps, reference.mean_ps);
  EXPECT_EQ(merged.sigma_ps, reference.sigma_ps);
  ASSERT_EQ(merged.node.size(), reference.node.size());
  for (std::size_t i = 0; i < merged.node.size(); ++i) {
    EXPECT_EQ(merged.node[i].mean_ps, reference.node[i].mean_ps) << "node " << i;
    EXPECT_EQ(merged.node[i].sigma_ps, reference.node[i].sigma_ps) << "node " << i;
  }
  EXPECT_EQ(merged.output_pdf.masses(), reference.output_pdf.masses());
  EXPECT_EQ(merged.output_pdf.origin(), reference.output_pdf.origin());
  EXPECT_EQ(merged.output_pdf.step(), reference.output_pdf.step());
}

TEST_P(FullSstaWhatIf, ConcurrentScoringIsThreadCountInvariant) {
  Bench b(circuit());
  auto an = make_analyzer("fullssta");
  (void)an->analyze(*b.ctx);

  const auto cands = some_candidates(*b.ctx, 32);
  const auto score_all = [&](std::size_t threads) {
    std::vector<std::unique_ptr<Speculation>> specs(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      specs[i] = an->propose(cands[i].gate, cands[i].size);
    }
    std::vector<double> means(cands.size());
    std::vector<double> sigmas(cands.size());
    util::parallel_for(cands.size(), 1, threads,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) {
                           const Summary& s = specs[i]->score();
                           means[i] = s.mean_ps;
                           sigmas[i] = s.sigma_ps;
                         }
                       });
    return std::pair(means, sigmas);
  };

  const auto reference = score_all(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = score_all(threads);
    EXPECT_EQ(parallel.first, reference.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second, reference.second) << "threads=" << threads;
  }
}

/// A from-scratch analysis of @p b with @p resizes applied (FULLSSTA unless
/// @p engine says otherwise); the bench's sizes and snapshot are restored
/// afterwards.
Summary scratch_summary(Bench& b, std::span<const Resize> resizes,
                        const std::string& engine = "fullssta") {
  const auto keep = b.nl.sizes();
  for (const Resize& r : resizes) b.nl.gate(r.gate).size_index = r.size;
  b.ctx->update();
  Summary s = make_analyzer(engine)->analyze(*b.ctx);
  b.nl.set_sizes(keep);
  b.ctx->update();
  return s;
}

// The analyzer reuses an arc's saved delay pdf only when the cone arc's
// (delay, sigma) is bitwise the pair the pdf was built from. recover_area's
// chunk verification proposes against a context that has run ahead of the
// analyzer's base: the netlist and the snapshot already hold the batch.
TEST_P(FullSstaWhatIf, ReusedDelayPdfsStayExactWhenTheContextRunsAhead) {
  Bench b(circuit());
  auto an = make_analyzer("fullssta");
  (void)an->analyze(*b.ctx);

  const auto cands = some_candidates(*b.ctx, 6);
  ASSERT_GE(cands.size(), 2u);
  std::vector<Resize> batch;
  for (const Candidate& c : cands) {
    b.nl.gate(c.gate).size_index = c.size;
    batch.push_back(Resize{c.gate, c.size});
  }
  b.ctx->update();  // the context runs ahead; the analyzer keeps its old base
  const Summary reference = scratch_summary(b, {});

  auto spec = an->propose_resizes(batch);
  const Summary& scored = spec->score();
  EXPECT_EQ(scored.mean_ps, reference.mean_ps);
  EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
  spec->commit();
  expect_summaries_equal(an->current(), reference);

  // A later what-if, from the committed base, on a gate outside the batch.
  const Candidate next = some_candidates(*b.ctx, cands.size() + 1).back();
  const Resize r{next.gate, next.size};
  const Summary later = an->propose(r.gate, r.size)->score();
  const Summary later_reference = scratch_summary(b, std::span<const Resize>(&r, 1));
  EXPECT_EQ(later.mean_ps, later_reference.mean_ps);
  EXPECT_EQ(later.sigma_ps, later_reference.sigma_ps);
}

// Each commit refreshes the saved delay pdfs of the arcs its cone changed.
// What-ifs after a chain of commits — including one that undoes the first,
// so its arcs return to pairs the store held before the chain — must equal
// from-scratch runs.
TEST_P(FullSstaWhatIf, WhatIfAfterACommitChainMatchesFromScratch) {
  Bench b(circuit());
  auto an = make_analyzer("fullssta");
  (void)an->analyze(*b.ctx);

  const auto chain = some_candidates(*b.ctx, 4);
  ASSERT_FALSE(chain.empty());
  const std::uint16_t first_size = b.nl.gate(chain[0].gate).size_index;
  for (const Candidate& c : chain) an->propose(c.gate, c.size)->commit();

  std::vector<Resize> later;
  for (const Candidate& c : some_candidates(*b.ctx, 12)) later.push_back(Resize{c.gate, c.size});
  later.push_back(Resize{chain[0].gate, first_size});
  for (const Resize& r : later) {
    const Summary scored = an->propose(r.gate, r.size)->score();
    const Summary reference = scratch_summary(b, std::span<const Resize>(&r, 1));
    EXPECT_EQ(scored.mean_ps, reference.mean_ps) << "gate " << r.gate;
    EXPECT_EQ(scored.sigma_ps, reference.sigma_ps) << "gate " << r.gate;
  }
}

// The cone walk runs a slot once its in-cone fanins are done, on the
// analyzer's workers: a score and a committed base stay bitwise a
// from-scratch run at every worker count, the serial walk's included.
TEST_P(FullSstaWhatIf, ConeWalkMatchesFromScratchAtEveryWorkerCount) {
  Bench b(circuit());
  const auto cands = some_candidates(*b.ctx, 6);
  ASSERT_GE(cands.size(), 2u);
  std::vector<Resize> batch;
  for (const Candidate& c : cands) batch.push_back(Resize{c.gate, c.size});
  const Summary single = scratch_summary(b, std::span<const Resize>(batch.data(), 1));
  const Summary multi = scratch_summary(b, batch);
  const auto keep = b.nl.sizes();

  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AnalyzerOptions options;
    options.threads = workers;
    auto an = make_analyzer("fullssta", options);
    (void)an->analyze(*b.ctx);
    const Summary one = an->propose(batch[0].gate, batch[0].size)->score();
    EXPECT_EQ(one.mean_ps, single.mean_ps);
    EXPECT_EQ(one.sigma_ps, single.sigma_ps);
    auto spec = an->propose_resizes(batch);
    EXPECT_EQ(spec->score().mean_ps, multi.mean_ps);
    EXPECT_EQ(spec->score().sigma_ps, multi.sigma_ps);
    spec->commit();
    expect_summaries_equal(an->current(), multi);
    b.nl.set_sizes(keep);
    b.ctx->update();
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, FullSstaWhatIf, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("cla_adder")
                                                  : std::string("parity_fabric");
                         });

// c6288's input-side gates fan out through the multiplier's array: a cone
// of more than a thousand slots and the walk's longest dependency chains.
TEST(FullSstaConeWalk, C6288InputSideGateMatchesFromScratchAtEveryWorkerCount) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c6288").ok());
  sta::TimingContext& ctx = flow.timing();
  auto& nl = ctx.mutable_netlist();
  sta::ConeWorkspace ws;
  Resize move;
  std::size_t cone = 0;
  for (GateId g = 0; g < nl.node_count() && move.gate == netlist::kNoGate; ++g) {
    if (!ctx.has_cell(g)) continue;
    const std::size_t sizes = flow.library().group(nl.gate(g).cell_group).size_count();
    cone = sta::collect_cone(ctx, std::span<const GateId>(&g, 1), ws).size();
    if (sizes > 1 && cone > 1000) {
      move = Resize{g, static_cast<std::uint16_t>((nl.gate(g).size_index + 1) % sizes)};
    }
  }
  ASSERT_NE(move.gate, netlist::kNoGate);
  const auto keep = nl.sizes();
  nl.gate(move.gate).size_index = move.size;
  ctx.update();
  const Summary reference = make_analyzer("fullssta")->analyze(ctx);
  nl.set_sizes(keep);
  ctx.update();

  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers) + ", cone=" + std::to_string(cone));
    AnalyzerOptions options;
    options.threads = workers;
    auto an = make_analyzer("fullssta", options);
    (void)an->analyze(ctx);
    auto spec = an->propose(move.gate, move.size);
    EXPECT_EQ(spec->score().mean_ps, reference.mean_ps);
    EXPECT_EQ(spec->score().sigma_ps, reference.sigma_ps);
    spec->commit();
    expect_summaries_equal(an->current(), reference);
    nl.set_sizes(keep);
    ctx.update();
  }
}

// ---------------------------------------------------------------------------
// The change front. A what-if re-relaxes exactly the resized gates, their
// mapped drivers and the mapped nodes with a fanin whose slew moved; the
// rest of its cone is read from the context, and its commit writes the
// front alone. On every engine the committed context must still equal a
// twin's update() bitwise, and the re-relaxed count must be that front,
// computed here from the twin's slews.
// ---------------------------------------------------------------------------

/// The change front of @p resizes proposed on @p before, where @p after is
/// a context of the same netlist with the resizes applied and update()d.
std::size_t expected_front(const sta::TimingContext& before, const sta::TimingContext& after,
                           std::span<const Resize> resizes) {
  const auto& nl = before.netlist();
  std::size_t front = 0;
  for (GateId id = 0; id < nl.node_count(); ++id) {
    if (!before.has_cell(id)) continue;
    bool member = false;
    for (const Resize& r : resizes) {
      const auto& fanins = nl.gate(r.gate).fanins;
      member = member || r.gate == id || std::find(fanins.begin(), fanins.end(), id) != fanins.end();
    }
    for (const GateId f : nl.gate(id).fanins) {
      member = member || std::bit_cast<std::uint64_t>(before.slew_ps(f)) !=
                             std::bit_cast<std::uint64_t>(after.slew_ps(f));
    }
    front += member ? 1 : 0;
  }
  return front;
}

/// Proposes @p resizes on @p an (analyzed on @p ctx), applies them to
/// @p twin (a context of an identical netlist in the same state) with
/// update(), checks the score's replay counts against the twin's front,
/// commits, and checks @p ctx against the twin bitwise.
void commit_and_compare(Analyzer& an, sta::TimingContext& ctx, sta::TimingContext& twin,
                        std::span<const Resize> resizes) {
  auto spec = an.propose_resizes(resizes);
  EXPECT_EQ(spec->replayed().cone_slots, 0u);  // nothing replayed before the score
  (void)spec->score();
  for (const Resize& r : resizes) twin.mutable_netlist().gate(r.gate).size_index = r.size;
  twin.update();
  const ReplayCounts replayed = spec->replayed();
  EXPECT_EQ(replayed.front_slots, expected_front(ctx, twin, resizes));
  EXPECT_GE(replayed.front_slots, 1u);
  EXPECT_LE(replayed.front_slots, replayed.cone_slots);
  spec->commit();
  EXPECT_TRUE(fingerprint(ctx) == fingerprint(twin)) << "committed snapshot differs from update()";
}

class WhatIfFront : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  static Netlist circuit() {
    const std::string& name = std::get<0>(GetParam());
    if (name == "cla8") return circuits::make_cla_adder(8);
    if (name == "parity16") return parity_fabric(16);
    return circuits::make_table1_circuit(name);
  }
  static std::string engine() { return std::get<1>(GetParam()); }
};

// A chain of single commits and then one multi-resize commit, each against
// the base the previous commit left.
TEST_P(WhatIfFront, CommitsEqualUpdateAndReplayOnlyTheFront) {
  Bench b(circuit());
  Bench twin(circuit());
  auto an = make_analyzer(engine());
  (void)an->analyze(*b.ctx);
  const std::vector<Candidate> cands = some_candidates(*b.ctx, 16);
  ASSERT_GE(cands.size(), 8u);
  for (std::size_t i = 0; i < 12 && i < cands.size(); ++i) {
    SCOPED_TRACE("gate " + std::to_string(cands[i].gate));
    const Resize r{cands[i].gate, cands[i].size};
    commit_and_compare(*an, *b.ctx, *twin.ctx, std::span<const Resize>(&r, 1));
  }
  std::vector<Resize> batch;
  for (std::size_t i = 12; i < cands.size(); ++i) batch.push_back({cands[i].gate, cands[i].size});
  if (!batch.empty()) commit_and_compare(*an, *b.ctx, *twin.ctx, batch);
  expect_summaries_equal(an->current(), make_analyzer(engine())->analyze(*twin.ctx));
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, WhatIfFront,
    ::testing::Combine(::testing::Values("cla8", "parity16", "c432"),
                       ::testing::Values("dsta", "fassta", "fullssta")),
    [](const auto& info) { return std::get<0>(info.param) + "_" + std::get<1>(info.param); });

// A c6288 input-side gate: a cone of more than a thousand slots whose front
// is a small share of it.
TEST(WhatIfFrontC6288, InputSideGateOnEveryEngine) {
  core::Flow flow;
  core::Flow twin;
  ASSERT_TRUE(flow.load_table1("c6288").ok());
  ASSERT_TRUE(twin.load_table1("c6288").ok());
  sta::TimingContext& ctx = flow.timing();
  const auto& nl = ctx.netlist();
  sta::ConeWorkspace ws;
  Resize move;
  for (GateId g = 0; g < nl.node_count() && move.gate == netlist::kNoGate; ++g) {
    if (!ctx.has_cell(g)) continue;
    const std::size_t sizes = flow.library().group(nl.gate(g).cell_group).size_count();
    if (sizes > 1 && sta::collect_cone(ctx, std::span<const GateId>(&g, 1), ws).size() > 1000) {
      move = Resize{g, static_cast<std::uint16_t>((nl.gate(g).size_index + 1) % sizes)};
    }
  }
  ASSERT_NE(move.gate, netlist::kNoGate);
  const auto keep = nl.sizes();
  for (const std::string engine : {"dsta", "fassta", "fullssta"}) {
    SCOPED_TRACE(engine);
    auto an = make_analyzer(engine);
    (void)an->analyze(ctx);
    commit_and_compare(*an, ctx, twin.timing(), std::span<const Resize>(&move, 1));
    flow.timing().mutable_netlist().set_sizes(keep);
    ctx.update();
    twin.timing().mutable_netlist().set_sizes(keep);
    twin.timing().update();
  }
}

// ---------------------------------------------------------------------------
// opt::confirm: the optimizer's one confirmation walk, over the three cone
// engines, one candidate at a time. The parameter's thread count is the
// analyzer's (AnalyzerOptions::threads): the workers of fullssta's cone
// walk; the dsta and fassta what-ifs are serial at any count. The suite
// keeps the name of the walk's policy: the first approved candidate wins.
// ---------------------------------------------------------------------------

class FirstAccepted : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
 protected:
  static std::string engine() { return std::get<0>(GetParam()); }
  static std::size_t threads() { return std::get<1>(GetParam()); }
  static std::unique_ptr<Analyzer> analyzer() {
    AnalyzerOptions options;
    options.threads = threads();
    return make_analyzer(engine(), options);
  }
};

// The hook sees the first approved candidate before its commit: nothing has
// moved until it calls commit().
TEST_P(FirstAccepted, ReturnsTheFirstApprovedCandidateUncommitted) {
  Bench b(circuits::make_cla_adder(8));
  auto an = analyzer();
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 20);
  ASSERT_EQ(cands.size(), 20u);
  const std::size_t k = 13;  // deep in the list, after skipped candidates
  const auto skipped = [](std::size_t i) { return i % 5 == 2; };  // never k
  const Summary base = an->current();
  const std::vector<std::uint16_t> sizes = b.nl.sizes();

  std::vector<std::size_t> judged;
  std::size_t hit = cands.size();
  const opt::Confirmed walk = opt::confirm(
      cands.size(),
      [&](std::size_t i) -> std::unique_ptr<Speculation> {
        if (skipped(i)) return nullptr;
        return an->propose(cands[i].gate, cands[i].size);
      },
      [&](std::size_t i, const Summary& s) {
        EXPECT_GT(s.mean_ps, 0.0);
        judged.push_back(i);
        return i == k;
      },
      [&](std::size_t i, const std::function<void()>& commit) {
        hit = i;
        EXPECT_EQ(b.nl.sizes(), sizes);
        expect_summaries_equal(an->current(), base);
        commit();
        EXPECT_EQ(b.nl.gate(cands[k].gate).size_index, cands[k].size);
        return opt::kStopWalk;
      });

  EXPECT_EQ(hit, k);
  EXPECT_EQ(walk.committed, 1u);
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i <= k; ++i) {
    if (!skipped(i)) expected.push_back(i);
  }
  EXPECT_EQ(judged, expected);  // once each, ascending, none skipped, none past k
  EXPECT_EQ(walk.judged, expected.size());
}

// No approval: every candidate is judged once and nothing is committed.
TEST_P(FirstAccepted, NoApprovalReturnsCountAndNull) {
  Bench b(circuits::make_cla_adder(8));
  auto an = analyzer();
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 11);
  const std::vector<std::uint16_t> sizes = b.nl.sizes();

  std::size_t judged = 0;
  const opt::Confirmed walk = opt::confirm(
      cands.size(),
      [&](std::size_t i) { return an->propose(cands[i].gate, cands[i].size); },
      [&](std::size_t, const Summary&) {
        ++judged;
        return false;
      },
      [](std::size_t, const std::function<void()>&) -> std::size_t {
        ADD_FAILURE() << "nothing was approved";
        return opt::kStopWalk;
      });
  EXPECT_EQ(walk.judged, cands.size());
  EXPECT_EQ(walk.committed, 0u);
  EXPECT_EQ(judged, cands.size());
  EXPECT_EQ(b.nl.sizes(), sizes);
}

// A hook that resumes at the accepted index re-proposes that candidate, and
// the walk judges it against the base the commit left: bitwise a
// from-scratch analysis of the committed netlist with the new move applied.
TEST_P(FirstAccepted, ResumingAtTheAcceptedIndexJudgesAgainstTheNewBase) {
  Bench b(circuits::make_cla_adder(8));
  auto an = analyzer();
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 20);
  ASSERT_EQ(cands.size(), 20u);
  const std::size_t k = 13;
  const GateId g = cands[k].gate;
  const std::uint16_t first_size = b.nl.gate(g).size_index;
  const std::size_t size_count = b.lib.group(b.nl.gate(g).cell_group).size_count();
  ASSERT_GE(size_count, 3u);
  const auto next_move = [&] {
    return Resize{g, static_cast<std::uint16_t>((b.nl.gate(g).size_index + 1) % size_count)};
  };

  std::vector<std::size_t> judged;
  std::size_t commits = 0;
  Summary reference;
  const opt::Confirmed walk = opt::confirm(
      cands.size(),
      [&](std::size_t i) {
        const Resize r = i == k ? next_move() : Resize{cands[i].gate, cands[i].size};
        return an->propose(r.gate, r.size);
      },
      [&](std::size_t i, const Summary& s) {
        judged.push_back(i);
        if (i == k && commits == 1) {
          EXPECT_EQ(s.mean_ps, reference.mean_ps);
          EXPECT_EQ(s.sigma_ps, reference.sigma_ps);
        }
        return i == k;
      },
      [&](std::size_t i, const std::function<void()>& commit) {
        commit();
        if (++commits == 2) return opt::kStopWalk;
        const Resize r = next_move();
        reference = scratch_summary(b, std::span<const Resize>(&r, 1), engine());
        return i;
      });

  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i <= k; ++i) expected.push_back(i);
  expected.push_back(k);  // the re-proposed candidate, judged once more
  EXPECT_EQ(judged, expected);
  EXPECT_EQ(walk.judged, expected.size());
  EXPECT_EQ(walk.committed, 2u);
  EXPECT_EQ(b.nl.gate(g).size_index, (first_size + 2) % size_count);
}

INSTANTIATE_TEST_SUITE_P(Engines, FirstAccepted,
                         ::testing::Combine(::testing::Values("dsta", "fassta", "fullssta"),
                                            ::testing::Values(1u, 2u, 3u, 8u)),
                         [](const auto& info) {
                           return std::get<0>(info.param) + "_threads" +
                                  std::to_string(std::get<1>(info.param));
                         });

// Inside a pool worker (a serving job, a batch flow) an 8-worker cone walk
// runs inline, and the walk proposes one candidate at a time: a walk that
// accepts its first candidate proposes only that one, and scores it as the
// serial walk does.
TEST(FirstAcceptedInWorker, ProposesOneCandidateAtATime) {
  Bench b(circuits::make_cla_adder(8));
  AnalyzerOptions options;
  options.threads = 8;
  auto an = make_analyzer("fullssta", options);
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 20);
  ASSERT_EQ(cands.size(), 20u);
  const Resize first{cands[0].gate, cands[0].size};
  const Summary reference = scratch_summary(b, std::span<const Resize>(&first, 1));

  std::size_t proposed = 0;
  std::size_t index = cands.size();
  Summary judged;
  serve::JobManager manager;
  const serve::JobRef job = manager.submit([&] {
    (void)opt::confirm(
        cands.size(),
        [&](std::size_t i) {
          ++proposed;
          return an->propose(cands[i].gate, cands[i].size);
        },
        [&](std::size_t, const Summary& s) {
          judged = s;
          return true;
        },
        [&](std::size_t i, const std::function<void()>& commit) {
          index = i;
          commit();
          return opt::kStopWalk;
        });
  });
  ASSERT_TRUE(job->wait().ok()) << job->wait().message();
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(proposed, 1u);
  EXPECT_EQ(judged.mean_ps, reference.mean_ps);
  EXPECT_EQ(judged.sigma_ps, reference.sigma_ps);
}

// ---------------------------------------------------------------------------
// Engine selection plumbing: the sizer and the flow resolve confirm engines
// through timing::make_analyzer; candidates score on the FASSTA kernel only.
// ---------------------------------------------------------------------------

TEST(EngineSelection, SizerRunsWithAlternateEngines) {
  // FASSTA confirming FASSTA plans: a coherent (if approximate) setup that
  // exercises the non-default confirm path end to end.
  Bench b(circuits::make_ripple_adder(4));
  opt::StatisticalSizerOptions opt;
  opt.objective.lambda = 3.0;
  opt.confirm_engine = "fassta";
  opt.max_iterations = 3;
  const auto stats = opt::size_statistically(*b.ctx, opt);
  EXPECT_GT(stats.initial.mean_ps, 0.0);
  EXPECT_LE(stats.final_.mean_ps + 3.0 * stats.final_.sigma_ps,
            stats.initial.mean_ps + 3.0 * stats.initial.sigma_ps);
}

TEST(EngineSelection, SizerRejectsIncapableOrUnknownEngines) {
  Bench b(circuits::make_ripple_adder(4));
  opt::StatisticalSizerOptions opt;
  opt.max_iterations = 1;
  opt.confirm_engine = "no-such-engine";
  EXPECT_THROW((void)opt::size_statistically(*b.ctx, opt), std::invalid_argument);
  opt.confirm_engine = "mc";  // not a registry engine
  EXPECT_THROW((void)opt::size_statistically(*b.ctx, opt), std::invalid_argument);
  opt.confirm_engine = "fullssta";
  opt.score_engine = "dsta";  // candidates score on the fassta kernel only
  try {
    (void)opt::size_statistically(*b.ctx, opt);
    ADD_FAILURE() << "score_engine \"dsta\" was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("score_engine"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// ISLE degenerate-weights stress: the estimator must flag, not fabricate.
// ---------------------------------------------------------------------------

TEST(IsleDegeneracy, VanishingVariationTripsTheClampFlag) {
  // With zero proportional variation and zero floor every path sigma
  // vanishes: no finite mean shift exists and the proposal must mark itself
  // degenerate rather than divide by ~0.
  Netlist nl = circuits::make_cla_adder(4);
  const liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationParams vp;
  vp.proportional_coeff = 0.0;
  vp.random_floor_ps = 0.0;
  const variation::VariationModel var(vp);
  auto s = techmap::map_to_library(nl, lib);
  ASSERT_TRUE(s.ok());
  const sta::TimingContext ctx(nl, lib, var, sta::TimingOptions{});

  ssta::IsleOptions opt;
  opt.samples = 256;
  const ssta::IsleResult r = ssta::run_isle(ctx, opt);
  EXPECT_TRUE(r.shift_clamped);
  EXPECT_TRUE(r.degenerate);
}

TEST(IsleDegeneracy, ExtremeLambdaClampsTheShift) {
  // A constraint dozens of sigma out forces |beta| past kIsleMaxShift: the clamp
  // fires and the result is flagged degenerate even though sampling ran.
  Bench b(circuits::make_cla_adder(4));
  ssta::IsleOptions opt;
  opt.samples = 256;
  const ssta::IsleResult probe = ssta::run_isle(*b.ctx, opt);
  ASSERT_GT(probe.surrogate_sigma_ps, 0.0);

  opt.clock_period_ps = probe.surrogate_mean_ps + 50.0 * probe.surrogate_sigma_ps;
  const ssta::IsleResult r = ssta::run_isle(*b.ctx, opt);
  EXPECT_TRUE(r.shift_clamped);
  EXPECT_TRUE(r.degenerate);
  EXPECT_EQ(std::abs(r.shift_beta), ssta::kIsleMaxShift);
}

TEST(IsleDegeneracy, CollapsedEssTripsWithoutTheDefensiveComponent) {
  // defensive_fraction = 0 removes the weight bound: under a pure shifted
  // proposal at a deep shift, E_f[w] = exp(beta^2) makes the effective sample
  // size collapse to ~ N * exp(-beta^2) — the ESS trip-wire must catch it.
  Bench b(circuits::make_cla_adder(4));
  ssta::IsleOptions opt;
  opt.samples = 2048;
  opt.defensive_fraction = 0.0;
  opt.dominant_paths = 1;
  const ssta::IsleResult probe = ssta::run_isle(*b.ctx, opt);
  ASSERT_GT(probe.surrogate_sigma_ps, 0.0);

  opt.clock_period_ps = probe.surrogate_mean_ps + 4.0 * probe.surrogate_sigma_ps;
  const ssta::IsleResult r = ssta::run_isle(*b.ctx, opt);
  ASSERT_FALSE(r.shift_clamped);  // beta = 4 < kIsleMaxShift: a genuine ESS trip
  EXPECT_LT(r.ess, double(r.draws) * ssta::kIsleMinEssFraction);
  EXPECT_TRUE(r.degenerate);
}

TEST(EngineSelection, FlowMakeAnalyzerUsesFlowOptions) {
  core::FlowOptions options;
  options.fullssta.samples_per_pdf = 9;
  core::Flow flow(options);
  ASSERT_TRUE(flow.load_table1("alu1").ok());
  auto an = flow.make_analyzer();  // default fullssta
  const Summary& s = an->analyze(flow.timing());
  EXPECT_EQ(s.output_pdf.size(), 9u);  // the flow's pdf resolution carried over
  EXPECT_THROW((void)flow.make_analyzer("no-such-engine"), std::invalid_argument);
}

}  // namespace
}  // namespace statsizer::timing
