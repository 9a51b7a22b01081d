// Heap contracts of the hot paths, measured by counting global operator new
// calls (this executable replaces new and new[], so the count covers every
// allocation made through them and the standard containers).
//
//  * pdf primitives on grids of at most MassBuffer::kInline samples — the
//    paper's 10-15 and every engine default — never allocate.
//  * An exact FULLSSTA what-if allocates its whole overlay when proposed,
//    on the proposing thread. Scoring it — on that thread or on a pool
//    worker — allocates nothing once the scoring thread has served a cone
//    that large (its reused cone workspace and replay temporaries), so a
//    worker costs only the speculation it is scoring. A commit refreshing
//    the analyzer's saved arc delay pdfs leaves that contract intact, and
//    the pool workers of a multi-worker cone walk allocate nothing: the
//    walk's done flags are sized when the speculation is proposed.
//  * FASSTA candidate scoring (fassta::Engine::run_with_candidate, and the
//    lane walk over every size of a gate, run_with_candidates) with a reused
//    Scratch allocates nothing once the scoring thread has served a cone
//    that large, even after an exact what-if scored on the same thread
//    re-stamped the cone workspace both share.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/flow.h"
#include "fassta/engine.h"
#include "pdf/discrete_pdf.h"
#include "timing/analyzer.h"
#include "util/thread_pool.h"

namespace {
thread_local std::size_t tls_news = 0;  // operator new calls on this thread
std::atomic<std::size_t> pool_worker_news{0};  // ... on any thread-pool worker
}  // namespace

// Both forms are replaced: sanitizer runtimes serve new[] without calling
// operator new.
void* operator new(std::size_t size) {
  ++tls_news;
  if (statsizer::util::ThreadPool::in_worker()) {
    pool_worker_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace statsizer {
namespace {

using pdf::DiscretePdf;

/// operator new calls made on the calling thread by @p fn.
template <typename Fn>
std::size_t news_during(Fn&& fn) {
  const std::size_t before = tls_news;
  fn();
  return tls_news - before;
}

TEST(PdfAllocation, InlineGridPrimitivesNeverAllocate) {
  static_assert(pdf::MassBuffer::kInline >= 16);
  for (const std::size_t samples : {2u, 13u, 16u}) {
    SCOPED_TRACE("samples=" + std::to_string(samples));
    double sink = 0.0;
    const std::size_t news = news_during([&] {
      const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, samples);
      const DiscretePdf b = DiscretePdf::normal(90.0, 12.0, samples);
      const DiscretePdf s = pdf::sum(a, b, samples);
      const DiscretePdf m = pdf::max(a, b, samples);
      const DiscretePdf sh = s.shifted(5.0);
      const DiscretePdf coarse = m.resampled(samples > 2 ? samples - 1 : 2);
      const DiscretePdf fine = coarse.resampled(samples);
      DiscretePdf copy = fine;
      copy = sh;
      const DiscretePdf moved = std::move(copy);
      sink = moved.mean() + fine.variance() + DiscretePdf::point(1.0).mean();
    });
    EXPECT_EQ(news, 0u);
    EXPECT_GT(sink, 0.0);
  }
}

TEST(PdfAllocation, LargeGridsSpillToTheHeap) {
  // The counter sees allocations at all: a 21-sample grid has no inline room.
  const std::size_t news = news_during([] {
    const DiscretePdf p = DiscretePdf::normal(0.0, 1.0, 21);
    EXPECT_EQ(p.size(), 21u);
  });
  EXPECT_GT(news, 0u);
}

class WhatIfAllocation : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(flow_.load_table1("c432").ok());
    analyzer_ = flow_.make_analyzer("fullssta");
    (void)analyzer_->analyze(flow_.timing());
    // A gate near the inputs: a large fanout cone.
    const auto& nl = flow_.netlist();
    for (netlist::GateId g = 0; g < nl.node_count(); ++g) {
      if (flow_.timing().has_cell(g) && !nl.gate(g).fanouts.empty() &&
          flow_.library().group(nl.gate(g).cell_group).size_count() > 1) {
        gate_ = g;
        break;
      }
    }
    ASSERT_NE(gate_, netlist::kNoGate);
  }

  std::unique_ptr<timing::Speculation> propose() {
    const auto& group = flow_.library().group(flow_.netlist().gate(gate_).cell_group);
    const auto size = static_cast<std::uint16_t>(
        (flow_.netlist().gate(gate_).size_index + 1) % group.size_count());
    return analyzer_->propose(gate_, size);
  }

  core::Flow flow_;
  std::unique_ptr<timing::Analyzer> analyzer_;
  netlist::GateId gate_ = netlist::kNoGate;
};

TEST_F(WhatIfAllocation, ProposingAllocatesScoringOnTheProposerDoesNot) {
  (void)propose()->score();  // warms this thread's replay temporaries
  std::unique_ptr<timing::Speculation> spec;
  EXPECT_GT(news_during([&] { spec = propose(); }), 0u);
  EXPECT_EQ(news_during([&] { (void)spec->score(); }), 0u);
}

TEST_F(WhatIfAllocation, WorkerScoresWithoutAllocating) {
  util::ThreadPool pool(1);
  const auto score_on_worker = [&](timing::Speculation& spec) {
    std::size_t news = 0;
    pool.submit([&] { news = news_during([&] { (void)spec.score(); }); });
    pool.wait_idle();
    return news;
  };
  // The worker's first score sizes its cone workspace and temporaries.
  const auto first = propose();
  (void)score_on_worker(*first);
  // Every later score of a cone that size fills the proposer's overlay only.
  const auto second = propose();
  EXPECT_EQ(score_on_worker(*second), 0u);
  EXPECT_EQ(second->score().mean_ps, first->score().mean_ps);
  EXPECT_EQ(second->score().sigma_ps, first->score().sigma_ps);
}

TEST_F(WhatIfAllocation, WorkerScoreAfterACommitAllocatesNothing) {
  util::ThreadPool pool(1);
  const auto score_on_worker = [&](timing::Speculation& spec) {
    std::size_t news = 0;
    pool.submit([&] { news = news_during([&] { (void)spec.score(); }); });
    pool.wait_idle();
    return news;
  };
  const auto first = propose();
  (void)score_on_worker(*first);
  // The commit refreshes the analyzer's saved delay pdfs for the arcs its
  // cone changed; the next score, of the same cone, reuses or rebuilds them
  // in inline grids.
  first->commit();
  const auto next = propose();
  EXPECT_EQ(score_on_worker(*next), 0u);
}

/// The what-if fixture's design, analyzer and large-cone gate, scored by
/// the fast engine.
class FasstaAllocation : public WhatIfAllocation {};

TEST_F(FasstaAllocation, WorkerScoresCandidatesWithoutAllocating) {
  const fassta::Engine engine(flow_.timing());
  const netlist::Gate& gate = flow_.netlist().gate(gate_);
  const auto size = static_cast<std::uint16_t>(
      (gate.size_index + 1) % flow_.library().group(gate.cell_group).size_count());
  const liberty::Cell& cell = flow_.library().cell_for(gate.cell_group, size);
  util::ThreadPool pool(1);
  fassta::Engine::Scratch scratch;  // the worker's, reused across calls
  const auto score_on_worker = [&](sta::NodeMoments& out) {
    std::size_t news = 0;
    pool.submit([&] {
      news = news_during([&] { out = engine.run_with_candidate(gate_, cell, scratch); });
    });
    pool.wait_idle();
    return news;
  };
  // The first score sizes the scratch and the worker's cone workspace.
  sta::NodeMoments first;
  (void)score_on_worker(first);
  // An exact what-if scored on the worker re-stamps the workspace both share.
  const auto spec = propose();
  pool.submit([&] { (void)spec->score(); });
  pool.wait_idle();
  sta::NodeMoments again;
  EXPECT_EQ(score_on_worker(again), 0u);
  EXPECT_EQ(again.mean_ps, first.mean_ps);
  EXPECT_EQ(again.sigma_ps, first.sigma_ps);
}

TEST_F(FasstaAllocation, WorkerScoresLanesWithoutAllocating) {
  const fassta::Engine engine(flow_.timing());
  const netlist::Gate& gate = flow_.netlist().gate(gate_);
  std::vector<const liberty::Cell*> cells;
  for (std::uint16_t s = 0; s < flow_.library().group(gate.cell_group).size_count(); ++s) {
    if (s != gate.size_index) cells.push_back(&flow_.library().cell_for(gate.cell_group, s));
  }
  std::vector<sta::NodeMoments> lanes(cells.size());
  util::ThreadPool pool(1);
  fassta::Engine::Scratch scratch;  // the worker's, reused across calls
  const auto score_on_worker = [&] {
    std::size_t news = 0;
    pool.submit([&] {
      news = news_during([&] { engine.run_with_candidates(gate_, cells, lanes, scratch); });
    });
    pool.wait_idle();
    return news;
  };
  // The first walk sizes the scratch's lanes and the worker's cone workspace.
  (void)score_on_worker();
  const std::vector<sta::NodeMoments> first = lanes;
  // An exact what-if scored on the worker re-stamps the workspace both share.
  const auto spec = propose();
  pool.submit([&] { (void)spec->score(); });
  pool.wait_idle();
  EXPECT_EQ(score_on_worker(), 0u);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    EXPECT_EQ(lanes[k].mean_ps, first[k].mean_ps);
    EXPECT_EQ(lanes[k].sigma_ps, first[k].sigma_ps);
  }
}

/// The what-if fixture's design and large-cone gate, scored by analyzers
/// whose cone walk runs on the shared pool's workers.
class ConeWalkAllocation : public WhatIfAllocation {};

TEST_F(ConeWalkAllocation, PoolWorkersWalkingAConeAllocateNothing) {
  const timing::Summary serial = propose()->score();
  const auto& group = flow_.library().group(flow_.netlist().gate(gate_).cell_group);
  const auto size = static_cast<std::uint16_t>(
      (flow_.netlist().gate(gate_).size_index + 1) % group.size_count());
  for (const std::size_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    timing::AnalyzerOptions options;
    options.fullssta = flow_.options().fullssta;
    options.threads = workers;
    const auto walker = timing::make_analyzer("fullssta", options);
    (void)walker->analyze(flow_.timing());
    (void)walker->propose(gate_, size)->score();  // warms the scoring thread's temporaries
    const auto spec = walker->propose(gate_, size);
    const std::size_t before = pool_worker_news.load();
    const timing::Summary& scored = spec->score();
    EXPECT_EQ(pool_worker_news.load() - before, 0u);
    EXPECT_EQ(scored.mean_ps, serial.mean_ps);
    EXPECT_EQ(scored.sigma_ps, serial.sigma_ps);
  }
}

}  // namespace
}  // namespace statsizer
