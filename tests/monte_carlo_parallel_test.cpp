// Parallel Monte-Carlo SSTA: the sharded engine must be bitwise-identical to
// the serial one for any thread count (counter-keyed draws),
// and its moments must track analytic expectations on a max-free circuit.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "ssta/isle.h"
#include "ssta/monte_carlo.h"
#include "techmap/mapper.h"
#include "util/exec.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace statsizer::ssta {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n, variation::VariationParams vp = {}) : nl(std::move(n)), var(vp) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

Netlist inverter_chain(unsigned length) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  for (unsigned i = 0; i < length; ++i) prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
  nl.add_output("y", prev);
  return nl;
}

TEST(MonteCarloParallel, BitwiseIdenticalAcrossThreadCounts) {
  Bench b(circuits::make_cla_adder(8));
  MonteCarloOptions serial;
  serial.samples = 3000;
  serial.seed = 99;
  serial.threads = 1;
  serial.per_node_stats = true;
  const auto ref = run_monte_carlo(*b.ctx, serial);

  for (const std::size_t threads : {2u, 3u, 4u, 8u, 0u}) {
    MonteCarloOptions opt = serial;
    opt.threads = threads;
    const auto r = run_monte_carlo(*b.ctx, opt);
    EXPECT_EQ(r.circuit_samples, ref.circuit_samples) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.mean_ps, ref.mean_ps) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.sigma_ps, ref.sigma_ps) << "threads=" << threads;
    ASSERT_EQ(r.node.size(), ref.node.size());
    for (std::size_t i = 0; i < ref.node.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.node[i].mean_ps, ref.node[i].mean_ps) << "node " << i;
      EXPECT_DOUBLE_EQ(r.node[i].sigma_ps, ref.node[i].sigma_ps) << "node " << i;
    }
  }
}

/// FNV-1a over the bit patterns of @p xs.
std::uint64_t hash_bits(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : xs) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Golden bits of the engine on the counter-keyed draws: any restructuring of
// the loop, the chunk merge or the per-node fold must leave every output bit
// as it was. 3000 draws is not a multiple of the 64-draw chunk, so the short
// last chunk's fold is pinned too.
TEST(MonteCarloParallel, MatchesCapturedGoldenBits) {
  Bench b(circuits::make_cla_adder(8));
  MonteCarloOptions opt;
  opt.samples = 3000;
  opt.seed = 99;
  opt.per_node_stats = true;
  for (const std::size_t threads : {1u, 4u}) {
    opt.threads = threads;
    const auto r = run_monte_carlo(*b.ctx, opt);
    std::vector<double> moments;
    for (const auto& m : r.node) {
      moments.push_back(m.mean_ps);
      moments.push_back(m.sigma_ps);
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean_ps), 0x408cc51723a77c69ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.sigma_ps), 0x405e5c5ee7fbdee4ull);
    EXPECT_EQ(hash_bits(r.circuit_samples), 0x3cd74e27a5d366d4ull);
    EXPECT_EQ(r.node.size(), 101u);
    EXPECT_EQ(hash_bits(moments), 0x52905c82c6ec68f0ull);
  }
}

// A draw is a pure function of its keys: rebuilt here from the documented
// key layout alone, with the arcs' delays drawn in reverse dense order before
// one longest-path pass, every draw matches the engine's bit for bit.
TEST(KeyedDraws, MonteCarloDrawIsAPureFunctionOfItsKeys) {
  variation::VariationParams vp;
  vp.global_fraction = 0.5;
  Bench b(circuits::make_cla_adder(8), vp);
  const sta::TimingContext& ctx = *b.ctx;
  MonteCarloOptions opt;
  opt.samples = 200;
  opt.seed = 1234;
  opt.threads = 4;
  const auto r = run_monte_carlo(ctx, opt);

  const auto& nl = ctx.netlist();
  std::vector<double> delay(ctx.arc_count());
  std::vector<double> arrival(nl.node_count());
  for (std::size_t s = 0; s < opt.samples; ++s) {
    const std::uint64_t stream = util::stream_seed(opt.seed, s);
    const double zg = util::keyed_normal(stream, kGlobalNormalKey);
    for (GateId g = nl.node_count(); g-- > 0;) {
      for (std::size_t i = nl.gate(g).fanins.size(); i-- > 0;) {
        const std::size_t a = ctx.arc_offset(g) + i;
        delay[a] = b.var.delay_at_ps(ctx.arc_delay_ps(g, i), ctx.drive(g), zg,
                                     util::keyed_normal(stream, arc_normal_key(a, 0)),
                                     util::keyed_normal(stream, arc_normal_key(a, 1)));
      }
    }
    for (const GateId g : ctx.topo_order()) {
      double arr = ctx.launch_arrival_ps(g);
      for (std::size_t i = 0; i < nl.gate(g).fanins.size(); ++i) {
        arr = std::max(arr, arrival[nl.gate(g).fanins[i]] + delay[ctx.arc_offset(g) + i]);
      }
      arrival[g] = arr;
    }
    double circuit = 0.0;
    for (const auto& po : nl.outputs()) circuit = std::max(circuit, arrival[po.driver]);
    ASSERT_EQ(r.circuit_samples[s], circuit) << "draw " << s;
  }
}

// The "ssta/mc/chunk" checkpoint fires on the calling thread before every
// batch of draws, so its visits — and the hit at which a fault rule stops
// the run — are a function of the options alone, threaded or not.
TEST(MonteCarloParallel, CheckpointHitsAreThreadCountInvariant) {
  Bench b(circuits::make_cla_adder(8));
  MonteCarloOptions opt;
  opt.samples = 5000;
  util::FaultPlan plan;
  util::FaultRule rule;
  rule.site = "ssta/mc/chunk";
  plan.rules.push_back(rule);

  std::uint64_t clean_visits = 0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    opt.threads = threads;
    // A rule past the last visit never fires: the run completes and every
    // thread count visits the site equally often.
    plan.rules[0].hit = 1000;
    util::ExecContext clean;
    clean.faults = &plan;
    {
      const util::ScopedExecContext scope(clean);
      EXPECT_EQ(run_monte_carlo(*b.ctx, opt).circuit_samples.size(), opt.samples);
    }
    if (clean_visits == 0) clean_visits = clean.site_hits["ssta/mc/chunk"];
    EXPECT_GT(clean_visits, 2u);
    EXPECT_EQ(clean.site_hits["ssta/mc/chunk"], clean_visits);

    plan.rules[0].hit = 3;
    util::ExecContext faulty;
    faulty.faults = &plan;
    const util::ScopedExecContext scope(faulty);
    try {
      (void)run_monte_carlo(*b.ctx, opt);
      ADD_FAILURE() << "the fault rule did not stop the run";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
      EXPECT_EQ(e.status().message(), "injected fault at ssta/mc/chunk");
    }
    EXPECT_EQ(faulty.site_hits["ssta/mc/chunk"], 3u);
  }
}

TEST(MonteCarloParallel, ThreadSweepMatchesAnalyticChainMoments) {
  // An inverter chain has no max: circuit delay = sum of independent arc
  // delays, so mean = sum of nominals and var = sum of arc variances. Mild
  // variation keeps the sampling truncation (delay >= 5% of nominal) a
  // > 4-sigma tail event, so the analytic Gaussian moments apply.
  variation::VariationParams vp;
  vp.proportional_coeff = 0.15;
  Bench b(inverter_chain(20), vp);
  double mean = 0.0;
  double var = 0.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    mean += b.ctx->arc_delay_ps(id, 0);
    var += b.ctx->arc_sigma_ps(id, 0) * b.ctx->arc_sigma_ps(id, 0);
  }
  const double sigma = std::sqrt(var);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    MonteCarloOptions opt;
    opt.samples = 20000;
    opt.seed = 7;
    opt.threads = threads;
    const auto r = run_monte_carlo(*b.ctx, opt);
    // 3-sigma statistical tolerance on the mean estimator plus 1% headroom
    // for the truncation bias.
    const double mean_tol = 3.0 * sigma / std::sqrt(double(opt.samples)) + 0.01 * mean;
    EXPECT_NEAR(r.mean_ps, mean, mean_tol) << "threads=" << threads;
    EXPECT_NEAR(r.sigma_ps, sigma, 0.05 * sigma) << "threads=" << threads;
  }
}

TEST(MonteCarloParallel, SeedChangesSamples) {
  Bench b(inverter_chain(5));
  MonteCarloOptions a;
  a.samples = 200;
  a.seed = 1;
  a.threads = 4;
  MonteCarloOptions c = a;
  c.seed = 2;
  const auto ra = run_monte_carlo(*b.ctx, a);
  const auto rc = run_monte_carlo(*b.ctx, c);
  EXPECT_NE(ra.circuit_samples, rc.circuit_samples);
}

TEST(MonteCarloParallel, ZeroSamples) {
  Bench b(inverter_chain(3));
  MonteCarloOptions opt;
  opt.samples = 0;
  opt.threads = 4;
  const auto r = run_monte_carlo(*b.ctx, opt);
  EXPECT_EQ(r.circuit_samples.size(), 0u);
  EXPECT_EQ(r.mean_ps, 0.0);
  EXPECT_EQ(r.sigma_ps, 0.0);
}

// ---------------------------------------------------------------------------
// The underlying primitives.
// ---------------------------------------------------------------------------

TEST(StreamSeed, IndependentOfOrderAndDistinct) {
  EXPECT_EQ(util::stream_seed(42, 7), util::stream_seed(42, 7));
  EXPECT_NE(util::stream_seed(42, 7), util::stream_seed(42, 8));
  EXPECT_NE(util::stream_seed(42, 7), util::stream_seed(43, 7));
  // Consecutive indices must not produce correlated low bits.
  EXPECT_NE(util::stream_seed(1, 0) & 0xffff, util::stream_seed(1, 1) & 0xffff);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  util::parallel_for(hits.size(), 7, 4, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ChunkGeometryIndependentOfThreads) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(
        util::detail::chunk_count(100, 16));
    util::parallel_for(100, 16, threads,
                       [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                         ranges[chunk] = {begin, end};
                       });
    ASSERT_EQ(ranges.size(), 7u);
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      EXPECT_EQ(ranges[c].first, c * 16);
      EXPECT_EQ(ranges[c].second, std::min<std::size_t>(100, c * 16 + 16));
    }
  }
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  // A body that itself calls parallel_for must not deadlock the shared pool;
  // the inner region detects it is on a pool worker and runs inline.
  std::atomic<int> count{0};
  util::parallel_for(8, 1, 4, [&](std::size_t, std::size_t, std::size_t) {
    util::parallel_for(16, 4, 4,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         count.fetch_add(int(end - begin));
                       });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelFor, SharedPoolSurvivesRepeatedRegions) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    util::parallel_for(100, 10, 4, [&](std::size_t begin, std::size_t end, std::size_t) {
      count.fetch_add(int(end - begin));
    });
    ASSERT_EQ(count.load(), 100) << "round " << round;
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for(64, 4, 4,
                         [&](std::size_t begin, std::size_t, std::size_t) {
                           if (begin == 32) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

// Regression: the throwing chunk must land on a *pool worker* (the plain
// test above can be satisfied by the calling thread draining every chunk).
// An uncaught exception on a worker would std::terminate; the contract is
// capture-and-rethrow on the calling thread. The caller's chunks spin until
// a worker has taken the poisoned chunk, so the throw provably happens on a
// worker thread.
TEST(ParallelFor, PropagatesExceptionsFromWorkerThreads) {
  std::atomic<bool> worker_threw{false};
  try {
    util::parallel_for(64, 4, 4, [&](std::size_t, std::size_t, std::size_t) {
      if (util::ThreadPool::in_worker()) {
        // First worker-executed chunk throws, whichever chunk that is.
        if (!worker_threw.exchange(true)) throw std::runtime_error("boom on worker");
        return;
      }
      // Calling thread: wait until the worker-side throw happened (bounded,
      // so a regression fails the assertion instead of hanging the suite).
      for (int spin = 0; spin < 10'000 && !worker_threw.load(); ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    FAIL() << "parallel_for swallowed the worker exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom on worker");
  }
  EXPECT_TRUE(worker_threw.load());
}

/// A DAG in topological order: node i reads node i - 1 when i is odd and
/// node i - 10 when i >= 10.
void lattice_preds(std::size_t i, const std::function<void(std::size_t)>& visit) {
  if (i % 2 == 1) visit(i - 1);
  if (i >= 10) visit(i - 10);
}

TEST(DataflowFor, RunsEveryNodeOnceAfterItsPredecessors) {
  constexpr std::size_t n = 500;
  const auto walk = [&](std::size_t threads) {
    std::vector<std::atomic<std::uint8_t>> done(n);
    std::vector<double> value(n, 0.0);
    std::vector<std::atomic<int>> runs(n);
    util::dataflow_for(done, threads, lattice_preds, [&](std::size_t i) {
      runs[i].fetch_add(1);
      double v = 1.0 + 1e-3 * static_cast<double>(i);
      lattice_preds(i, [&](std::size_t p) { v = v * 0.75 + value[p] / 3.0; });
      value[i] = v;
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << "node " << i;
    return value;
  };
  const std::vector<double> serial = walk(1);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    EXPECT_EQ(walk(threads), serial) << "threads=" << threads;
  }
}

// Nodes 40 and 70 throw: the caller sees node 40's exception, the one the
// serial loop throws first, at any worker count, and no dependent of a
// failed node runs.
TEST(DataflowFor, RethrowsTheSerialLoopsExceptionOnTheCaller) {
  constexpr std::size_t n = 200;
  for (const std::size_t threads : {2u, 3u, 8u}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::atomic<std::uint8_t>> done(n);
      std::vector<std::atomic<int>> runs(n);
      try {
        util::dataflow_for(done, threads, lattice_preds, [&](std::size_t i) {
          runs[i].fetch_add(1);
          if (i == 40 || i == 70) throw std::runtime_error("node " + std::to_string(i));
        });
        ADD_FAILURE() << "dataflow_for swallowed the exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "node 40") << "threads=" << threads;
      }
      for (const std::size_t dependent : {41u, 50u, 51u, 80u, 190u}) {
        EXPECT_EQ(runs[dependent].load(), 0) << "node " << dependent;
      }
      EXPECT_EQ(runs[39].load(), 1);
    }
  }
}

// The throw lands on a pool worker: the caller's nodes wait (bounded) until
// a worker-run node has thrown, so a walk that hung on its failed node or
// lost a worker's exception fails here.
TEST(DataflowFor, RethrowsAPoolWorkersExceptionOnTheCaller) {
  constexpr std::size_t n = 64;
  for (const std::size_t threads : {2u, 3u, 8u}) {
    std::vector<std::atomic<std::uint8_t>> done(n);
    std::atomic<bool> worker_threw{false};
    const auto chain = [](std::size_t i, const auto& visit) {
      if (i > 0) visit(i - 1);
    };
    try {
      util::dataflow_for(done, threads, [](std::size_t, const auto&) {}, [&](std::size_t) {
        if (util::ThreadPool::in_worker()) {
          if (!worker_threw.exchange(true)) throw std::runtime_error("boom on worker");
          return;
        }
        for (int spin = 0; spin < 10'000 && !worker_threw.load(); ++spin) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      });
      ADD_FAILURE() << "dataflow_for swallowed the worker exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom on worker") << "threads=" << threads;
    }
    EXPECT_TRUE(worker_threw.load());
    // A chain whose first node fails skips every later node.
    std::atomic<int> runs{0};
    EXPECT_THROW(util::dataflow_for(done, threads, chain,
                                    [&](std::size_t i) {
                                      runs.fetch_add(1);
                                      if (i == 0) throw std::runtime_error("first");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(runs.load(), 1);
  }
}

TEST(ThreadPool, RunsSubmittedTasks) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace statsizer::ssta
