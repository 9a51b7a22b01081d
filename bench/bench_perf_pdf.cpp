// P2 — discrete-pdf operation microbenchmarks (google-benchmark): the cost
// of FULLSSTA's primitive sum/max at the paper's sampling rates, on normal
// operands and replayed on a real design's FULLSSTA node pdfs.
//
// `--json <path>` / `--context key=value` as in bench_perf_engines
// (bench/bench_main.h); scripts/bench_snapshot.sh BENCH_pdf_kernels.json
// records the node-pdf replays.
#include <benchmark/benchmark.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "core/flow.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "util/rng.h"

namespace {

using namespace statsizer;
using pdf::DiscretePdf;

/// The non-point arrival pdfs of a baselined Table-1 design's FULLSSTA pass,
/// paired at random (fixed seed): the operands FULLSSTA's gate kernel
/// actually sees, replayed as perfbench's pdf.* layer replays them.
struct NodePdfPairs {
  std::vector<DiscretePdf> pdfs;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t samples = 0;

  explicit NodePdfPairs(const std::string& name) {
    core::Flow flow;
    if (const Status s = flow.load_table1(name); !s.ok()) throw std::runtime_error(s.message());
    (void)flow.run_baseline();
    ssta::FullSstaOptions keep;
    keep.keep_node_pdfs = true;
    samples = keep.samples_per_pdf;
    for (DiscretePdf& p : ssta::run_fullssta(flow.timing(), keep).node_pdf) {
      if (p.size() > 1) pdfs.push_back(std::move(p));
    }
    util::Rng rng(880);
    for (int i = 0; i < 4000; ++i) {
      pairs.emplace_back(rng.index(pdfs.size()), rng.index(pdfs.size()));
    }
  }
};

const NodePdfPairs& node_pdf_pairs(const std::string& name) {
  static std::map<std::string, NodePdfPairs> cache;
  return cache.try_emplace(name, name).first->second;
}

/// One op per iteration, cycling through the design's operand pairs.
template <typename Op>
void replay_node_pdfs(benchmark::State& state, const std::string& name, Op op) {
  const NodePdfPairs& r = node_pdf_pairs(name);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = r.pairs[i];
    benchmark::DoNotOptimize(op(r.pdfs[a], r.pdfs[b], r.samples));
    i = i + 1 == r.pairs.size() ? 0 : i + 1;
  }
}

void BM_SumNodePdfs(benchmark::State& state, const std::string& name) {
  replay_node_pdfs(state, name, [](const DiscretePdf& a, const DiscretePdf& b, std::size_t n) {
    return sum(a, b, n);
  });
}
BENCHMARK_CAPTURE(BM_SumNodePdfs, c880, std::string("c880"));

void BM_MaxNodePdfs(benchmark::State& state, const std::string& name) {
  replay_node_pdfs(state, name, [](const DiscretePdf& a, const DiscretePdf& b, std::size_t n) {
    return max(a, b, n);
  });
}
BENCHMARK_CAPTURE(BM_MaxNodePdfs, c880, std::string("c880"));

void BM_NormalDiscretize(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscretePdf::normal(100.0, 10.0, samples));
  }
}
BENCHMARK(BM_NormalDiscretize)->Arg(10)->Arg(13)->Arg(15)->Arg(25);

void BM_Sum(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, samples);
  const DiscretePdf b = DiscretePdf::normal(40.0, 6.0, samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum(a, b, samples));
  }
}
BENCHMARK(BM_Sum)->Arg(10)->Arg(13)->Arg(15)->Arg(25);

void BM_Max(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, samples);
  const DiscretePdf b = DiscretePdf::normal(98.0, 12.0, samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max(a, b, samples));
  }
}
BENCHMARK(BM_Max)->Arg(10)->Arg(13)->Arg(15)->Arg(25);

void BM_Resample(benchmark::State& state) {
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, 41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.resampled(13));
  }
}
BENCHMARK(BM_Resample);

void BM_Quantile(benchmark::State& state) {
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.quantile(0.99));
  }
}
BENCHMARK(BM_Quantile);

}  // namespace

// --json / --context main (bench/bench_main.h).
int main(int argc, char** argv) { return statsizer::bench::run_benchmarks(argc, argv); }
