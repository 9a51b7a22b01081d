// Serving-layer throughput/latency benchmark: N concurrent clients hammer a
// shared Session through the JobManager with the mixed workload a
// timing-as-a-service deployment sees — mostly cheap single-gate what-ifs,
// periodic info polls, and occasional small-budget yield queries.
//
// Counters per (circuit, clients) point:
//   jobs_per_sec  completed requests per wall second
//   p50_ms/p99_ms client-observed request latency (submit -> terminal),
//                 pooled over every iteration's requests
//
// `--json <path>` / `--context key=value` behave as in bench_perf_engines
// (scripts/bench_snapshot.sh drives them for BENCH_server.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.h"
#include "core/flow.h"
#include "serve/job.h"
#include "serve/session.h"

namespace {

using namespace statsizer;

/// Gate names of a workload, for addressing what-ifs. One probe Flow per
/// circuit; the serving session keeps its own copy of the design.
const std::vector<std::string>& gate_names_for(const std::string& circuit) {
  static std::map<std::string, std::vector<std::string>> cache;
  auto it = cache.find(circuit);
  if (it == cache.end()) {
    core::Flow probe;
    if (const Status s = probe.load_table1(circuit); !s.ok()) {
      throw std::runtime_error(std::string(s.message()));
    }
    std::vector<std::string> names;
    const auto& nl = probe.netlist();
    for (netlist::GateId id = 0; id < nl.node_count(); ++id) {
      // Only mapped multi-size gates make meaningful what-if targets.
      const auto& g = nl.gate(id);
      if (!g.fanins.empty()) names.push_back(g.name);
    }
    it = cache.emplace(circuit, std::move(names)).first;
  }
  return it->second;
}

void BM_ServerMixed(benchmark::State& state, const std::string& circuit) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));

  serve::SessionOptions session_options;
  session_options.flow.isle.samples = 512;  // small-budget yield queries
  session_options.flow.isle.min_draws = 128;
  auto session = std::make_shared<serve::Session>(session_options);
  if (const Status s = session->load_workload(circuit); !s.ok()) {
    state.SkipWithError(std::string(s.message()).c_str());
    return;
  }
  const std::vector<std::string>& gates = gate_names_for(circuit);

  serve::JobManagerOptions manager_options;
  manager_options.threads = clients;
  manager_options.limits.max_queue_depth = 4096;
  serve::JobManager manager(manager_options);

  // 48 requests per client per iteration: 40 what-ifs, 6 info polls, 2 yields.
  constexpr std::size_t kRequestsPerClient = 48;
  std::vector<double> latencies_ms;
  std::mutex latencies_mutex;

  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        std::vector<double> local;
        local.reserve(kRequestsPerClient);
        for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
          const auto t0 = std::chrono::steady_clock::now();
          serve::JobRef job;
          if (r % 24 == 15) {
            job = manager.submit([&session] { (void)session->yield(); });
          } else if (r % 8 == 7) {
            job = manager.submit([&session] { (void)session->info(); });
          } else {
            const std::string& gate = gates[(c * kRequestsPerClient + r * 7) % gates.size()];
            const std::uint16_t size = static_cast<std::uint16_t>(r % 3);
            job = manager.submit([&session, &gate, size] {
              (void)session->what_if({serve::ResizeRequest{gate, size}});
            });
          }
          (void)job->wait();
          local.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
        }
        const std::lock_guard<std::mutex> lock(latencies_mutex);
        latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : workers) t.join();
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * clients * kRequestsPerClient),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * clients * kRequestsPerClient));
}

}  // namespace

BENCHMARK_CAPTURE(BM_ServerMixed, c880, std::string("c880"))
    ->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServerMixed, mesh8, std::string("mesh8"))
    ->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

// --json / --context main (bench/bench_main.h).
int main(int argc, char** argv) { return statsizer::bench::run_benchmarks(argc, argv); }
