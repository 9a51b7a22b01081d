// The google-benchmark main shared by bench_perf_engines, bench_perf_pdf and
// bench_server.
// A header, not a .cpp: CMake builds every bench/*.cpp into its own
// executable.
//
// `--json <path>` is shorthand for google-benchmark's
// --benchmark_out=<path> --benchmark_out_format=json, so callers (and
// scripts/bench_snapshot.sh) get per-benchmark wall/CPU times as JSON
// without memorizing the long flags. `--context key=value` (repeatable)
// stamps the pair into the JSON header via benchmark::AddCustomContext —
// bench_snapshot.sh uses it to record the git SHA and workload.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

namespace statsizer::bench {

inline int run_benchmarks(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.push_back("--benchmark_out_format=json");
      ++i;
    } else if (std::strcmp(argv[i], "--context") == 0 && i + 1 < argc) {
      const std::string pair = argv[i + 1];
      const std::size_t eq = pair.find('=');
      benchmark::AddCustomContext(pair.substr(0, eq),
                                  eq == std::string::npos ? "" : pair.substr(eq + 1));
      ++i;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (std::string& a : args) cargv.push_back(a.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace statsizer::bench
