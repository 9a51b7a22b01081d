// Shared types of the perfbench program: the workload description, the run
// configuration and the report every part of a run writes into.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "trace.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Builds the design; the benchmark writes it out as mapped structural
  /// Verilog before any timing and every timed run reads that file back.
  std::function<statsizer::netlist::Netlist()> make_design;
  double lambda = 3.0;
};

struct RunConfig {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;      ///< working files: designs, digests, traces
  std::size_t clients = 1;  ///< closed-loop serving clients (one per core)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run measured and which correctness gates it failed. A failed gate
/// counts as one failed operation.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& why) {
    ++failed_;
    failures_.push_back(why);
  }
  /// A gate that is also an operation: counts as attempted, and as failed
  /// when @p ok is false.
  void check(bool ok, const std::string& what) {
    attempt();
    if (!ok) fail(what);
  }
  void note(std::string line) { notes_.push_back(std::move(line)); }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
