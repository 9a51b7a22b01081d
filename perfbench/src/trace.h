// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own code around calls into the library's public API
// (no library code is instrumented). Each span has a name, start, end, its
// parent (the enclosing span on the same thread) and the recording thread.
// Spans stay in memory and are written at exit as Chrome trace-event JSON,
// which Perfetto and chrome://tracing open directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::string name;
  std::uint32_t thread = 0;
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span early.
    void close();

   private:
    Tracer& tracer_;
    SpanRecord span_;
    bool open_ = false;
  };

  Tracer();

  /// Snapshot of every closed span, in closing order.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps
  /// from the tracer's construction).
  void write_chrome_json(std::ostream& out) const;

  /// Per-name table: calls, total and self time (duration minus the part of
  /// its interval covered by child spans), sorted by self time.
  void print_self_time(std::ostream& out) const;

 private:
  double origin_s_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// Self time of each span: its duration minus the union of its children's
/// intervals. Index-aligned with @p spans.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
