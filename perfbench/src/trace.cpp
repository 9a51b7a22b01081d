#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

#include "bench_util.h"

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next++;
  return index;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_s_(now_s()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  span_.id = tracer_.next_id_++;
  span_.parent = t_current_span;
  span_.name = std::move(name);
  span_.thread = thread_index();
  t_current_span = span_.id;
  open_ = true;
  span_.start_s = now_s();
}

void Tracer::Scope::close() {
  if (!open_) return;
  span_.end_s = now_s();
  open_ = false;
  t_current_span = span_.parent;
  const std::lock_guard<std::mutex> lock(tracer_.mutex_);
  tracer_.spans_.push_back(std::move(span_));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const std::vector<SpanRecord> all = spans();
  out << "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  s.thread, (s.start_s - origin_s_) * 1e6, s.seconds() * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name) << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals clipped to the parent.
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, spans[i].start_s);
      const double hi = std::min(e, spans[i].end_s);
      if (hi <= lo) continue;
      if (lo > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = std::max(0.0, spans[i].seconds() - covered);
  }
  return self;
}

void Tracer::print_self_time(std::ostream& out) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times(all);
  struct Row {
    std::size_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  // By span name, and by layer (the name up to its first '.').
  std::map<std::string, Row> by_name;
  std::map<std::string, Row> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& name = all[i].name;
    for (Row* r : {&by_name[name], &by_layer[name.substr(0, name.find('.'))]}) {
      ++r->calls;
      r->total += all[i].seconds();
      r->self += self[i];
    }
  }
  const auto print = [&out](const char* title, const std::map<std::string, Row>& rows) {
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) { return a.second.self > b.second.self; });
    char buf[200];
    std::snprintf(buf, sizeof buf, "%-34s %8s %12s %12s\n", title, "calls", "total_s", "self_s");
    out << buf;
    for (const auto& [name, r] : sorted) {
      std::snprintf(buf, sizeof buf, "%-34s %8zu %12.6f %12.6f\n", name.c_str(), r.calls,
                    r.total, r.self);
      out << buf;
    }
  };
  print("layer", by_layer);
  print("span", by_name);
}

}  // namespace perfbench
