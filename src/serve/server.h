// serve::Server — the newline-JSON protocol front end over JobManager +
// Session. One request per input line, one response per output line.
//
// Request envelope (any op):
//   {"op":"whatif", "id":7, "session":"a", "priority":1, "deadline_ms":50, ...}
//     op          required; see the table below
//     id          echoed verbatim in the response (any JSON value)
//     session     tenant name; created on first use (default "default")
//     priority    higher runs earlier (default 0)
//     deadline_ms cooperative deadline from submission; 0 = none
//
// Ops and payloads:
//   load    {"workload":"c432"} or {"file":"x.bench"|"x.v"}; "baseline":true
//           runs the mean-delay baseline after loading
//   sdc     {"text":"create_clock -period 0.8 ..."}
//   whatif  {"gate":"g12","size":3} or {"resizes":[{"gate":..,"size":..},..]}
//   size    {"lambda":3.0}
//   yield   {"clock_period_ps":800,"engine":"isle"}  (both optional)
//   info    cached design snapshot (cheap)
//   status  job-system counters as of its response (never queued)
//   quit    drain all in-flight work, respond, stop serving
//
// Responses: {"id":..,"ok":true,...payload} on success, or
//   {"id":..,"ok":false,"code":"resource_exhausted","error":"...",
//    "retry_after_ms":10}
// with "code" the canonical lower_snake_case StatusCode spelling and
// retry_after_ms present on shed requests. Malformed JSON and unknown ops
// answer ok:false without consuming a job slot.
//
// Ordering: responses are written in request order (a single writer drains
// completions in submission sequence), so clients may correlate by position
// as well as by id. Admission control, deadlines, cancellation and fault
// injection all come from the underlying JobManager, which runs each job once:
// a transient failure answers "unavailable" and the client decides whether to
// resend.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/job.h"
#include "serve/session.h"
#include "util/fault.h"

namespace statsizer::serve {

struct ServerOptions {
  /// Worker threads for request execution. 0 = hardware concurrency. Stays
  /// at 1 by default while the library's flow defaults to every core: the
  /// serving mix is synthetic, so there is no measured traffic to tune for.
  /// A request runs its kernels inline on its worker either way.
  std::size_t threads = 1;
  JobLimits limits;
  /// Deterministic fault plan applied to every request job (empty = off).
  /// Request N (0-based admission sequence) is fault scope N.
  util::FaultPlan faults;
  /// Per-tenant session configuration (engines, flow options).
  SessionOptions session;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves the protocol until EOF or a quit op. Blocks; returns the number
  /// of requests answered.
  std::uint64_t run(std::istream& in, std::ostream& out);

  [[nodiscard]] JobStats stats() const { return manager_->stats(); }

 private:
  SessionRef session_for(const std::string& name);

  ServerOptions options_;
  std::unique_ptr<JobManager> manager_;
  std::mutex sessions_mutex_;
  std::map<std::string, SessionRef, std::less<>> sessions_;
};

}  // namespace statsizer::serve
