#include "serve_bench.h"

#include <sys/socket.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>  // libstdc++: iostream over a connected fd

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "bench_util.h"
#include "flow_bench.h"
#include "serve/job.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/json.h"

namespace perfbench {

namespace sz = statsizer;
using sz::util::Json;

namespace {

// -- the request stream ---------------------------------------------------------

enum class Op { kWhatIf, kInfo, kWhatIf3, kSdc, kYield };

/// Mix per 100 requests. Each client deals a seeded shuffle of this deck, so
/// the op counts per run are fixed and only their order depends on the seed.
constexpr std::pair<Op, int> kMix[] = {
    {Op::kWhatIf, 88}, {Op::kInfo, 6}, {Op::kWhatIf3, 3}, {Op::kSdc, 2}, {Op::kYield, 1}};

const char* op_name(Op op) {
  switch (op) {
    case Op::kWhatIf: return "whatif";
    case Op::kInfo: return "info";
    case Op::kWhatIf3: return "whatif3";
    case Op::kSdc: return "sdc";
    case Op::kYield: return "yield";
  }
  return "?";
}

struct SizableGate {
  std::string name;
  std::uint16_t sizes = 0;
};

struct DesignInfo {
  std::vector<SizableGate> gates;
  double clock_ps = 0.0;  ///< baseline mean + 3 sigma
};

DesignInfo design_info(const std::string& baseline_path, std::uint64_t seed) {
  sz::core::Flow flow(flow_options(seed));
  if (const sz::Status s = flow.load_verilog_file(baseline_path); !s.ok()) {
    throw std::runtime_error("load " + baseline_path + ": " + s.message());
  }
  DesignInfo info;
  for (const sz::netlist::GateId g : sizable_gates(flow)) {
    const sz::netlist::Gate& gate = flow.netlist().gate(g);
    const std::size_t sizes = flow.library().group(gate.cell_group).size_count();
    info.gates.push_back({gate.name, static_cast<std::uint16_t>(sizes)});
  }
  if (info.gates.size() < 3) throw std::runtime_error("serve: fewer than 3 sizable gates");
  const sz::opt::CircuitStats stats = flow.analyze();
  info.clock_ps = stats.mean_ps + 3.0 * stats.sigma_ps;
  return info;
}

struct Request {
  Op op = Op::kWhatIf;
  std::vector<std::pair<std::size_t, std::uint16_t>> resizes;  ///< (gate index, size)
  double clock_ps = 0.0;                                       ///< kSdc
};

std::string sdc_text(double clock_ps) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "create_clock -period %.17g -name clk", clock_ps);
  return buf;
}

class Stream {
 public:
  Stream(const DesignInfo& design, std::uint64_t seed) : design_(design), rng_(seed) {}

  Request next() {
    if (pos_ == deck_.size()) deal();
    Request r;
    r.op = deck_[pos_++];
    if (r.op == Op::kWhatIf || r.op == Op::kWhatIf3) {
      const std::size_t count = r.op == Op::kWhatIf ? 1 : 3;
      while (r.resizes.size() < count) {
        const std::size_t g = rng_.below(design_.gates.size());
        const bool dup = std::any_of(r.resizes.begin(), r.resizes.end(),
                                     [g](const auto& rs) { return rs.first == g; });
        if (!dup) {
          r.resizes.emplace_back(g, static_cast<std::uint16_t>(rng_.below(design_.gates[g].sizes)));
        }
      }
    } else if (r.op == Op::kSdc) {
      r.clock_ps = design_.clock_ps * (0.9 + 0.2 * rng_.unit());
    }
    return r;
  }

 private:
  void deal() {
    deck_.clear();
    for (const auto& [op, count] : kMix) deck_.insert(deck_.end(), count, op);
    for (std::size_t i = deck_.size(); i > 1; --i) std::swap(deck_[i - 1], deck_[rng_.below(i)]);
    pos_ = 0;
  }

  const DesignInfo& design_;
  Rng rng_;
  std::vector<Op> deck_;
  std::size_t pos_ = 0;
};

std::string to_line(const Request& r, const DesignInfo& design, std::uint64_t id) {
  Json req;
  req["id"] = id;
  req["op"] = r.op == Op::kWhatIf3 ? "whatif" : op_name(r.op);
  const auto resize = [&design](const std::pair<std::size_t, std::uint16_t>& rs) {
    Json j;
    j["gate"] = design.gates[rs.first].name;
    j["size"] = static_cast<int>(rs.second);
    return j;
  };
  if (r.op == Op::kWhatIf) {
    req["gate"] = design.gates[r.resizes[0].first].name;
    req["size"] = static_cast<int>(r.resizes[0].second);
  } else if (r.op == Op::kWhatIf3) {
    for (const auto& rs : r.resizes) req["resizes"].push_back(resize(rs));
  } else if (r.op == Op::kSdc) {
    req["text"] = sdc_text(r.clock_ps);
  }
  return req.dump() + "\n";
}

std::vector<sz::serve::ResizeRequest> to_resizes(const Request& r, const DesignInfo& design) {
  std::vector<sz::serve::ResizeRequest> out;
  for (const auto& [g, size] : r.resizes) out.push_back({design.gates[g].name, size});
  return out;
}

sz::serve::SessionOptions session_options(std::uint64_t seed) {
  sz::serve::SessionOptions s;
  s.flow = flow_options(seed);
  s.flow.isle.samples = 512;  // the stream's yield op is a 512-draw ISLE estimate
  return s;
}

// -- one protocol connection ------------------------------------------------------

/// A client connection to @p server over a socketpair; the server end runs
/// Server::run on its own thread, exactly as statsizer_serve does per TCP
/// connection.
class Connection {
 public:
  explicit Connection(sz::serve::Server& server) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    client_ = fds[0];
    const int server_fd = fds[1];
    thread_ = std::thread([&server, server_fd] {
      try {
        __gnu_cxx::stdio_filebuf<char> inbuf(server_fd, std::ios::in);
        __gnu_cxx::stdio_filebuf<char> outbuf(::dup(server_fd), std::ios::out);
        std::istream in(&inbuf);
        std::ostream out(&outbuf);
        (void)server.run(in, out);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: server connection failed: %s\n", e.what());
      }
    });
  }
  ~Connection() {
    ::shutdown(client_, SHUT_WR);  // EOF ends the server's protocol loop
    thread_.join();
    ::close(client_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line and returns the response line (without '\n').
  std::string call(const std::string& line) {
    for (std::size_t sent = 0; sent < line.size();) {
      const ssize_t n = ::send(client_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("serve: send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      if (const std::size_t eol = buf_.find('\n'); eol != std::string::npos) {
        std::string response = buf_.substr(0, eol);
        buf_.erase(0, eol + 1);
        return response;
      }
      char chunk[4096];
      const ssize_t n = ::recv(client_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("serve: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int client_ = -1;
  std::thread thread_;
  std::string buf_;
};

// -- client logs -------------------------------------------------------------------

struct Sample {
  Op op = Op::kWhatIf;
  double latency_s = 0.0;
  bool ok = false;
  double queue_s = 0.0;  ///< in-process only
  double run_s = 0.0;    ///< in-process only
};

struct WhatIfAnswer {
  std::string gate;
  std::uint16_t size = 0;
  double epoch = 0.0;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
};

struct SdcChange {
  double epoch = 0.0;
  double clock_ps = 0.0;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<WhatIfAnswer> whatifs;
  std::vector<SdcChange> sdcs;
  std::string error;  ///< first failed response, for the report
};

double number(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Runs one closed-loop client per element of @p clients until @p seconds
/// have passed; returns the logs and the elapsed wall time.
template <typename Send>
std::vector<ClientLog> closed_loop(std::size_t clients, double seconds, std::uint64_t seed,
                                   const DesignInfo& design, Tracer& tracer, Send&& send,
                                   double* elapsed_s) {
  std::vector<ClientLog> logs(clients);
  std::vector<double> last_done(clients, 0.0);
  const double start = now_s();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Stream stream(design, derive_seed(seed, 100 + c));
        for (std::uint64_t n = 0; now_s() < deadline; ++n) {
          const Request r = stream.next();
          Tracer::Scope span(tracer, std::string("client.") + op_name(r.op));
          send(c, r, n, logs[c]);
        }
      } catch (const std::exception& e) {
        if (logs[c].error.empty()) logs[c].error = e.what();
      }
      last_done[c] = now_s();
    });
  }
  for (std::thread& t : threads) t.join();
  *elapsed_s = *std::max_element(last_done.begin(), last_done.end()) - start;
  return logs;
}

/// Served single-resize what-if answers, sampled with the run's seed, must
/// equal a serial recomputation on an idle session bitwise (with the SDC
/// changes that preceded each answer's epoch replayed in order).
void check_whatifs(const std::vector<ClientLog>& logs, const std::string& baseline_path,
                   const RunConfig& cfg, Report& report) {
  std::vector<WhatIfAnswer> all;
  std::vector<SdcChange> sdcs;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), log.whatifs.begin(), log.whatifs.end());
    sdcs.insert(sdcs.end(), log.sdcs.begin(), log.sdcs.end());
  }
  if (all.empty()) {
    report.check(false, "serve: no what-if answers to verify");
    return;
  }
  Rng rng(derive_seed(cfg.seed, 3));
  const std::size_t k = std::min<std::size_t>(24, all.size());
  for (std::size_t i = 0; i < k; ++i) std::swap(all[i], all[i + rng.below(all.size() - i)]);
  all.resize(k);
  const auto by_epoch = [](const auto& a, const auto& b) { return a.epoch < b.epoch; };
  std::stable_sort(all.begin(), all.end(), by_epoch);
  std::sort(sdcs.begin(), sdcs.end(), by_epoch);

  sz::serve::Session idle(session_options(cfg.seed));
  if (const sz::Status s = idle.load_file(baseline_path); !s.ok()) {
    report.check(false, "serve: idle session load failed: " + s.message());
    return;
  }
  std::size_t next_sdc = 0;
  for (const WhatIfAnswer& w : all) {
    while (next_sdc < sdcs.size() && sdcs[next_sdc].epoch <= w.epoch) {
      if (const sz::Status s = idle.apply_sdc_text(sdc_text(sdcs[next_sdc].clock_ps)); !s.ok()) {
        report.check(false, "serve: idle SDC replay failed: " + s.message());
        return;
      }
      ++next_sdc;
    }
    const auto r = idle.what_if({{w.gate, w.size}});
    const bool same = r.ok() &&
                      std::memcmp(&r.value().mean_ps, &w.mean_ps, sizeof(double)) == 0 &&
                      std::memcmp(&r.value().sigma_ps, &w.sigma_ps, sizeof(double)) == 0;
    report.check(same, "serve: what-if " + w.gate + " size " + std::to_string(w.size) +
                           " differs from the idle recomputation");
  }
}

std::vector<double> latencies_ms(const std::vector<ClientLog>& logs, bool whatif_only) {
  std::vector<double> out;
  for (const ClientLog& log : logs) {
    for (const Sample& s : log.samples) {
      if (whatif_only && (s.op != Op::kWhatIf || !s.ok)) continue;
      // A failed request counts as missing every latency limit.
      out.push_back(s.ok ? 1e3 * s.latency_s : 1e300);
    }
  }
  return out;
}

/// Adds percentile @p q of @p values as @p name, with its sample count.
void add_percentile(Report& report, const std::string& name, std::vector<double> values,
                    double q) {
  const Percentile p = percentile(std::move(values), q);
  char line[160];
  std::snprintf(line, sizeof line, "%s: p%.4g of n=%zu, %zu beyond%s", name.c_str(), 100 * p.q,
                p.samples, p.beyond, p.ok ? "" : " (too few beyond the requested percentile)");
  report.note(line);
  report.add(name, p.value, "ms");
}

sz::serve::ServerOptions server_options(std::uint64_t seed) {
  sz::serve::ServerOptions options;
  options.session = session_options(seed);
  return options;
}

/// Opens a connection and loads @p path over the protocol; returns once the
/// server has answered the load and a first info request.
std::unique_ptr<Connection> connect_loaded(sz::serve::Server& server, const std::string& path) {
  auto connection = std::make_unique<Connection>(server);
  Json load;
  load["id"] = 0;
  load["op"] = "load";
  load["file"] = path;
  for (const std::string& line : {load.dump() + "\n", std::string("{\"id\":1,\"op\":\"info\"}\n")}) {
    const auto parsed = Json::parse(connection->call(line));
    const Json* ok = parsed.ok() ? parsed.value().find("ok") : nullptr;
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      throw std::runtime_error("serve setup failed: " + line);
    }
  }
  return connection;
}

/// The serving stack without the protocol: a JobManager configured like the
/// server's and a Session holding the loaded design.
struct InProcess {
  InProcess(const std::string& path, std::uint64_t seed)
      : manager(manager_options()), session(session_options(seed)) {
    if (const sz::Status s = session.load_file(path); !s.ok()) {
      throw std::runtime_error("serve in-process load: " + s.message());
    }
  }
  static sz::serve::JobManagerOptions manager_options() {
    const sz::serve::ServerOptions defaults;
    sz::serve::JobManagerOptions o;
    o.threads = defaults.threads;
    o.limits = defaults.limits;
    return o;
  }
  sz::serve::JobManager manager;
  sz::serve::Session session;
};

}  // namespace

void run_serve(const RunConfig& cfg, const std::string& baseline_path, Tracer& tracer,
                 Report& report) {
  const DesignInfo design = design_info(baseline_path, cfg.seed);
  const sz::serve::ServerOptions options = server_options(cfg.seed);

  // Set-up, several times: server up, design loaded over the protocol, first
  // answer back. The last server stays up and serves the stream.
  std::unique_ptr<sz::serve::Server> server;
  std::unique_ptr<Connection> first;
  std::vector<double> setups;
  for (int rep = 0; rep < 7; ++rep) {
    first.reset();
    server.reset();
    Tracer::Scope span(tracer, "serve.setup");
    const double t0 = now_s();
    server = std::make_unique<sz::serve::Server>(options);
    first = connect_loaded(*server, baseline_path);
    setups.push_back(now_s() - t0);
  }

  std::vector<std::unique_ptr<Connection>> connections(cfg.clients);
  connections[0] = std::move(first);
  for (std::size_t c = 1; c < cfg.clients; ++c) {
    connections[c] = std::make_unique<Connection>(*server);
  }
  const auto send = [&](std::size_t c, const Request& r, std::uint64_t n, ClientLog& log) {
    const std::string line = to_line(r, design, n);
    const double t0 = now_s();
    const std::string response = connections[c]->call(line);
    Sample s{r.op, now_s() - t0, false};
    const auto parsed = Json::parse(response);
    if (parsed.ok()) {
      const Json& j = parsed.value();
      const Json* ok = j.find("ok");
      s.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
      if (s.ok && r.op == Op::kWhatIf) {
        const auto& [g, size] = r.resizes[0];
        log.whatifs.push_back({design.gates[g].name, size, number(j, "epoch"),
                               number(j, "mean_ps"), number(j, "sigma_ps")});
      } else if (s.ok && r.op == Op::kSdc) {
        log.sdcs.push_back({number(j, "epoch"), r.clock_ps});
      }
    }
    if (!s.ok && log.error.empty()) log.error = std::string(op_name(r.op)) + ": " + response;
    log.samples.push_back(s);
  };
  double elapsed = 0.0;
  Tracer::Scope stream_span(tracer, "serve.protocol_stream");
  const std::vector<ClientLog> logs =
      closed_loop(cfg.clients, cfg.seconds, cfg.seed, design, tracer, send, &elapsed);
  stream_span.close();
  connections.clear();
  server.reset();

  std::size_t ok = 0;
  for (const ClientLog& log : logs) {
    if (!log.error.empty()) report.note("serve client error: " + log.error);
    for (const Sample& s : log.samples) {
      report.attempt();
      if (s.ok) {
        ++ok;
      } else {
        report.fail(std::string("serve: ") + op_name(s.op) + " request failed");
      }
    }
  }
  if (ok == 0) report.check(false, "serve: no request completed");

  report.add("serve.setup_ms", 1e3 * median(setups), "ms");
  report.add("serve.rps", elapsed > 0.0 ? static_cast<double>(ok) / elapsed : 0.0, "1/s");
  add_percentile(report, "serve.whatif_p50_ms", latencies_ms(logs, true), 0.50);
  add_percentile(report, "serve.whatif_p99_ms", latencies_ms(logs, true), 0.99);
  add_percentile(report, "serve.request_p99_ms", latencies_ms(logs, false), 0.99);
  check_whatifs(logs, baseline_path, cfg, report);
}

void run_serve_inprocess(const RunConfig& cfg, const std::string& baseline_path,
                         double idle_whatif_us, Tracer& tracer, Report& report) {
  const DesignInfo design = design_info(baseline_path, cfg.seed);
  InProcess stack(baseline_path, cfg.seed);
  sz::serve::JobManager& manager = stack.manager;
  sz::serve::Session& session = stack.session;

  const auto send = [&](std::size_t, const Request& r, std::uint64_t, ClientLog& log) {
    std::function<void()> body;
    switch (r.op) {
      case Op::kWhatIf:
      case Op::kWhatIf3:
        body = [&session, rs = to_resizes(r, design)] {
          if (const auto w = session.what_if(rs); !w.ok()) throw sz::StatusError(w.status());
        };
        break;
      case Op::kInfo:
        body = [&session] { (void)session.info(); };
        break;
      case Op::kSdc:
        body = [&session, text = sdc_text(r.clock_ps)] {
          if (const sz::Status s = session.apply_sdc_text(text); !s.ok()) throw sz::StatusError(s);
        };
        break;
      case Op::kYield:
        body = [&session] {
          if (const auto y = session.yield(); !y.ok()) throw sz::StatusError(y.status());
        };
        break;
    }
    const double t0 = now_s();
    const sz::serve::JobRef job = manager.submit(std::move(body));
    const bool ok = job->wait().ok();
    log.samples.push_back({r.op, now_s() - t0, ok,
                           std::chrono::duration<double>(job->queue_time()).count(),
                           std::chrono::duration<double>(job->run_time()).count()});
  };
  double elapsed = 0.0;
  Tracer::Scope stream_span(tracer, "serve.inprocess_stream");
  const std::vector<ClientLog> logs =
      closed_loop(cfg.clients, cfg.seconds, cfg.seed, design, tracer, send, &elapsed);
  stream_span.close();
  manager.wait_all();

  std::vector<double> queue_ms, whatif_run_ms, write_ms, yield_ms;
  for (const ClientLog& log : logs) {
    if (!log.error.empty()) report.fail("serve in-process client: " + log.error);
    for (const Sample& s : log.samples) {
      report.check(s.ok, std::string("serve in-process: ") + op_name(s.op) + " failed");
      queue_ms.push_back(1e3 * s.queue_s);
      if (s.op == Op::kWhatIf) {
        whatif_run_ms.push_back(1e3 * s.run_s);
      } else if (s.op == Op::kWhatIf3 || s.op == Op::kSdc) {
        write_ms.push_back(1e3 * s.run_s);
      } else if (s.op == Op::kYield) {
        yield_ms.push_back(1e3 * s.run_s);
      }
    }
  }
  add_percentile(report, "serve.queue_wait_ms_p50", queue_ms, 0.50);
  add_percentile(report, "serve.queue_wait_ms_p99", queue_ms, 0.99);
  const double run_p50 = percentile(whatif_run_ms, 0.5).value;
  add_percentile(report, "serve.whatif_run_ms_p50", whatif_run_ms, 0.50);
  report.add("serve.whatif_inflation", idle_whatif_us > 0.0 ? run_p50 / (idle_whatif_us / 1e3) : 0.0,
             "ratio");
  add_percentile(report, "serve.write_ms_p50", write_ms, 0.50);
  add_percentile(report, "serve.yield_ms_p50", yield_ms, 0.50);

  const sz::serve::JobStats stats = manager.stats();
  const double offered = static_cast<double>(stats.submitted + stats.shed);
  report.add("serve.admitted_pct", offered > 0 ? 100.0 * stats.submitted / offered : 0.0, "%");
  report.add("serve.attempts_per_job",
             stats.submitted > 0
                 ? static_cast<double>(stats.submitted + stats.retried) / stats.submitted
                 : 0.0,
             "ratio");
  report.add("serve.peak_queue_depth", static_cast<double>(stats.peak_queue_depth), "count");
}

void measure_protocol(const RunConfig& cfg, const std::string& baseline_path, Tracer& tracer,
                      Report& report) {
  sz::serve::Server server(server_options(cfg.seed));
  const std::unique_ptr<Connection> connection = connect_loaded(server, baseline_path);
  InProcess stack(baseline_path, cfg.seed);

  // info does almost no work, so the difference is the protocol's own cost:
  // JSON parsing and rendering, the socket, and the per-connection writer.
  // The two paths alternate so that drift in machine speed hits both alike.
  Request info;
  info.op = Op::kInfo;
  std::vector<double> protocol_ms, inprocess_ms;
  for (std::uint64_t n = 0; n < 400; ++n) {
    {
      Tracer::Scope span(tracer, "serve.protocol_info");
      const double t0 = now_s();
      const std::string response = connection->call(to_line(info, {}, n));
      protocol_ms.push_back(1e3 * (now_s() - t0));
      report.check(response.find("\"ok\":true") != std::string::npos,
                   "serve: idle protocol info failed: " + response);
    }
    {
      Tracer::Scope span(tracer, "serve.inprocess_info");
      const double t0 = now_s();
      const sz::serve::JobRef job = stack.manager.submit([&] { (void)stack.session.info(); });
      report.check(job->wait().ok(), "serve: idle in-process info failed");
      inprocess_ms.push_back(1e3 * (now_s() - t0));
    }
  }
  report.add("serve.protocol_ms", median(protocol_ms) - median(inprocess_ms), "ms");
}

}  // namespace perfbench
