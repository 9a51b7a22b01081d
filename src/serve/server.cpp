#include "serve/server.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"

namespace statsizer::serve {

namespace {

using util::Json;

std::string get_string(const Json& req, std::string_view key, std::string_view fallback) {
  const Json* v = req.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string(fallback);
}

double get_number(const Json& req, std::string_view key, double fallback) {
  const Json* v = req.find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

/// True when @p v is an integer in [lo, hi]. JSON numbers arrive as doubles,
/// and converting a non-finite or out-of-range double to an integer type is
/// UB, so every such conversion below is gated on this.
bool integral_in(double v, double lo, double hi) {
  return v >= lo && v <= hi && std::trunc(v) == v;
}

/// True when @p v is a finite number >= 0: the rule util::parse_lambda
/// applies to the CLIs' lambdas, here for 'lambda' and 'clock_period_ps'.
bool finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }

/// Upper bound on deadline_ms: one year, far below where adding it to a
/// steady_clock time point could overflow.
constexpr double kMaxDeadlineMs = 365.0 * 24 * 3600 * 1000;

bool get_bool(const Json& req, std::string_view key, bool fallback) {
  const Json* v = req.find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

/// Appends the resize {gate, size} to @p out; size must be an integer in
/// [0, 65535] (a uint16_t size index).
Status add_resize(const Json& gate, const Json& size, std::vector<ResizeRequest>& out) {
  if (!integral_in(size.as_number(), 0.0, 65535.0)) {
    return Status::invalid_argument("whatif: 'size' must be an integer in [0, 65535]");
  }
  out.push_back(
      ResizeRequest{gate.as_string(), static_cast<std::uint16_t>(size.as_number())});
  return Status();
}

Status parse_resizes(const Json& req, std::vector<ResizeRequest>& out) {
  if (const Json* arr = req.find("resizes"); arr != nullptr) {
    if (!arr->is_array() || arr->as_array().empty()) {
      return Status::invalid_argument("whatif: 'resizes' must be a non-empty array");
    }
    for (const Json& e : arr->as_array()) {
      const Json* gate = e.find("gate");
      const Json* size = e.find("size");
      if (gate == nullptr || !gate->is_string() || size == nullptr || !size->is_number()) {
        return Status::invalid_argument(
            "whatif: each resize needs a string 'gate' and a numeric 'size'");
      }
      if (const Status s = add_resize(*gate, *size, out); !s.ok()) return s;
    }
    return Status();
  }
  const Json* gate = req.find("gate");
  const Json* size = req.find("size");
  if (gate == nullptr || !gate->is_string() || size == nullptr || !size->is_number()) {
    return Status::invalid_argument(
        "whatif: needs 'gate' + 'size' (or a 'resizes' array)");
  }
  return add_resize(*gate, *size, out);
}

/// One output line, in request order. Either an already-rendered inline
/// response (malformed input, status, quit) or a submitted job whose payload
/// the body fills on success.
struct Pending {
  Json id;
  JobRef job;                           // null for inline responses
  std::shared_ptr<Json> payload;        // success payload (job responses)
  Json inline_response;
};

Json render(const Json& id, const Status& status, const Json* payload,
            std::chrono::milliseconds retry_after) {
  Json r;
  if (status.ok()) {
    if (payload != nullptr) r = *payload;
    r["ok"] = true;
  } else {
    r["ok"] = false;
    r["code"] = to_string(status.code());
    r["error"] = std::string(status.message());
    if (status.code() == StatusCode::kResourceExhausted && retry_after.count() > 0) {
      r["retry_after_ms"] = static_cast<double>(retry_after.count());
    }
  }
  r["id"] = id;
  return r;
}

Json render_inline(const Json& id, const Status& status) {
  return render(id, status, nullptr, std::chrono::milliseconds(0));
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  JobManagerOptions mo;
  mo.threads = options_.threads;
  mo.limits = options_.limits;
  mo.faults = options_.faults.empty() ? nullptr : &options_.faults;
  manager_ = std::make_unique<JobManager>(mo);
}

Server::~Server() = default;

SessionRef Server::session_for(const std::string& name) {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    it = sessions_.emplace(name, std::make_shared<Session>(options_.session)).first;
  }
  return it->second;
}

std::uint64_t Server::run(std::istream& in, std::ostream& out) {
  std::deque<Pending> queue;
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  bool closed = false;
  std::uint64_t served = 0;

  // Single writer: drains completions in submission order, so responses come
  // back in request order and output lines never interleave.
  std::thread writer([&] {
    for (;;) {
      Pending entry;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return !queue.empty() || closed; });
        if (queue.empty()) return;
        entry = std::move(queue.front());
        queue.pop_front();
      }
      Json response;
      if (entry.job != nullptr) {
        const Status status = entry.job->wait();
        response = render(entry.id, status, entry.payload.get(), entry.job->retry_after());
      } else {
        response = std::move(entry.inline_response);
      }
      out << response.dump() << '\n' << std::flush;
      ++served;
    }
  });

  const auto enqueue = [&](Pending entry) {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    queue.push_back(std::move(entry));
    queue_cv.notify_one();
  };
  const auto enqueue_inline = [&](Json response) {
    Pending entry;
    entry.inline_response = std::move(response);
    enqueue(std::move(entry));
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    auto parsed = Json::parse(line);
    if (!parsed.ok()) {
      enqueue_inline(render_inline(Json(), parsed.status()));
      continue;
    }
    const Json& req = parsed.value();
    const Json* id_field = req.find("id");
    const Json id = id_field != nullptr ? *id_field : Json();
    const std::string op = get_string(req, "op", "");
    if (op.empty()) {
      enqueue_inline(render_inline(id, Status::invalid_argument("missing string 'op'")));
      continue;
    }

    if (op == "quit") {
      manager_->wait_all();
      Json response;
      response["ok"] = true;
      response["id"] = id;
      enqueue_inline(std::move(response));
      break;
    }
    if (op == "status") {
      const JobStats s = manager_->stats();
      Json response;
      response["ok"] = true;
      response["id"] = id;
      response["submitted"] = s.submitted;
      response["completed"] = s.completed;
      response["failed"] = s.failed;
      response["cancelled"] = s.cancelled;
      response["deadline_exceeded"] = s.deadline_exceeded;
      response["shed"] = s.shed;
      response["retried"] = s.retried;
      response["queue_depth"] = s.queue_depth;
      response["running"] = s.running;
      {
        const std::lock_guard<std::mutex> lock(sessions_mutex_);
        response["sessions"] = sessions_.size();
      }
      enqueue_inline(std::move(response));
      continue;
    }

    const double priority = get_number(req, "priority", 0.0);
    const double deadline_ms = get_number(req, "deadline_ms", 0.0);
    if (!integral_in(priority, std::numeric_limits<int>::min(),
                     std::numeric_limits<int>::max())) {
      enqueue_inline(render_inline(
          id, Status::invalid_argument("'priority' must be an integer in the int range")));
      continue;
    }
    if (!integral_in(deadline_ms, 0.0, kMaxDeadlineMs)) {
      enqueue_inline(render_inline(
          id, Status::invalid_argument(
                  "'deadline_ms' must be an integer in [0, 31536000000] (0 = none)")));
      continue;
    }
    const SessionRef session = session_for(get_string(req, "session", "default"));
    JobOptions job_options;
    job_options.priority = static_cast<int>(priority);
    job_options.deadline = std::chrono::milliseconds(static_cast<long>(deadline_ms));

    auto payload = std::make_shared<Json>();
    std::function<void()> body;

    if (op == "load") {
      const std::string workload = get_string(req, "workload", "");
      const std::string file = get_string(req, "file", "");
      const bool baseline = get_bool(req, "baseline", false);
      if (workload.empty() == file.empty()) {
        enqueue_inline(render_inline(
            id, Status::invalid_argument("load: needs exactly one of 'workload' / 'file'")));
        continue;
      }
      job_options.cost_bytes = 1 << 20;  // design size unknown until loaded
      body = [session, workload, file, baseline, payload] {
        const Status s = workload.empty() ? session->load_file(file, baseline)
                                          : session->load_workload(workload, baseline);
        if (!s.ok()) throw StatusError(s);
        const SessionInfo info = session->info();
        Json& p = *payload;
        p["circuit"] = info.circuit;
        p["gates"] = info.gates;
        p["epoch"] = info.epoch;
        p["mean_ps"] = info.mean_ps;
        p["sigma_ps"] = info.sigma_ps;
      };
    } else if (op == "sdc") {
      const Json* text = req.find("text");
      if (text == nullptr || !text->is_string()) {
        enqueue_inline(render_inline(id, Status::invalid_argument("sdc: needs string 'text'")));
        continue;
      }
      const std::string sdc = text->as_string();
      job_options.cost_bytes = session->approx_cost_bytes();
      body = [session, sdc, payload] {
        if (const Status s = session->apply_sdc_text(sdc); !s.ok()) throw StatusError(s);
        (*payload)["epoch"] = session->info().epoch;
      };
    } else if (op == "whatif") {
      std::vector<ResizeRequest> resizes;
      if (const Status s = parse_resizes(req, resizes); !s.ok()) {
        enqueue_inline(render_inline(id, s));
        continue;
      }
      body = [session, resizes, payload] {
        const StatusOr<WhatIfReport> r = session->what_if(resizes);
        if (!r.ok()) throw StatusError(r.status());
        const WhatIfReport& w = r.value();
        Json& p = *payload;
        p["epoch"] = w.epoch;
        p["mean_ps"] = w.mean_ps;
        p["sigma_ps"] = w.sigma_ps;
        p["base_mean_ps"] = w.base_mean_ps;
        p["base_sigma_ps"] = w.base_sigma_ps;
        p["delta_mean_ps"] = w.mean_ps - w.base_mean_ps;
        p["delta_sigma_ps"] = w.sigma_ps - w.base_sigma_ps;
      };
    } else if (op == "size") {
      const Json* lambda = req.find("lambda");
      if (lambda == nullptr || !lambda->is_number()) {
        enqueue_inline(
            render_inline(id, Status::invalid_argument("size: needs numeric 'lambda'")));
        continue;
      }
      const double lambda_value = lambda->as_number();
      if (!finite_non_negative(lambda_value)) {
        enqueue_inline(render_inline(
            id, Status::invalid_argument("size: 'lambda' must be a finite number >= 0")));
        continue;
      }
      job_options.cost_bytes = session->approx_cost_bytes();
      body = [session, lambda_value, payload] {
        const StatusOr<SizeResult> r = session->size(lambda_value);
        if (!r.ok()) throw StatusError(r.status());
        const SizeResult& s = r.value();
        Json& p = *payload;
        p["epoch"] = s.epoch;
        p["lambda"] = s.record.lambda;
        p["mean_ps"] = s.record.after.mean_ps;
        p["sigma_ps"] = s.record.after.sigma_ps;
        p["area_um2"] = s.record.after.area_um2;
        p["mean_change"] = s.record.mean_change;
        p["sigma_change"] = s.record.sigma_change;
        p["area_change"] = s.record.area_change;
        p["iterations"] = s.record.iterations;
        p["resizes"] = s.record.resizes;
      };
    } else if (op == "yield") {
      const double clock = get_number(req, "clock_period_ps", 0.0);
      if (!finite_non_negative(clock)) {
        enqueue_inline(render_inline(
            id, Status::invalid_argument(
                    "yield: 'clock_period_ps' must be a finite number >= 0 (0 = resolve)")));
        continue;
      }
      const std::string engine = get_string(req, "engine", "isle");
      job_options.cost_bytes = session->approx_cost_bytes();
      body = [session, clock, engine, payload] {
        const StatusOr<YieldResult> r = session->yield(clock, engine);
        if (!r.ok()) throw StatusError(r.status());
        const YieldResult& y = r.value();
        Json& p = *payload;
        p["epoch"] = y.epoch;
        p["engine"] = y.engine;
        p["yield"] = y.yield;
        p["std_error"] = y.std_error;
        p["draws"] = y.draws;
        p["clock_period_ps"] = y.clock_period_ps;
      };
    } else if (op == "info") {
      body = [session, payload] {
        const SessionInfo info = session->info();
        Json& p = *payload;
        p["epoch"] = info.epoch;
        p["loaded"] = info.loaded;
        p["circuit"] = info.circuit;
        p["gates"] = info.gates;
        p["mean_ps"] = info.mean_ps;
        p["sigma_ps"] = info.sigma_ps;
        p["area_um2"] = info.area_um2;
      };
    } else {
      enqueue_inline(render_inline(
          id, Status::invalid_argument(
                  "unknown op '" + op +
                  "' (known: load, sdc, whatif, size, yield, info, status, quit)")));
      continue;
    }

    Pending entry;
    entry.id = id;
    entry.payload = payload;
    entry.job = manager_->submit(std::move(body), job_options);
    enqueue(std::move(entry));
  }

  {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    closed = true;
    queue_cv.notify_one();
  }
  writer.join();
  return served;
}

}  // namespace statsizer::serve
