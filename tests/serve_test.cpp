// The serving stack: JobManager (isolation with bitwise-pinned Monte-Carlo
// siblings, priorities, deadlines, cancellation, admission control), Session
// epoch/locking semantics against a single-tenant Flow, and the Server's
// newline-JSON protocol — all failure paths driven by deterministic fault
// injection.
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/flow.h"
#include "serve/job.h"
#include "serve/server.h"
#include "serve/session.h"
#include "ssta/monte_carlo.h"
#include "util/fault.h"
#include "util/json.h"

namespace statsizer::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// JobManager
// ---------------------------------------------------------------------------

TEST(JobManager, RunsJobsAndReportsStats) {
  JobManager manager;
  std::atomic<int> ran{0};
  std::vector<JobRef> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(manager.submit([&] { ran.fetch_add(1); }));
  }
  manager.wait_all();
  EXPECT_EQ(ran.load(), 8);
  for (const JobRef& job : jobs) {
    EXPECT_TRUE(job->done());
    EXPECT_TRUE(job->status().ok());
    EXPECT_EQ(job->attempts(), 1);
  }
  const JobStats stats = manager.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
}

TEST(JobManager, IsolatesThrowingJobs) {
  JobManager manager;
  JobRef bad_runtime = manager.submit([] { throw std::runtime_error("kaboom"); });
  JobRef bad_status =
      manager.submit([] { throw StatusError(Status::invalid_argument("bad arg")); });
  JobRef good = manager.submit([] {});
  manager.wait_all();
  EXPECT_EQ(bad_runtime->status().code(), StatusCode::kInternal);
  EXPECT_NE(bad_runtime->status().message().find("kaboom"), std::string::npos);
  // StatusError keeps its structured code and exact message.
  EXPECT_EQ(bad_status->status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_status->status().message(), "bad arg");
  EXPECT_TRUE(good->status().ok());
  EXPECT_EQ(manager.stats().failed, 2u);
  EXPECT_EQ(manager.stats().completed, 1u);
}

/// Occupies the single worker until release() so later submissions stay
/// queued deterministically.
struct Blocker {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> running{false};
  JobRef job;

  explicit Blocker(JobManager& manager) {
    job = manager.submit([this] {
      running.store(true);
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this] { return released; });
    });
  }
  /// Blocks until the worker actually popped the job off the pending queue —
  /// admission-control tests must not count the blocker against the queue.
  void wait_running() {
    while (!running.load()) std::this_thread::sleep_for(1ms);
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

TEST(JobManager, PrioritiesOrderThePendingQueue) {
  JobManagerOptions options;
  options.threads = 1;
  JobManager manager(options);
  Blocker blocker(manager);

  std::vector<int> order;
  std::mutex order_mutex;
  const auto tagged = [&](int tag) {
    return [&order, &order_mutex, tag] {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  JobOptions low;
  low.priority = 0;
  JobOptions high;
  high.priority = 5;
  manager.submit(tagged(1), low);
  manager.submit(tagged(2), low);
  manager.submit(tagged(3), high);
  manager.submit(tagged(4), high);
  blocker.release();
  manager.wait_all();
  // High priority first; FIFO within a priority.
  EXPECT_EQ(order, (std::vector<int>{3, 4, 1, 2}));
}

TEST(JobManager, CancelsQueuedJobsWithoutRunningThem) {
  JobManagerOptions options;
  options.threads = 1;
  JobManager manager(options);
  Blocker blocker(manager);

  std::atomic<bool> ran{false};
  JobRef queued = manager.submit([&] { ran.store(true); });
  queued->cancel();
  blocker.release();
  manager.wait_all();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(queued->status().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued->attempts(), 0);
  EXPECT_EQ(manager.stats().cancelled, 1u);
}

TEST(JobManager, CancelsRunningJobsAtTheirNextCheckpoint) {
  JobManagerOptions options;
  options.threads = 1;
  JobManager manager(options);
  std::atomic<bool> started{false};
  JobRef job = manager.submit([&] {
    started.store(true);
    for (int i = 0; i < 10'000; ++i) {
      util::checkpoint("test/loop");
      std::this_thread::sleep_for(1ms);
    }
  });
  while (!started.load()) std::this_thread::sleep_for(1ms);
  job->cancel();
  const Status status = job->wait();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("test/loop"), std::string::npos);
  EXPECT_EQ(job->attempts(), 1);
}

TEST(JobManager, QueuedDeadlineExpiresWithoutRunning) {
  JobManagerOptions options;
  options.threads = 1;
  JobManager manager(options);
  Blocker blocker(manager);

  std::atomic<bool> ran{false};
  JobOptions deadline_options;
  deadline_options.deadline = 1ms;
  JobRef job = manager.submit([&] { ran.store(true); }, deadline_options);
  std::this_thread::sleep_for(10ms);
  blocker.release();
  manager.wait_all();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(job->status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(job->attempts(), 0);
  EXPECT_EQ(manager.stats().deadline_exceeded, 1u);
}

TEST(JobManager, DeadlineAbortsMidJobAtACheckpoint) {
  JobManagerOptions options;
  options.threads = 1;
  JobManager manager(options);
  JobOptions deadline_options;
  deadline_options.deadline = 20ms;
  JobRef job = manager.submit(
      [] {
        for (int i = 0; i < 10'000; ++i) {
          util::checkpoint("test/loop");
          std::this_thread::sleep_for(1ms);
        }
      },
      deadline_options);
  EXPECT_EQ(job->wait().code(), StatusCode::kDeadlineExceeded);
}

TEST(JobManager, ShedsWhenQueueFullThenRecovers) {
  JobManagerOptions options;
  options.threads = 1;
  options.limits.max_queue_depth = 1;
  options.limits.retry_after = 25ms;
  JobManager manager(options);
  Blocker blocker(manager);  // occupies the worker; pending queue empty
  blocker.wait_running();

  std::atomic<int> ran{0};
  JobRef queued = manager.submit([&] { ran.fetch_add(1); });  // fills the queue
  JobRef shed = manager.submit([&] { ran.fetch_add(1); });    // rejected
  EXPECT_TRUE(shed->done());
  EXPECT_EQ(shed->status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed->status().message().find("retry after 25ms"), std::string::npos);
  EXPECT_EQ(shed->retry_after(), 25ms);
  EXPECT_EQ(manager.stats().shed, 1u);

  // Graceful recovery: the client honors the hint and resubmits once the
  // queue drained.
  blocker.release();
  manager.wait_all();
  JobRef retried = manager.submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(retried->wait().ok());
  EXPECT_EQ(ran.load(), 2);  // queued + resubmit; the shed job never ran
}

TEST(JobManager, ShedsOnInflightCostButAdmitsWhenEmpty) {
  JobManagerOptions options;
  options.threads = 1;
  options.limits.max_inflight_bytes = 1000;
  JobManager manager(options);
  Blocker blocker(manager);
  blocker.wait_running();

  JobOptions big;
  big.cost_bytes = 2000;
  // Over the limit on its own, but the manager only tracks the blocker
  // (cost 0): a job that could never run otherwise is still admitted.
  JobRef admitted = manager.submit([] {}, big);
  EXPECT_FALSE(admitted->done());
  // Now 2000 bytes are in flight; the next costed job is shed.
  JobOptions small;
  small.cost_bytes = 10;
  JobRef shed = manager.submit([] {}, small);
  EXPECT_EQ(shed->status().code(), StatusCode::kResourceExhausted);
  blocker.release();
  manager.wait_all();
  EXPECT_TRUE(admitted->status().ok());
  EXPECT_EQ(manager.stats().inflight_bytes, 0u);
}

TEST(JobManager, DoesNotRetryNonTransientFailures) {
  // A failing body runs once, whatever its code, kUnavailable included; its
  // status is the job's.
  JobManager manager;
  std::atomic<int> calls{0};
  JobRef job = manager.submit([&] {
    calls.fetch_add(1);
    throw StatusError(Status::unavailable("flaky dependency"));
  });
  EXPECT_EQ(job->wait().code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(job->attempts(), 1);
  EXPECT_EQ(manager.stats().retried, 0u);
}

// ---------------------------------------------------------------------------
// JobManager isolation of real kernels (bitwise-pinned siblings)
// ---------------------------------------------------------------------------

struct McJobs {
  std::vector<Status> status;
  std::vector<ssta::MonteCarloResult> mc;
};

/// One job per flow, each a 64-draw Monte Carlo of that flow's circuit,
/// scoped by its index under @p faults; a failed job keeps an empty result.
McJobs run_mc_jobs(std::vector<core::Flow>& flows, std::size_t threads,
                   const util::FaultPlan* faults) {
  McJobs out;
  out.mc.resize(flows.size());
  JobManagerOptions options;
  options.threads = threads;
  options.faults = faults;
  JobManager manager(options);
  std::vector<JobRef> jobs;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    JobOptions job_options;
    job_options.fault_scope = i;
    jobs.push_back(manager.submit(
        [&flows, &out, i] {
          ssta::MonteCarloOptions mc;
          mc.samples = 64;
          out.mc[i] = ssta::run_monte_carlo(flows[i].timing(), mc);
        },
        job_options));
  }
  manager.wait_all();
  for (const JobRef& job : jobs) out.status.push_back(job->status());
  return out;
}

TEST(JobManager, PoisonedMonteCarloJobFailsStructurallyAndSiblingsStayBitwise) {
  const std::array<const char*, 3> workloads = {"c432", "c499", "c880"};
  std::vector<core::Flow> flows(workloads.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ASSERT_TRUE(flows[i].load_table1(workloads[i]).ok()) << workloads[i];
  }
  const McJobs clean = run_mc_jobs(flows, 2, nullptr);
  for (const Status& s : clean.status) ASSERT_TRUE(s.ok()) << s.message();

  // Poison job 1's first Monte-Carlo chunk; jobs 0 and 2 are untouched.
  util::FaultPlan plan;
  plan.seed = 1;
  util::FaultRule rule;
  rule.site = "ssta/mc/chunk";
  rule.scope = 1;
  rule.hit = 1;
  plan.rules.push_back(rule);

  const McJobs poisoned = run_mc_jobs(flows, 2, &plan);
  EXPECT_EQ(poisoned.status[1].code(), StatusCode::kUnavailable);
  EXPECT_NE(poisoned.status[1].message().find("injected fault at ssta/mc/chunk"),
            std::string::npos);
  EXPECT_TRUE(poisoned.mc[1].circuit_samples.empty());
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(poisoned.status[i].ok());
    // Bitwise-identical to the fault-free run: the failure never leaked.
    EXPECT_EQ(poisoned.mc[i].circuit_samples, clean.mc[i].circuit_samples);
    EXPECT_EQ(poisoned.mc[i].mean_ps, clean.mc[i].mean_ps);
    EXPECT_EQ(poisoned.mc[i].sigma_ps, clean.mc[i].sigma_ps);
  }

  // Thread-count invariance holds for the poisoned run too.
  const McJobs serial = run_mc_jobs(flows, 1, &plan);
  EXPECT_EQ(serial.status[1].code(), StatusCode::kUnavailable);
  EXPECT_EQ(serial.mc[0].circuit_samples, poisoned.mc[0].circuit_samples);
  EXPECT_EQ(serial.mc[2].circuit_samples, poisoned.mc[2].circuit_samples);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// First sizable gate name of a workload (for what-if addressing).
std::vector<std::string> whatif_targets(const std::string& workload, std::size_t count) {
  core::Flow probe;
  EXPECT_TRUE(probe.load_table1(workload).ok());
  std::vector<std::string> names;
  const auto& nl = probe.netlist();
  for (netlist::GateId id = 0; id < nl.node_count() && names.size() < count; ++id) {
    if (!nl.gate(id).fanins.empty()) names.push_back(nl.gate(id).name);
  }
  return names;
}

TEST(ServeSession, WhatIfIsBitwiseEqualToSingleTenantFlow) {
  Session session;
  ASSERT_TRUE(session.load_workload("c432").ok());

  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  auto analyzer = flow.make_analyzer("fullssta");
  (void)analyzer->analyze(flow.timing());

  for (const std::string& gate : whatif_targets("c432", 4)) {
    const auto report = session.what_if({ResizeRequest{gate, 2}});
    ASSERT_TRUE(report.ok()) << report.status().message();
    auto spec = analyzer->propose(flow.netlist().find(gate), 2);
    const timing::Summary& expected = spec->score();
    EXPECT_EQ(report.value().mean_ps, expected.mean_ps) << gate;
    EXPECT_EQ(report.value().sigma_ps, expected.sigma_ps) << gate;
    EXPECT_EQ(report.value().base_mean_ps, analyzer->current().mean_ps);
    spec->rollback();
  }
}

TEST(ServeSession, ConcurrentWhatIfsMatchSerialAnswersForAnyInterleaving) {
  Session session;
  ASSERT_TRUE(session.load_workload("c432").ok());
  const auto gates = whatif_targets("c432", 8);
  ASSERT_EQ(gates.size(), 8u);

  // Serial ground truth.
  std::vector<double> expected_mean(gates.size());
  std::vector<double> expected_sigma(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const auto r = session.what_if({ResizeRequest{gates[i], 1}});
    ASSERT_TRUE(r.ok());
    expected_mean[i] = r.value().mean_ps;
    expected_sigma[i] = r.value().sigma_ps;
  }

  // 8 client threads, 4 rounds each, arbitrary interleaving: every answer
  // must be bitwise-identical to the serial one.
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (std::size_t c = 0; c < gates.size(); ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 4; ++round) {
        const std::size_t i = (c + static_cast<std::size_t>(round)) % gates.size();
        const auto r = session.what_if({ResizeRequest{gates[i], 1}});
        if (!r.ok() || r.value().mean_ps != expected_mean[i] ||
            r.value().sigma_ps != expected_sigma[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeSession, FailedLoadLeavesThePreviousDesignServing) {
  Session session;
  ASSERT_TRUE(session.load_workload("c432").ok());
  const SessionInfo before = session.info();
  EXPECT_EQ(before.circuit, "c432");

  // Unknown workload: kInvalidArgument, nothing changes.
  const Status bad_name = session.load_workload("not-a-circuit");
  EXPECT_EQ(bad_name.code(), StatusCode::kInvalidArgument);

  // Structurally broken design (combinational cycle): the DRC admission
  // gate rejects it and the scratch state is discarded.
  const std::string path = testing::TempDir() + "/cyclic.bench";
  {
    std::ofstream f(path);
    f << "INPUT(a)\nOUTPUT(y)\nb = AND(a, c)\nc = AND(b, a)\ny = AND(c, a)\n";
  }
  const Status cyclic = session.load_file(path);
  EXPECT_EQ(cyclic.code(), StatusCode::kInvalidArgument);

  const SessionInfo after = session.info();
  EXPECT_EQ(after.circuit, "c432");
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.mean_ps, before.mean_ps);  // still serving, bitwise
  EXPECT_TRUE(session.what_if({ResizeRequest{whatif_targets("c432", 1)[0], 1}}).ok());
}

// canonical SSTA, Monte Carlo and ISLE have no what-if, so a session asked
// to serve what-ifs with one refuses the load like any unknown engine.
TEST(ServeSession, RemovedWhatIfEngineRejectsTheLoad) {
  SessionOptions options;
  options.engine = "mc";
  Session session(options);
  const Status s = session.load_workload("c432");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("dsta, fassta, fullssta"), std::string::npos) << s.message();
  EXPECT_FALSE(session.info().loaded);
}

TEST(ServeSession, RejectedSdcLeavesTheSessionAsItWas) {
  // The reference: a twin session that never sees the rejected SDC.
  Session twin;
  ASSERT_TRUE(twin.load_workload("c432").ok());
  Session session;
  ASSERT_TRUE(session.load_workload("c432").ok());
  const SessionInfo before = session.info();

  const Status rejected = session.apply_sdc_text("create_clock -period 0 -name clk");
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("[non-positive-clock]"), std::string::npos)
      << rejected.message();
  const SessionInfo after = session.info();
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.mean_ps, before.mean_ps);
  EXPECT_EQ(after.sigma_ps, before.sigma_ps);

  // size() re-runs the preflight DRC over the served design, so it passes
  // only if the rejected SDC left nothing behind; it then sizes exactly as
  // the twin does.
  const auto sized = session.size(3.0);
  ASSERT_TRUE(sized.ok()) << sized.status().message();
  const auto reference = twin.size(3.0);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  EXPECT_EQ(sized.value().record.resizes, reference.value().record.resizes);
  EXPECT_EQ(sized.value().record.after.mean_ps, reference.value().record.after.mean_ps);
  EXPECT_EQ(sized.value().record.after.sigma_ps, reference.value().record.after.sigma_ps);
  EXPECT_EQ(sized.value().record.after.area_um2, reference.value().record.after.area_um2);
}

TEST(ServeSession, EpochAdvancesOnMutationsAndWhatIfReportsIt) {
  Session session;
  ASSERT_TRUE(session.load_workload("c432").ok());
  const std::uint64_t e0 = session.info().epoch;
  const std::string gate = whatif_targets("c432", 1)[0];

  const auto before = session.what_if({ResizeRequest{gate, 1}});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().epoch, e0);

  ASSERT_TRUE(session.apply_sdc_text("create_clock -period 800 -name clk").ok());
  const std::uint64_t e1 = session.info().epoch;
  EXPECT_GT(e1, e0);

  const auto sized = session.size(3.0);
  ASSERT_TRUE(sized.ok()) << sized.status().message();
  EXPECT_GT(sized.value().epoch, e1);

  // The sizing actually moved the committed base; what-ifs see the new
  // epoch and the new base.
  const auto after = session.what_if({ResizeRequest{gate, 1}});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().epoch, sized.value().epoch);
  EXPECT_DOUBLE_EQ(after.value().base_sigma_ps, sized.value().record.after.sigma_ps);
}

TEST(ServeSession, DeadlineAbortedSizeLeavesAConsistentSession) {
  auto session = std::make_shared<Session>();
  ASSERT_TRUE(session->load_workload("c432").ok());
  const std::string gate = whatif_targets("c432", 1)[0];

  JobManagerOptions manager_options;
  manager_options.threads = 1;
  JobManager manager(manager_options);
  JobOptions options;
  options.deadline = 30ms;
  JobRef job = manager.submit(
      [session] {
        const auto r = session->size(9.0);
        if (!r.ok()) throw StatusError(r.status());
      },
      options);
  EXPECT_EQ(job->wait().code(), StatusCode::kDeadlineExceeded);

  // The session recovered to a consistent, serviceable state: info and
  // what-if still work and agree with each other.
  const SessionInfo info = session->info();
  EXPECT_TRUE(info.loaded);
  const auto report = session->what_if({ResizeRequest{gate, 1}});
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report.value().base_mean_ps, info.mean_ps);
  EXPECT_EQ(report.value().epoch, info.epoch);
}

TEST(ServeSession, RejectsBadWhatIfArguments) {
  Session session;
  EXPECT_EQ(session.what_if({ResizeRequest{"g", 0}}).status().code(),
            StatusCode::kInvalidArgument);  // nothing loaded
  ASSERT_TRUE(session.load_workload("c432").ok());
  EXPECT_EQ(session.what_if({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.what_if({ResizeRequest{"no-such-gate", 0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.what_if({ResizeRequest{whatif_targets("c432", 1)[0], 200}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.yield(0.0, "warp-drive").status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Server protocol
// ---------------------------------------------------------------------------

std::vector<util::Json> run_script(Server& server, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  (void)server.run(in, out);
  std::vector<util::Json> responses;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = util::Json::parse(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (parsed.ok()) responses.push_back(std::move(parsed.value()));
  }
  return responses;
}

double number_at(const util::Json& j, const char* key) {
  const util::Json* v = j.find(key);
  EXPECT_NE(v, nullptr) << key << " missing in " << j.dump();
  return (v != nullptr && v->is_number()) ? v->as_number() : -1.0;
}

std::string string_at(const util::Json& j, const char* key) {
  const util::Json* v = j.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string();
}

bool ok_of(const util::Json& j) {
  const util::Json* v = j.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

TEST(ServeServer, ServesTheProtocolEndToEnd) {
  const std::string gate = whatif_targets("c432", 1)[0];
  ServerOptions options;
  Server server(options);
  const auto responses = run_script(
      server,
      "{\"id\":1,\"op\":\"load\",\"workload\":\"c432\"}\n"
      "{\"id\":2,\"op\":\"whatif\",\"gate\":\"" + gate + "\",\"size\":2}\n"
      "{\"id\":3,\"op\":\"whatif\",\"gate\":\"no-such-gate\",\"size\":1}\n"
      "this is not json\n"
      "{\"id\":5,\"op\":\"frobnicate\"}\n"
      "{\"id\":6,\"op\":\"info\"}\n"
      "{\"id\":7,\"op\":\"status\"}\n"
      "{\"id\":8,\"op\":\"quit\"}\n");
  ASSERT_EQ(responses.size(), 8u);

  EXPECT_TRUE(ok_of(responses[0]));
  EXPECT_EQ(string_at(responses[0], "circuit"), "c432");
  EXPECT_GT(number_at(responses[0], "gates"), 0.0);

  EXPECT_TRUE(ok_of(responses[1]));
  EXPECT_GT(number_at(responses[1], "mean_ps"), 0.0);
  EXPECT_NE(responses[1].find("delta_sigma_ps"), nullptr);

  EXPECT_FALSE(ok_of(responses[2]));
  EXPECT_EQ(string_at(responses[2], "code"), "invalid_argument");

  EXPECT_FALSE(ok_of(responses[3]));  // malformed line
  EXPECT_EQ(string_at(responses[3], "code"), "invalid_argument");
  EXPECT_TRUE(responses[3].find("id")->is_null());

  EXPECT_FALSE(ok_of(responses[4]));  // unknown op
  EXPECT_NE(string_at(responses[4], "error").find("unknown op"), std::string::npos);

  EXPECT_TRUE(ok_of(responses[5]));
  EXPECT_EQ(string_at(responses[5], "circuit"), "c432");

  EXPECT_TRUE(ok_of(responses[6]));
  EXPECT_GE(number_at(responses[6], "submitted"), 3.0);

  EXPECT_TRUE(ok_of(responses[7]));  // quit
}

TEST(ServeServer, StatusCountsEveryJobAnsweredBeforeIt) {
  // The load fails at its start checkpoint. Its response precedes status in
  // the output, so status must already count it as failed and dequeued, even
  // though the status line was read while the load was still queued.
  ServerOptions options;
  auto rule = util::parse_fault_rule("site=serve/job/start,scope=0");
  ASSERT_TRUE(rule.ok());
  options.faults.rules.push_back(rule.value());
  Server server(options);
  const auto responses = run_script(server,
                                    "{\"id\":1,\"op\":\"load\",\"workload\":\"c432\"}\n"
                                    "{\"id\":2,\"op\":\"status\"}\n"
                                    "{\"id\":3,\"op\":\"quit\"}\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(ok_of(responses[0]));
  EXPECT_EQ(string_at(responses[0], "code"), "unavailable");
  EXPECT_TRUE(ok_of(responses[1]));
  EXPECT_EQ(number_at(responses[1], "failed"), 1.0);
  EXPECT_EQ(number_at(responses[1], "queue_depth"), 0.0);
  EXPECT_EQ(number_at(responses[1], "running"), 0.0);
}

TEST(ServeServer, LoadOfAnUnsupportedExtensionAnswersInvalidArgument) {
  // The extension picks the reader; anything but .bench or .v is refused
  // before any file is opened.
  ServerOptions options;
  Server server(options);
  const auto responses = run_script(server,
                                    "{\"id\":1,\"op\":\"load\",\"file\":\"x.txt\"}\n"
                                    "{\"id\":2,\"op\":\"quit\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(ok_of(responses[0]));
  EXPECT_EQ(string_at(responses[0], "code"), "invalid_argument");
  EXPECT_NE(string_at(responses[0], "error").find("unsupported extension '.txt'"),
            std::string::npos)
      << string_at(responses[0], "error");
}

TEST(ServeServer, DeadlineExceededRequestAnswersStructurally) {
  ServerOptions options;
  Server server(options);
  // The load occupies the worker for far longer than 1ms, so the yield's
  // deadline expires while queued; either way the code is structural.
  const auto responses = run_script(
      server,
      "{\"id\":1,\"op\":\"load\",\"workload\":\"c432\"}\n"
      "{\"id\":2,\"op\":\"yield\",\"deadline_ms\":1}\n"
      "{\"id\":3,\"op\":\"quit\"}\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(ok_of(responses[0]));
  EXPECT_FALSE(ok_of(responses[1]));
  EXPECT_EQ(string_at(responses[1], "code"), "deadline_exceeded");
  EXPECT_TRUE(ok_of(responses[2]));
}

TEST(ServeServer, RejectsOutOfRangeOrFractionalIntegerFieldsAsInvalidArgument) {
  ServerOptions options;
  Server server(options);
  // Each of these would be an out-of-range (UB) or lossy double->integer
  // conversion if cast unchecked; the server must answer structurally.
  const std::vector<std::string> bad = {
      R"({"id":1,"op":"whatif","gate":"g","size":65537})",
      R"({"id":2,"op":"whatif","gate":"g","size":-1})",
      R"({"id":3,"op":"whatif","gate":"g","size":1.5})",
      R"({"id":4,"op":"whatif","gate":"g","size":1e300})",
      R"({"id":5,"op":"whatif","resizes":[{"gate":"g","size":1},{"gate":"h","size":65536}]})",
      R"({"id":6,"op":"info","priority":1e300})",
      R"({"id":7,"op":"info","priority":-3000000000})",
      R"({"id":8,"op":"info","priority":0.5})",
      R"({"id":9,"op":"info","deadline_ms":1e300})",
      R"({"id":10,"op":"info","deadline_ms":-5})",
      R"({"id":11,"op":"info","deadline_ms":2.5})",
  };
  std::string script;
  for (const std::string& line : bad) script += line + "\n";
  script += R"({"id":12,"op":"info","priority":-7,"deadline_ms":60000})" "\n";
  script += R"({"id":13,"op":"quit"})" "\n";
  const auto responses = run_script(server, script);
  ASSERT_EQ(responses.size(), bad.size() + 2);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(ok_of(responses[i])) << bad[i];
    EXPECT_EQ(string_at(responses[i], "code"), "invalid_argument") << bad[i];
    EXPECT_EQ(number_at(responses[i], "id"), static_cast<double>(i + 1));
  }
  // In-range integers still pass validation (info on an empty session then
  // fails for its own reason, not the numeric fields).
  EXPECT_EQ(string_at(responses[bad.size()], "error").find("must be an integer"),
            std::string::npos);
  EXPECT_TRUE(ok_of(responses.back()));  // quit
}

// A negative lambda would size for a negative sigma weight, and a negative
// clock would quietly resolve a different one: both answer invalid_argument
// before any job is queued, as the CLIs' util::parse_lambda rule does.
TEST(ServeServer, RejectsNegativeLambdaAndClockPeriodAsInvalidArgument) {
  ServerOptions options;
  Server server(options);
  const std::vector<std::string> bad = {
      R"({"id":1,"op":"size","lambda":-1})",
      R"({"id":2,"op":"size","lambda":-0.5})",
      R"({"id":3,"op":"yield","clock_period_ps":-900})",
      R"({"id":4,"op":"yield","clock_period_ps":-1e-9})",
  };
  std::string script;
  for (const std::string& line : bad) script += line + "\n";
  script += R"({"id":5,"op":"status"})" "\n";
  script += R"({"id":6,"op":"quit"})" "\n";
  const auto responses = run_script(server, script);
  ASSERT_EQ(responses.size(), bad.size() + 2);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(ok_of(responses[i])) << bad[i];
    EXPECT_EQ(string_at(responses[i], "code"), "invalid_argument") << bad[i];
    EXPECT_EQ(number_at(responses[i], "id"), static_cast<double>(i + 1));
  }
  EXPECT_NE(string_at(responses[0], "error").find("'lambda'"), std::string::npos);
  EXPECT_NE(string_at(responses[2], "error").find("'clock_period_ps'"), std::string::npos);
  // Rejected inline: none of them reached the job queue.
  EXPECT_EQ(number_at(responses[bad.size()], "submitted"), 0.0);
  EXPECT_TRUE(ok_of(responses.back()));  // quit
}

// Zero still means "resolve the clock", and lambda 0 is a valid (mean-only)
// sizing: the bounds are inclusive.
TEST(ServeServer, AcceptsZeroLambdaAndZeroClockPeriod) {
  ServerOptions options;
  Server server(options);
  const auto responses = run_script(
      server,
      "{\"id\":1,\"op\":\"load\",\"workload\":\"alu1\"}\n"
      "{\"id\":2,\"op\":\"yield\",\"clock_period_ps\":0}\n"
      "{\"id\":3,\"op\":\"size\",\"lambda\":0}\n"
      "{\"id\":4,\"op\":\"quit\"}\n");
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(ok_of(responses[i])) << responses[i].dump();
  }
  EXPECT_GT(number_at(responses[1], "clock_period_ps"), 0.0);
}

TEST(ServeServer, ShedsWhenTheQueueIsFullWithRetryAfter) {
  ServerOptions options;
  options.threads = 1;
  options.limits.max_queue_depth = 1;
  options.limits.retry_after = 15ms;
  // The load (job 0) stalls 500 ms at its start, so the single worker is
  // still busy with it while the three infos arrive, even on a loaded host:
  // at most one fits the depth-1 queue, the rest shed.
  // (Which info sneaks in, or whether none does because the worker had not
  // yet taken the load off the queue, depends on worker wakeup; the
  // invariants below do not.)
  util::FaultRule stall;
  stall.site = "serve/job/start";
  stall.scope = 0;
  stall.delay_ms = 500;
  stall.fail = false;
  options.faults.rules.push_back(stall);
  Server server(options);

  const auto responses = run_script(
      server,
      "{\"id\":1,\"op\":\"load\",\"workload\":\"c432\"}\n"
      "{\"id\":2,\"op\":\"info\"}\n"
      "{\"id\":3,\"op\":\"info\"}\n"
      "{\"id\":4,\"op\":\"info\"}\n"
      "{\"id\":5,\"op\":\"quit\"}\n");
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_TRUE(ok_of(responses[0]));
  EXPECT_TRUE(ok_of(responses[4]));  // quit
  int shed = 0;
  for (int i = 1; i <= 3; ++i) {
    if (ok_of(responses[i])) continue;  // admitted infos must succeed
    ++shed;
    EXPECT_EQ(string_at(responses[i], "code"), "resource_exhausted") << i;
    EXPECT_EQ(number_at(responses[i], "retry_after_ms"), 15.0) << i;
    EXPECT_NE(string_at(responses[i], "error").find("retry after"), std::string::npos);
  }
  EXPECT_GE(shed, 2);  // a depth-1 queue can hold at most one of the three
  // Responses still came back in request order: id fields are 1..5.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(number_at(responses[static_cast<std::size_t>(i)], "id"), i + 1.0);
  }
}

}  // namespace
}  // namespace statsizer::serve
