// Serving workload: the flow's baseline design served through
// serve::Server's newline-JSON protocol (the statsizer_serve code path) to
// closed-loop clients, one connection each with one request in flight, each
// sending a seeded mix of what-ifs, info, multi-resize what-ifs, SDC clock
// changes and yields.
#pragma once

#include <string>

#include "bench.h"

namespace perfbench {

/// The protocol stream for cfg.seconds: set-up time (server up -> design
/// loaded -> first answer), throughput and client latencies, and the
/// served-vs-idle what-if bitwise gate.
void run_serve(const RunConfig& cfg, const std::string& baseline_path, Tracer& tracer,
               Report& report);

/// The same stream replayed in-process against serve::JobManager +
/// serve::Session for cfg.seconds; adds the serve.* per-layer metrics.
/// @p idle_whatif_us is the idle FULLSSTA what-if time the served what-if
/// run time is compared with.
void run_serve_inprocess(const RunConfig& cfg, const std::string& baseline_path,
                         double idle_whatif_us, Tracer& tracer, Report& report);

/// The protocol's own cost, as the idle latency of an info request
/// through serve::Server minus the same request through JobManager + Session.
void measure_protocol(const RunConfig& cfg, const std::string& baseline_path, Tracer& tracer,
                      Report& report);

}  // namespace perfbench
