// statsizer_serve — the timing-as-a-service front end (serve::Server) as a
// process. Speaks newline-JSON on stdin/stdout by default, or accepts TCP
// connections with --socket PORT (POSIX only; thread per connection, each
// with its own protocol loop over the shared server).
//
//   ./statsizer_serve --threads 4 <<'EOF'
//   {"id":1,"op":"load","workload":"c432"}
//   {"id":2,"op":"whatif","gate":"g100","size":2}
//   {"id":3,"op":"quit"}
//   EOF
//
// Fault injection (--fault SPEC, repeatable) is the deterministic test
// harness for the serving stack: every isolation / deadline / shedding path
// can be forced on demand. The server does not retry: a failed request
// answers with its code. SPEC syntax (util::parse_fault_rule):
//   site=<name|prefix*>[,scope=<N|*>][,hit=<N|0>][,p=<prob>]
//       [,delay_ms=<N>][,code=<status code>][,msg=<text>][,delay_only]
// e.g. --fault 'site=serve/job/start,scope=2' fails request #2's first
// checkpoint with kUnavailable, and it answers "unavailable".
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/fault.h"
#include "util/numeric.h"

#ifdef __unix__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>  // libstdc++: iostream over a connected fd

#include <thread>
#endif

namespace {

/// Upper bound for --threads: far above any real core count, low enough that
/// a typo cannot ask the pool for millions of threads.
constexpr std::uint64_t kMaxThreads = 1024;

void usage() {
  std::cerr
      << "usage: statsizer_serve [options]\n"
         "  --threads N          worker threads (default 1; 0 = hardware; max 1024)\n"
         "  --queue-depth N      admission: max pending requests (default 64)\n"
         "  --max-inflight-mb N  admission: max summed request cost (default off)\n"
         "  --retry-after-ms N   backoff hint on shed requests (default 10)\n"
         "  --engine NAME        what-if engine: dsta, fassta, fullssta (default fullssta)\n"
         "  --fault SPEC         deterministic fault rule (repeatable)\n"
         "  --seed N             fault-plan seed (default 1)\n"
#ifdef __unix__
         "  --socket PORT        serve TCP instead of stdin/stdout (0..65535)\n"
#endif
         "  --help               this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  using statsizer::serve::Server;
  using statsizer::serve::ServerOptions;

  ServerOptions options;
  options.limits.max_queue_depth = 64;
  options.faults.seed = 1;
  int port = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "statsizer_serve: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric values parse strictly (whole string, range-checked); a bad
    // one is a usage error.
    const auto number = [&](std::uint64_t max) -> std::uint64_t {
      const char* text = next();
      const std::optional<std::uint64_t> value = statsizer::util::parse_uint(text, max);
      if (!value) {
        std::cerr << "statsizer_serve: bad " << arg << " value '" << text << "' (want 0.."
                  << max << ")\n";
        usage();
        std::exit(2);
      }
      return *value;
    };
    if (arg == "--threads") {
      options.threads = number(kMaxThreads);
    } else if (arg == "--queue-depth") {
      options.limits.max_queue_depth = number(SIZE_MAX);
    } else if (arg == "--max-inflight-mb") {
      options.limits.max_inflight_bytes = number(SIZE_MAX >> 20) << 20;
    } else if (arg == "--retry-after-ms") {
      options.limits.retry_after = std::chrono::milliseconds(number(INT32_MAX));
    } else if (arg == "--engine") {
      options.session.engine = next();
    } else if (arg == "--fault") {
      auto rule = statsizer::util::parse_fault_rule(next());
      if (!rule.ok()) {
        std::cerr << "statsizer_serve: bad --fault: " << rule.status().message() << "\n";
        return 2;
      }
      options.faults.rules.push_back(std::move(rule.value()));
    } else if (arg == "--seed") {
      options.faults.seed = number(UINT64_MAX);
    } else if (arg == "--socket") {
      port = static_cast<int>(number(65535));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "statsizer_serve: unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }

  Server server(options);

  if (port < 0) {
    (void)server.run(std::cin, std::cout);
    return 0;
  }

#ifdef __unix__
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "statsizer_serve: socket() failed\n";
    return 1;
  }
  const int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::cerr << "statsizer_serve: bind/listen on 127.0.0.1:" << port << " failed\n";
    return 1;
  }
  std::cerr << "statsizer_serve: listening on 127.0.0.1:" << port << "\n";
  // Thread per connection; each runs its own protocol loop against the
  // shared Server (sessions and the job system are shared across clients).
  // A client's quit op ends only its own connection.
  std::vector<std::thread> connections;
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    connections.emplace_back([fd, &server] {
      __gnu_cxx::stdio_filebuf<char> inbuf(fd, std::ios::in);
      __gnu_cxx::stdio_filebuf<char> outbuf(::dup(fd), std::ios::out);
      std::istream in(&inbuf);
      std::ostream out(&outbuf);
      (void)server.run(in, out);
    });
  }
  for (std::thread& t : connections) t.join();
  ::close(listener);
  return 0;
#else
  std::cerr << "statsizer_serve: --socket is not supported on this platform\n";
  return 2;
#endif
}
