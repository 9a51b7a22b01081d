// Corpus: shared-mutable-capture must fire on parallel worker lambdas that
// grow or accumulate into by-reference captured state, and stay silent on
// per-slot writes, per-chunk locals, and by-value captures.
#include <cstddef>
#include <vector>

namespace util {
template <typename Body>
void parallel_for(std::size_t total, std::size_t chunk, std::size_t threads, Body&& body);
}

namespace sta {
struct TimingContext;
template <typename Body>
void sweep_levels(const TimingContext& ctx, std::size_t threads, std::size_t chunk, Body&& body);
}

void racy_push_back(std::size_t n) {
  std::vector<double> results;
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      results.push_back(static_cast<double>(i));  // expect-lint: shared-mutable-capture
    }
  });
}

void racy_accumulate(std::size_t n) {
  double total = 0.0;
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      total += static_cast<double>(i);  // expect-lint: shared-mutable-capture
    }
  });
}

void racy_counter(std::size_t n) {
  std::size_t hits = 0;
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      ++hits;  // expect-lint: shared-mutable-capture
    }
  });
}

// The levelized sweep runs its body on pool workers too.
void racy_sweep_count(const sta::TimingContext& ctx) {
  std::size_t visited = 0;
  sta::sweep_levels(ctx, 0, 16, [&](unsigned id) {
    visited += id;  // expect-lint: shared-mutable-capture
  });
}

void per_slot_sweep(const sta::TimingContext& ctx, std::vector<double>& slew) {
  sta::sweep_levels(ctx, 0, 16, [&](unsigned id) {
    slew[id] = 1.0;  // silent: per-gate slot
  });
}

// Per-slot writes are the sanctioned pattern: each index owns its element.
void per_slot_write(std::size_t n) {
  std::vector<double> results(n, 0.0);
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      results[i] = static_cast<double>(i);  // silent: subscripted per-slot write
    }
  });
}

// Per-chunk locals merged after the join are fine too (the local is declared
// inside the body, so it is per-invocation by construction).
void per_chunk_local(std::size_t n, std::vector<double>& partial) {
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
    double local = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      local += static_cast<double>(i);  // silent: body-local accumulator
    }
    partial[chunk] = local;  // silent: per-slot write keyed by chunk index
  });
}

// A per-thread scratch carries a storage class; it is still a body local.
void per_thread_scratch(std::size_t n, std::vector<double>& out) {
  util::parallel_for(n, 1, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    thread_local std::vector<double> scratch;
    static constexpr std::size_t kLimit = 4;
    scratch.clear();
    for (std::size_t i = begin; i < end && i < kLimit; ++i) {
      scratch.push_back(static_cast<double>(i));  // silent: thread_local body local
    }
    out[begin] = scratch.empty() ? 0.0 : scratch.back();
  });
}

// A local declared right after a closing brace is a body local too.
void local_after_block(std::size_t n, std::vector<double>& out) {
  util::parallel_for(n, 1, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    if (begin == end) {
      return;
    }
    std::size_t lanes = 0;
    for (std::size_t i = begin; i < end; ++i) {
      lanes++;  // silent: declared after the if block
    }
    out[begin] = static_cast<double>(lanes);
  });
}

// Neither shape hides a captured outer container.
void racy_after_block(std::size_t n, std::vector<double>& shared) {
  thread_local std::vector<double> outer;
  util::parallel_for(n, 1, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    if (begin == end) {
      return;
    }
    shared.push_back(1.0);  // expect-lint: shared-mutable-capture
    outer.push_back(1.0);  // expect-lint: shared-mutable-capture
  });
}

// Waived: a deliberately shared atomic-like pattern, justified inline.
void waived_shared(std::size_t n, std::vector<double>& bins) {
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      // lint-ok: shared-mutable-capture corpus example of a justified waiver
      bins.resize(end);
    }
  });
}
