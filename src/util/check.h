// Paranoid invariant-check machinery.
//
// The deep validators (src/debug/validate.h) are always compiled and always
// callable — tests invoke them directly on deliberately corrupted inputs to
// prove each check trips. What STATSIZER_PARANOID controls is whether the
// *hot paths* call them automatically: TimingContext::update() audits its
// topo order and load-term CSR, pdf::sum/max audit normalization and CDF
// monotonicity of every result, the analyzer layer audits speculation-epoch
// discipline. Off (the default) the `if constexpr (debug::kParanoid)` call
// sites compile to nothing; on (cmake -DSTATSIZER_PARANOID=ON, or
// scripts/check.sh --paranoid) every violation fails loudly at the moment of
// corruption instead of ULPs-later.
#pragma once

#include <string>

namespace statsizer::debug {

#if defined(STATSIZER_PARANOID) && STATSIZER_PARANOID
inline constexpr bool kParanoid = true;
#else
inline constexpr bool kParanoid = false;
#endif

/// Runtime spelling of kParanoid, for tests that gate hot-path-trip
/// expectations on the build mode.
[[nodiscard]] constexpr bool paranoid_enabled() { return kParanoid; }

/// Raises the uniform paranoid failure: throws std::logic_error whose message
/// starts with "paranoid: <where>: ". Validators funnel every violation
/// through here so tests can pin the prefix.
[[noreturn]] void check_fail(const char* where, const std::string& what);

}  // namespace statsizer::debug

/// Statement-style check for simple conditions inside validators:
///   STATSIZER_PARANOID_CHECK(cond, "where", "message");
/// Always active when reached (gating on kParanoid happens at the call sites
/// of the validators, not inside them).
#define STATSIZER_PARANOID_CHECK(cond, where, what)      \
  do {                                                   \
    if (!(cond)) ::statsizer::debug::check_fail(where, what); \
  } while (false)
