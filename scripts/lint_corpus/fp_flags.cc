// Corpus: fp-flags must fire on every source-level way to give up IEEE
// evaluation in source order, and stay silent where a flag is only named in
// a comment, as in this one: -ffast-math, -Ofast.
#pragma GCC optimize("O3")  // expect-lint: fp-flags

__attribute__((optimize("no-trapping-math"))) double twice(double x) {  // expect-lint: fp-flags
  return x * 2.0;
}

[[gnu::optimize("O2")]] double next(double x) { return x + 1.0; }  // expect-lint: fp-flags

const char* kFastMath = "-ffast-math";  // expect-lint: fp-flags
const char* kOfast = "-Ofast";  // expect-lint: fp-flags
const char* kUnsafe = "-funsafe-math-optimizations";  // expect-lint: fp-flags
const char* kContract = "-ffp-contract=fast";  // expect-lint: fp-flags

// IEEE-preserving flags stay allowed.
const char* kStrict = "-ffp-contract=off";

// Waived: e.g. a flag spelled in a diagnostic message, justified inline.
const char* kMessage = "built without -ffast-math";  // lint-ok: fp-flags corpus example of a justified waiver
