#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full gtest suite through CTest.
#
#   scripts/check.sh                 # RelWithDebInfo build + ctest
#   scripts/check.sh --asan          # additionally run the fast tests under
#                                    # AddressSanitizer + UBSan
#   scripts/check.sh --tsan          # additionally run the concurrency suites
#                                    # (concurrent what-if scoring, parallel
#                                    # sizer/recovery/MC/ISLE, analyzer
#                                    # conformance, pool primitives) under
#                                    # ThreadSanitizer with scripts/tsan.supp
#   scripts/check.sh --paranoid      # additionally build with
#                                    # -DSTATSIZER_PARANOID=ON (deep invariant
#                                    # validators compiled into the hot paths)
#                                    # and run the fast tests against it
#   scripts/check.sh --lint          # run the determinism linter self-test,
#                                    # then lint src/ (scripts/
#                                    # lint_determinism.py)
#   scripts/check.sh --tidy          # clang-tidy over the library sources
#                                    # (.clang-tidy); skipped with a warning
#                                    # when clang-tidy is not installed
#   scripts/check.sh --format        # clang-format --dry-run diff gate over
#                                    # tracked C++ sources (.clang-format);
#                                    # skipped with a warning when
#                                    # clang-format is not installed
#   scripts/check.sh --table1-smoke  # additionally run
#                                    # bench_table1 --quick --threads 2 as a
#                                    # post-ctest end-to-end smoke check, and
#                                    # check that a bad --threads exits 2
#   scripts/check.sh --parser-smoke  # additionally drive example_ingest over
#                                    # the malformed corpus: every file must
#                                    # fail with a loud error (exit 1), never
#                                    # crash or parse silently; check that a
#                                    # bad lambda (example_ingest --optimize,
#                                    # example_yield_analysis) exits 2; and
#                                    # lint a generated 200k-gate
#                                    # outputs-first chain (.bench and .v,
#                                    # exit 0)
#   scripts/check.sh --yield-smoke   # additionally run the importance-sampled
#                                    # yield cross-check (isle vs plain MC on
#                                    # c432, tight draw budget) via
#                                    # example_yield_quickstart --check
#   scripts/check.sh --drc           # additionally drive example_ingest
#                                    # --lint over the semantic DRC corpus
#                                    # (every expect-drc marker must fire,
#                                    # exit codes must match severity) and
#                                    # over every builtin workload (must be
#                                    # clean under --strict)
#   scripts/check.sh --serve-smoke   # additionally drive statsizer_serve
#                                    # over a scripted newline-JSON session
#                                    # (load/whatif/yield, malformed input,
#                                    # unknown op, expired deadline, a
#                                    # DRC-rejected sdc — each must answer
#                                    # with its structured code, and a size
#                                    # after the rejected sdc must succeed;
#                                    # a fault-aborted mc what-if must leave
#                                    # the served yield bitwise unchanged),
#                                    # check that bad numeric flags exit 2,
#                                    # and run bench_table1 --inject (a
#                                    # poisoned shard must fail its row, exit 1)
#
# CHECK_REQUIRE_TOOLS=1 turns the clang-tidy / clang-format "not installed,
# gate SKIPPED" warnings into hard failures (for CI images that bake the
# tools in).
#
# Flags compose. Exits non-zero on the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "${JOBS}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" "${CTEST_EXTRA[@]}"
}

ASAN=0
TSAN=0
PARANOID=0
LINT=0
TIDY=0
FORMAT=0
SMOKE=0
PARSER=0
YIELD=0
DRC=0
SERVE=0
for arg in "$@"; do
  case "${arg}" in
    --asan) ASAN=1 ;;
    --tsan) TSAN=1 ;;
    --paranoid) PARANOID=1 ;;
    --lint) LINT=1 ;;
    --tidy) TIDY=1 ;;
    --format) FORMAT=1 ;;
    --table1-smoke) SMOKE=1 ;;
    --parser-smoke) PARSER=1 ;;
    --yield-smoke) YIELD=1 ;;
    --drc) DRC=1 ;;
    --serve-smoke) SERVE=1 ;;
    *)
      echo "usage: scripts/check.sh [--asan] [--tsan] [--paranoid] [--lint] [--tidy]" \
           "[--format] [--table1-smoke] [--parser-smoke] [--yield-smoke] [--drc]" \
           "[--serve-smoke]" >&2
      exit 2
      ;;
  esac
done

# The static gates run first: they are cheap and fail fastest.
if [[ "${LINT}" == 1 ]]; then
  echo "check.sh: determinism lint (self-test + src/)"
  python3 scripts/lint_determinism.py --self-test
  python3 scripts/lint_determinism.py
fi

if [[ "${FORMAT}" == 1 ]]; then
  if command -v clang-format >/dev/null 2>&1; then
    echo "check.sh: clang-format diff gate"
    git ls-files 'src/*.h' 'src/*.cpp' 'tests/*.cpp' 'bench/*.cpp' 'examples/*.cpp' \
      | xargs clang-format --dry-run -Werror
  elif [[ "${CHECK_REQUIRE_TOOLS:-0}" == 1 ]]; then
    echo "check.sh: FAILED: clang-format not installed (CHECK_REQUIRE_TOOLS=1)" >&2
    exit 1
  else
    echo "check.sh: WARNING: clang-format not installed; format gate SKIPPED" >&2
  fi
fi

# Fast-test filter shared by the sanitized and paranoid passes (the long
# end-to-end flows are covered by the normal build; instrumented they would
# dominate the wall clock). SizerParallel stays in: it exercises the
# concurrent candidate-scoring kernel, per-worker scratch reuse, AND the
# parallel speculative what-if confirmations — exactly where memory bugs
# would surface — at ~10 s sanitized. AnalyzerConformance/FullSstaWhatIf stay
# in too: the overlay engine's private-state discipline is what the sanitizer
# should see. AreaRecovery{Parallel,Equivalence,Rollback,Options} stay in as
# well: the screening waves' per-speculation overlays, the incremental
# snapshot patching (TimingContext::apply_snapshot_patch), and the
# chunk-rollback restore path are all concurrent-lifetime code the sanitizer
# should walk. LevelizedUpdate stays in too: its serial update() and
# FULLSSTA passes index the preallocated per-node and per-arc arrays the
# what-if cones read.
# IsleYield/IsleDegeneracy stay in too — the importance sampler's sharded
# draw loop writes per-slot weight/delay vectors from pool workers — except
# the mesh8 SDC point, whose 12.8k-gate Monte-Carlo reference would dominate
# an instrumented run like the other excluded end-to-end flows.
FAST_FILTER=(-E 'FlowRegression|Table1|StatisticalSizer|IsleYield.ResolvesSdcClockOnMesh8')

CTEST_EXTRA=()
run_suite build

if [[ "${ASAN}" == 1 ]]; then
  CTEST_EXTRA=("${FAST_FILTER[@]}")
  run_suite build-asan -DSTATSIZER_SANITIZE=address -DSTATSIZER_BUILD_BENCHES=OFF \
    -DSTATSIZER_BUILD_EXAMPLES=OFF
fi

if [[ "${TSAN}" == 1 ]]; then
  # Race-check the code that actually runs concurrently: the parallel_for /
  # ThreadPool primitives, the parallel speculative scoring windows of the
  # sizer and area recovery (concurrent what-ifs, each walking its own cone
  # serially against the shared snapshot), the sharded MC/ISLE draw loops,
  # the FASSTA engine's lazily refreshed base (many scorers race to refresh
  # it after an epoch bump), and the analyzer conformance suite (which
  # drives concurrent speculations through every engine). TSan detects
  # races through happens-before analysis, so findings do not depend on the
  # host's core count. scripts/tsan.supp documents every tolerated report (currently
  # none); halt_on_error makes any unsuppressed report fail the run loudly.
  # The serving suites (JobManager, ServeSession, ServeServer) are in: the
  # job system's pool handoffs, the session's shared/exclusive lock
  # discipline under concurrent what-ifs, and the server's reader/writer/
  # worker triangle are exactly the lifetimes TSan should walk. ConeBuilder is
  # in too: concurrent FASSTA scorers and speculation waves each collect
  # their cones into their own reused workspace. So are FlowThreading (the
  # default, threaded flow against the serial one), WhatIfAllocation /
  # PdfAllocation (a pool worker scoring an overlay sized on the proposing
  # thread), and FirstAccepted (the speculative walk's parallel windows).
  # KeyedRng and KeyedDraws pin the counter-keyed draws that make the sample
  # loop's workers share no generator state. FasstaLaneScoring walks every
  # size of a gate in lanes through the per-thread scratch and cone workspace
  # the sizer's pool workers score with.
  echo "check.sh: tsan pass (concurrency suites)"
  CTEST_EXTRA=(
    -R 'AnalyzerRegistry|AnalyzerConformance|FullSstaWhatIf|FirstAccepted|EngineSelection|FasstaConeConcurrency|FasstaLaneScoring|IsleDegeneracy|LevelizedUpdate|ConeBuilder|SizerParallel|AreaRecovery|MonteCarloParallel|ParallelFor|StreamSeed|ThreadPool|IsleYield|KeyedRng|KeyedDraws|JobManager|ServeSession|ServeServer|FlowThreading|WhatIfAllocation|FasstaAllocation|PdfAllocation'
    -E 'IsleYield.ResolvesSdcClockOnMesh8'
  )
  export TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp halt_on_error=1 second_deadlock_stack=1"
  run_suite build-tsan -DSTATSIZER_SANITIZE=thread -DSTATSIZER_BUILD_BENCHES=OFF \
    -DSTATSIZER_BUILD_EXAMPLES=OFF
  unset TSAN_OPTIONS
fi

if [[ "${PARANOID}" == 1 ]]; then
  # Deep invariant validators compiled into the hot paths (util/check.h,
  # debug/validate.h): topo-order + load-term CSR audits on every
  # update(), pdf normalization/CDF monotonicity on every sum/max, epoch
  # discipline in the analyzer layer, and per gate in the sizer's FASSTA
  # scoring: one lane re-scored alone equals its lane bitwise, and the
  # current size scores the base cost it reads instead. The
  # corruption-seeding tests in paranoid_check_test verify each validator
  # trips; this pass verifies the *clean* code never trips one.
  echo "check.sh: paranoid pass (STATSIZER_PARANOID=ON, fast tests)"
  CTEST_EXTRA=("${FAST_FILTER[@]}")
  run_suite build-paranoid -DSTATSIZER_PARANOID=ON -DSTATSIZER_BUILD_BENCHES=OFF \
    -DSTATSIZER_BUILD_EXAMPLES=OFF
fi

if [[ "${TIDY}" == 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "check.sh: clang-tidy gate (.clang-tidy over src/)"
    # compile_commands.json is exported by the main configure above.
    git ls-files 'src/*.cpp' | xargs clang-tidy -p build --quiet
  elif [[ "${CHECK_REQUIRE_TOOLS:-0}" == 1 ]]; then
    echo "check.sh: FAILED: clang-tidy not installed (CHECK_REQUIRE_TOOLS=1)" >&2
    exit 1
  else
    echo "check.sh: WARNING: clang-tidy not installed; tidy gate SKIPPED" >&2
  fi
fi

if [[ "${SMOKE}" == 1 ]]; then
  # End-to-end Table-1 sweep on the CI-sized circuits, sharded across two
  # workers. bench_table1 exits nonzero on unknown circuits or failed runs,
  # so this catches whole-flow breakage the unit suites can miss.
  echo "check.sh: table1 smoke (--quick --threads 2)"
  # --threads parses strictly: a negative or non-numeric value is a usage
  # error (exit 2), never a wrapped-around or silently saturated count.
  for bad in '--threads -1' '--threads abc'; do
    set +e
    # shellcheck disable=SC2086  # split the flag from its value
    ./build/bench_table1 --quick ${bad} >/dev/null 2>&1
    rc=$?
    set -e
    if [[ "${rc}" -ne 2 ]]; then
      echo "check.sh: table1 smoke FAILED: bench_table1 ${bad} exited ${rc} (want 2)" >&2
      exit 1
    fi
  done
  ./build/bench_table1 --quick --threads 2 >/dev/null
fi

if [[ "${PARSER}" == 1 ]]; then
  # Malformed-input sweep through the real ingestion entry point. Every
  # corpus file must make example_ingest exit with status 1 (a Status error
  # printed to stderr) — exit 0 means a malformed file parsed silently,
  # anything >= 128 means the parser crashed. SDC files ride on a valid
  # netlist so the failure is attributable to the constraints.
  echo "check.sh: parser smoke (tests/corpus/malformed)"
  VALID_BENCH=tests/corpus/valid_small.bench
  for f in tests/corpus/malformed/*; do
    case "${f}" in
      *.sdc) set +e; ./build/example_ingest "${VALID_BENCH}" --sdc "${f}" >/dev/null 2>&1 ;;
      *)     set +e; ./build/example_ingest "${f}" >/dev/null 2>&1 ;;
    esac
    rc=$?
    set -e
    if [[ "${rc}" -ne 1 ]]; then
      echo "check.sh: parser smoke FAILED: ${f} exited ${rc} (want 1)" >&2
      exit 1
    fi
  done
  # And the valid pairing netlist must still go through cleanly.
  ./build/example_ingest "${VALID_BENCH}" >/dev/null
  # Lambdas parse strictly: a non-numeric, negative or non-finite lambda is
  # a usage error (exit 2), never a silent lambda of 0.
  for bad in abc -1 nan; do
    set +e
    ./build/example_ingest "${VALID_BENCH}" --optimize "${bad}" >/dev/null 2>&1
    rc=$?
    set -e
    if [[ "${rc}" -ne 2 ]]; then
      echo "check.sh: parser smoke FAILED: --optimize ${bad} exited ${rc} (want 2)" >&2
      exit 1
    fi
    # example_yield_analysis's positional lambda follows the same rule.
    set +e
    ./build/example_yield_analysis alu1 "${bad}" >/dev/null 2>&1
    rc=$?
    set -e
    if [[ "${rc}" -ne 2 ]]; then
      echo "check.sh: parser smoke FAILED: yield_analysis lambda ${bad} exited ${rc} (want 2)" >&2
      exit 1
    fi
  done
  # Depth is bounded by memory, not the call stack: a 200k-inverter chain
  # listed outputs-first (every gate waits on the whole chain below it) must
  # lint clean in both formats.
  CHAIN_DIR="$(mktemp -d)"
  python3 - "${CHAIN_DIR}/chain" 200000 <<'PY'
import sys
out, n = sys.argv[1], int(sys.argv[2])
net = lambda i: "a" if i == 0 else ("y" if i == n else "n%d" % i)
with open(out + ".bench", "w") as f:
    f.write("INPUT(a)\nOUTPUT(y)\n")
    f.writelines("%s = NOT(%s)\n" % (net(i), net(i - 1)) for i in range(n, 0, -1))
with open(out + ".v", "w") as f:
    f.write("module chain (a, y);\n  input a;\n  output y;\n")
    f.writelines("  wire n%d;\n" % i for i in range(1, n))
    f.writelines("  INV_X1 g%d (.A(%s), .ZN(%s));\n" % (i, net(i - 1), net(i))
                 for i in range(n, 0, -1))
    f.write("endmodule\n")
PY
  for f in "${CHAIN_DIR}/chain.bench" "${CHAIN_DIR}/chain.v"; do
    set +e
    ./build/example_ingest --lint "${f}" >/dev/null 2>&1
    rc=$?
    set -e
    if [[ "${rc}" -ne 0 ]]; then
      echo "check.sh: parser smoke FAILED: 200k-gate chain ${f##*/} exited ${rc} (want 0)" >&2
      rm -rf "${CHAIN_DIR}"
      exit 1
    fi
  done
  rm -rf "${CHAIN_DIR}"
  echo "check.sh: parser smoke ok ($(ls tests/corpus/malformed | wc -l) files + 200k-gate chain)"
fi

if [[ "${DRC}" == 1 ]]; then
  # Design-rule sweep through the real CLI. Two halves:
  #   1. Semantic corpus: every `expect-drc: <rule-id>` marker in the file
  #      must appear as [rule-id] in the lint output, and the exit code must
  #      match the findings' severity (1 with error-severity findings, 0 for
  #      warnings-only under the default non-strict mode).
  #   2. Builtin workloads: all must lint clean even under --strict.
  echo "check.sh: drc gate (tests/corpus/semantic + builtin workloads)"
  VALID_BENCH=tests/corpus/valid_small.bench
  for f in tests/corpus/semantic/*; do
    case "${f}" in
      *.sdc) args=(--lint "${VALID_BENCH}" --sdc "${f}") ;;
      *)     args=(--lint "${f}") ;;
    esac
    set +e
    out="$(./build/example_ingest "${args[@]}" 2>&1)"
    rc=$?
    set -e
    if [[ "${rc}" -gt 1 ]]; then
      echo "check.sh: drc gate FAILED: ${f} exited ${rc}" >&2
      echo "${out}" >&2
      exit 1
    fi
    while read -r rule; do
      if ! grep -qF "[${rule}]" <<< "${out}"; then
        echo "check.sh: drc gate FAILED: ${f} did not report [${rule}]" >&2
        echo "${out}" >&2
        exit 1
      fi
    done < <(grep -oE 'expect-drc: [a-z-]+' "${f}" | awk '{print $2}')
    if grep -qE ': error: ' <<< "${out}"; then want=1; else want=0; fi
    if [[ "${rc}" -ne "${want}" ]]; then
      echo "check.sh: drc gate FAILED: ${f} exited ${rc} (want ${want})" >&2
      echo "${out}" >&2
      exit 1
    fi
  done
  for w in alu1 alu2 alu3 c432 c499 c880 c1355 c1908 c2670 c3540 c5315 c6288 c7552 \
           mul32 mul64 pipe64 mesh8; do
    if ! ./build/example_ingest --lint --strict --workload "${w}" >/dev/null; then
      echo "check.sh: drc gate FAILED: builtin workload ${w} is not DRC-clean" >&2
      exit 1
    fi
  done
  echo "check.sh: drc gate ok ($(ls tests/corpus/semantic | wc -l) corpus cases, 17 workloads)"
fi

if [[ "${YIELD}" == 1 ]]; then
  # Estimator cross-check through the public flow API: a tight-budget ISLE
  # estimate must agree with a larger plain-MC reference on c432 (3 * SE +
  # discreteness budget) and must not be flagged degenerate. Exits nonzero on
  # disagreement.
  echo "check.sh: yield smoke (isle vs mc on c432)"
  ./build/example_yield_quickstart --check
fi

if [[ "${SERVE}" == 1 ]]; then
  # End-to-end serving smoke through the real binary and the real protocol.
  # A scripted newline-JSON session must produce one response per request, in
  # request order, with structured codes on every failure path; then a fault
  # injection into one bench_table1 shard must fail exactly that row (exit 1)
  # while a clean run stays green.
  echo "check.sh: serve smoke (statsizer_serve protocol + bench_table1 --inject)"
  # Numeric flags parse strictly: a negative, non-numeric or out-of-range
  # value is a usage error (exit 2), never a crash or a silent default.
  for bad in '--threads -1' '--threads abc' '--socket 70000'; do
    set +e
    # shellcheck disable=SC2086  # split the flag from its value
    ./build/statsizer_serve ${bad} </dev/null >/dev/null 2>&1
    rc=$?
    set -e
    if [[ "${rc}" -ne 2 ]]; then
      echo "check.sh: serve smoke FAILED: statsizer_serve ${bad} exited ${rc} (want 2)" >&2
      exit 1
    fi
  done
  SERVE_OUT="$(./build/statsizer_serve --queue-depth 8 <<'EOF'
{"id":1,"op":"load","workload":"c432"}
{"id":2,"op":"whatif","gate":"g10","size":1}
this line is not json
{"id":4,"op":"frobnicate"}
{"id":5,"op":"yield","deadline_ms":1}
{"id":6,"op":"status"}
{"id":7,"op":"sdc","text":"create_clock -period 0 -name clk"}
{"id":8,"op":"size","lambda":3}
{"id":9,"op":"quit"}
EOF
)"
  if [[ "$(wc -l <<< "${SERVE_OUT}")" -ne 9 ]]; then
    echo "check.sh: serve smoke FAILED: expected 9 response lines" >&2
    echo "${SERVE_OUT}" >&2
    exit 1
  fi
  for needle in '"circuit":"c432"' '"delta_sigma_ps"' '"code":"invalid_argument"' \
                'unknown op' '"code":"deadline_exceeded"' '"submitted"'; do
    if ! grep -qF "${needle}" <<< "${SERVE_OUT}"; then
      echo "check.sh: serve smoke FAILED: missing ${needle} in responses" >&2
      echo "${SERVE_OUT}" >&2
      exit 1
    fi
  done
  # A rejected SDC leaves nothing behind: the DRC gate refuses the zero clock,
  # and the size after it must still pass its own preflight.
  if ! sed -n 7p <<< "${SERVE_OUT}" | grep -qF '[non-positive-clock]' || \
     ! sed -n 8p <<< "${SERVE_OUT}" | grep -qF '"ok":true'; then
    echo "check.sh: serve smoke FAILED: a rejected sdc must not block the next size" >&2
    echo "${SERVE_OUT}" >&2
    exit 1
  fi
  # An aborted what-if changes nothing: with the session's what-if checkpoint
  # of request #2 (scopes count from 0) faulted, the default engine's
  # what-if fails with unavailable, and the yields before and after it must
  # match bit for bit.
  FAULT_OUT="$(./build/statsizer_serve \
      --fault 'site=serve/session/whatif,scope=2,hit=0' <<'EOF'
{"id":1,"op":"load","workload":"c432"}
{"id":2,"op":"yield","clock_period_ps":900}
{"id":3,"op":"whatif","gate":"g10","size":1}
{"id":4,"op":"yield","clock_period_ps":900}
{"id":5,"op":"quit"}
EOF
)"
  YIELD_BEFORE="$(sed -n 2p <<< "${FAULT_OUT}" | grep -oE '"yield":[^,}]+' || true)"
  YIELD_AFTER="$(sed -n 4p <<< "${FAULT_OUT}" | grep -oE '"yield":[^,}]+' || true)"
  if ! sed -n 3p <<< "${FAULT_OUT}" | grep -qF '"code":"unavailable"' || \
     [[ -z "${YIELD_BEFORE}" || "${YIELD_BEFORE}" != "${YIELD_AFTER}" ]]; then
    echo "check.sh: serve smoke FAILED: a faulted what-if must answer unavailable" \
         "and leave the yield unchanged" >&2
    echo "${FAULT_OUT}" >&2
    exit 1
  fi
  set +e
  INJECT_OUT="$(./build/bench_table1 --threads 2 \
      --inject 'site=serve/job/start,scope=0' c432 c499 2>&1 >/dev/null)"
  rc=$?
  set -e
  if [[ "${rc}" -ne 1 ]] || \
     ! grep -qE '^c432: unavailable: injected fault' <<< "${INJECT_OUT}"; then
    echo "check.sh: serve smoke FAILED: --inject run exited ${rc} (want 1 + structured fault)" >&2
    echo "${INJECT_OUT}" >&2
    exit 1
  fi
  # Isolation: only the poisoned shard's row may fail ("[table1] c499: ..."
  # progress lines are fine; an anchored "c499: <error>" line is not).
  if grep -qE '^c499: ' <<< "${INJECT_OUT}"; then
    echo "check.sh: serve smoke FAILED: fault leaked into the c499 sibling row" >&2
    echo "${INJECT_OUT}" >&2
    exit 1
  fi
  echo "check.sh: serve smoke ok"
fi

echo "check.sh: all green"
