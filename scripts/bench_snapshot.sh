#!/usr/bin/env bash
# Perf trajectory snapshot: builds the selected benchmark binary (by default
# bench_perf_engines) and records its benchmarks (by default the serial
# update() and FULLSSTA passes, FULLSSTA on alu2, c880, c6288 and mesh8) as
# machine-readable JSON.
#
#   scripts/bench_snapshot.sh                 # writes BENCH_update_levelized.json
#   scripts/bench_snapshot.sh out.json        # custom output path
#   scripts/bench_snapshot.sh out.json REGEX  # custom --benchmark_filter
#
# An output path matching *isle_yield* defaults the filter to the
# importance-sampled yield head-to-head (BM_IsleYield|BM_PlainMcYield, whose
# draws/yield_se counters are the draws-to-target-CI record):
#   scripts/bench_snapshot.sh BENCH_isle_yield.json
#
# An output path matching *drc_sweep* defaults the filter to the full
# design-rule sweep (BM_DrcFullSweep: serial preflight cost per workload):
#   scripts/bench_snapshot.sh BENCH_drc_sweep.json
#
# An output path matching *whatif* defaults the filter to the exact what-if
# layer (BM_WhatIfConfirm: a wave of FULLSSTA confirmations; and
# BM_AreaRecoveryThreads: DSTA/FASSTA screens plus FULLSSTA chunk checks):
#   scripts/bench_snapshot.sh BENCH_whatif.json
#
# An output path matching *fassta_scoring* defaults the filter to FASSTA plan
# scoring (BM_FasstaGateScoring: one call per candidate size against one lane
# walk per gate, at 1 and 4 workers, with exact cone_nodes / lane_nodes
# counters):
#   scripts/bench_snapshot.sh BENCH_fassta_scoring.json
#
# An output path matching *pdf* selects the bench_perf_pdf binary instead
# (BM_SumNodePdfs|BM_MaxNodePdfs: FULLSSTA's sum and max replayed on pairs
# of baselined c880's own node pdfs, ns per op):
#   scripts/bench_snapshot.sh BENCH_pdf_kernels.json
#
# An output path matching *server* selects the bench_server binary instead
# (BM_ServerMixed: jobs/sec + p50/p99 client latency at 1/2/8 concurrent
# clients against a shared serving session):
#   scripts/bench_snapshot.sh BENCH_server.json
#
# The JSON (google-benchmark schema: per-benchmark real_time / cpu_time plus
# the run context) is the repo's perf trajectory — commit a snapshot per perf
# PR so later sessions can diff kernels against it. Numbers are only
# comparable between snapshots taken on the same host; the committed file
# also records the host context for exactly that reason, plus the git SHA
# and the workload set (--context entries in the JSON header) so a snapshot
# is traceable to the exact code and circuits that produced it.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_update_levelized.json}"
BIN=bench_perf_engines
case "${OUT}" in
  *isle_yield*) DEFAULT_FILTER='BM_IsleYield|BM_PlainMcYield' ;;
  *drc_sweep*) DEFAULT_FILTER='BM_DrcFullSweep' ;;
  *whatif*) DEFAULT_FILTER='BM_WhatIfConfirm|BM_AreaRecoveryThreads' ;;
  *fassta_scoring*) DEFAULT_FILTER='BM_FasstaGateScoring' ;;
  *pdf*)
    BIN=bench_perf_pdf
    DEFAULT_FILTER='BM_SumNodePdfs|BM_MaxNodePdfs'
    ;;
  *server*)
    BIN=bench_server
    DEFAULT_FILTER='BM_ServerMixed'
    ;;
  *) DEFAULT_FILTER='BM_TimingUpdate|BM_Fullssta' ;;
esac
FILTER="${2:-${DEFAULT_FILTER}}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
  GIT_SHA="${GIT_SHA}-dirty"
fi

cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}" --target "${BIN}" >/dev/null

# The workload names embedded in the filtered benchmark set (BM_Foo/<name>).
WORKLOADS="$("./build/${BIN}" --benchmark_list_tests \
               --benchmark_filter="${FILTER}" 2>/dev/null |
             sed -n 's|^BM_[^/]*/\([A-Za-z0-9_]*\).*|\1|p' | sort -u |
             paste -sd, - || echo unknown)"

"./build/${BIN}" --json "${OUT}" \
  --context "git_sha=${GIT_SHA}" \
  --context "workloads=${WORKLOADS}" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time=0.2

echo "bench_snapshot.sh: wrote ${OUT} (git_sha=${GIT_SHA}, workloads=${WORKLOADS})"
