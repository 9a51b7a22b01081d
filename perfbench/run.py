#!/usr/bin/env python3
"""End-to-end benchmark of statsizer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program (perfbench/CMakeLists.txt, which compiles the library from
this checkout's sources) into .bench_build/perfbench, runs one workload, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
Earlier lines carry the run context (host, git SHA, build, thread counts,
seed), percentile sample counts and, for traced runs, the per-layer
self-time table and the path of the Chrome trace file.

Exits 0 only when every correctness gate passed.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no statsizer sources in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def forget_digests_of_other_builds():
    """Result digests are compared only between runs of one perfbench binary;
    a rebuilt program may legitimately differ."""
    stat = os.stat(BINARY)
    ident = "%d %d\n" % (stat.st_mtime_ns, stat.st_size)
    id_path = os.path.join(RUN_DIR, "binary.id")
    previous = open(id_path).read() if os.path.isfile(id_path) else None
    if previous != ident:
        digests = os.path.join(RUN_DIR, "digests.txt")
        if os.path.isfile(digests):
            os.remove(digests)
        with open(id_path, "w") as f:
            f.write(ident)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], check=True,
                               capture_output=True, text=True).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    os.makedirs(RUN_DIR, exist_ok=True)
    forget_digests_of_other_builds()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", RUN_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: program exited %d without a result" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("perfbench: unreadable program result: " + lines[-1][:200])

    context = raw.get("context", {})
    context["git_sha"] = git_sha()
    context["host"] = "%s (%s)" % (platform.node(), platform.machine())
    for line in lines[:-1]:
        print(line)
    print("# context " + json.dumps(context, sort_keys=True))

    metrics = {}
    missing = []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for name in missing:
        print("# FAILED: metric %s was not measured" % name)
    correct = bool(raw["correct"]) and not missing and proc.returncode == 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]) + len(missing),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
