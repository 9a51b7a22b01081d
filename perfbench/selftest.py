#!/usr/bin/env python3
"""The benchmark's own tests, in seconds: the perfbench program's unit checks
(percentile rule, median, seeding, self time), then every code path of
run.py on the smoke-sized input (c432 and a one-second request stream),
untraced and traced. Run from anywhere:

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def check_run(trace):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload", "smoke",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, "trace %d exited %d:\n%s" % (trace, proc.returncode, proc.stdout)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(SPEC) as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted), result["metrics"]
    assert any(line.startswith("# context ") for line in lines)
    if trace:
        assert any(line.startswith("# trace: ") for line in lines)
        trace_path = next(l for l in lines if l.startswith("# trace: "))[len("# trace: "):]
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        assert any(e["name"] == "flow" for e in events)
    print("selftest: run.py --trace %d ok (%d metrics)" % (trace, len(result["metrics"])))


def main():
    run.build()
    subprocess.run([run.BINARY, "--selftest"], check=True)
    for trace in (0, 1):
        check_run(trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
