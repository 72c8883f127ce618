#!/usr/bin/env python3
"""Serving benchmark of the LITE tuning service.

Builds perfbench/ (and the library sources it compiles) into the build
directory, runs one workload, and prints the report followed by one JSON
result line:

    python3 perfbench/run.py --workload pool1k --seed 1 --seconds 10 --trace 0

Workloads: pool1k, mixed_open, staged, update_plane (see perfbench/README.md).
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 is the
traced run, which reports the per-layer metrics and writes its spans to
<build dir>/traces/. --selftest builds and runs the helper self-test.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, relative
to the working directory, which must be the root of the checkout. The exit
status is 0 when every correctness check passed and non-zero otherwise.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pool1k", "mixed_open", "staged", "update_plane")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> None:
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                sys.exit(3)


def expected_metrics(trace: bool):
    """Metric name -> unit from BENCHMARK.json, or None when it is absent."""
    spec_path = Path("BENCHMARK.json")
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result: dict, trace: bool) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s has no finite value" % name)
    want = expected_metrics(trace)
    if want is not None:
        got = {n: m.get("unit") for n, m in result["metrics"].items()}
        for name, unit in want.items():
            if name not in got:
                problems.append("metric %s is missing" % name)
            elif got[name] != unit:
                problems.append("metric %s has unit %s, want %s" % (name, got[name], unit))
        result["metrics"] = {n: m for n, m in result["metrics"].items() if n in want}
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    build(build_dir)
    if args.selftest:
        return subprocess.run([str(build_dir / "perfbench_helpers_test")],
                              cwd=build_dir).returncode
    if args.workload is None:
        parser.error("--workload is required")

    traces = build_dir / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(build_dir / "lite_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(build_dir / "scratch"),
           "--trace-out", str(traces / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (args.workload, RUN_TIMEOUT_S))
        return 4
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: %s exited with status %d\n" % (args.workload, proc.returncode))
        return proc.returncode or 5
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    problems = check_result(result, bool(args.trace))
    for p in problems:
        print("  RESULT INVALID: " + p)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
