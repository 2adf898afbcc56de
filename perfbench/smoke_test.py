#!/usr/bin/env python3
"""Smoke test of the repo benchmark: a tiny-scale run of every workload.

    python3 perfbench/smoke_test.py

For each workload in BENCHMARK.json it runs run.py untraced and traced
on a small input and checks that the result line reports every metric
BENCHMARK.json names, with its unit, that no cell failed, and that the
traced pass's span times plus analysis.unattributed_s add up to its
wall time. It also checks that run.py exits non-zero without a result
when only BENCHMARK.json and perfbench/ are present. Exits 1 on the
first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
SEED = "7"

# Per-layer metrics that are span self times (storage.open_ms is one
# in milliseconds); with analysis.unattributed_s they sum to the wall.
SPAN_SECONDS_SUFFIX = "_s"
NOT_SPANS = {"graph.generate_s", "storage.write_s", "bench.traced_wall_s",
             "bench.untraced_wall_s", "analysis.unattributed_s"}


def fail(message):
    print(f"smoke_test: FAIL: {message}")
    sys.exit(1)


def run(root, workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", SEED, "--seconds", "1",
         "--trace", str(trace), "--scale", SCALE],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    return done


def check_result(spec, workload, trace, done):
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}: "
             f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} trace={trace}: {result['failed']} failed cells")
    if result["attempted"] < 1:
        fail(f"{workload}: nothing attempted")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        fail(f"{workload} trace={trace}: metrics differ from "
             f"BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for metric in expected:
        got = metrics[metric["name"]]
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']}: unit {got['unit']} != {metric['unit']}")
        if not math.isfinite(got["value"]):
            fail(f"{metric['name']}: not a number")
        if not trace and got["value"] <= 0:
            fail(f"{metric['name']}: end-to-end metric is {got['value']}")
    if trace:
        value = {name: m["value"] for name, m in metrics.items()}
        spans = sum(v for name, v in value.items()
                    if name.endswith(SPAN_SECONDS_SUFFIX)
                    and not name.endswith("_per_s")
                    and name not in NOT_SPANS)
        spans += value["storage.open_ms"] / 1e3
        total = spans + value["analysis.unattributed_s"]
        if abs(total - value["bench.traced_wall_s"]) > 1e-6 * max(
                1.0, value["bench.traced_wall_s"]):
            fail(f"{workload}: spans + unattributed = {total} != traced "
                 f"wall {value['bench.traced_wall_s']}")


def check_refuses_without_sources():
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "sim_cc_web", "--seed", SEED, "--seconds", "1", "--trace",
             "0"], cwd=bare, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            fail("run.py succeeded without the library sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace, run(ROOT, workload, trace))
            print(f"smoke_test: {workload} trace={trace} ok", flush=True)
    print("smoke_test: PASS")


if __name__ == "__main__":
    main()
