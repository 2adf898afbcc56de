#!/usr/bin/env python3
"""Entry point of the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the driver and the library from the checkout's sources (Release,
into $CARGO_TARGET_DIR or .bench_build), generates the seeded input
graph and writes it in the workload's on-disk format several times
(setup_s is the median), measures the workload for about S seconds and
prints one JSON result as the last line of standard output: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
Exits non-zero, without a result, when the sources are missing, the
build fails or the driver fails or runs out of time.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("heavy_ra_social", "sim_cc_web", "light_ra_rmat")
# Whole-run limit, below the 180 s a run may take once built.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 840.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_maccess_per_s": "Maccess/s",
    "l3_miss_rate": "ratio",
    "comp_bytes_per_edge": "B/edge",
}


def per_layer_unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_medges_per_s"):
        return "Medges/s"
    if name.endswith("_maccess_per_s"):
        return "Maccess/s"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "count"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, deadline):
    """Configure once, then build incrementally; output goes to stderr."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=deadline - time.monotonic())
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   check=True, stdout=sys.stderr,
                   timeout=deadline - time.monotonic())
    return os.path.join(cmake_dir, "gral_perfbench")


def run_driver(command, deadline):
    """Run the driver; return its stdout lines and its last line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise subprocess.TimeoutExpired(command, 0)
    done = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def source_digest():
    """SHA-256 of the library and benchmark sources: provenance that needs
    no git, and the key of the determinism records."""
    digest = hashlib.sha256()
    for base in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_describe():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check_determinism(record_path, result):
    """Compare the cells' exact outputs with earlier runs of this seed and
    program; return the RAs whose outputs drifted. New fields (the
    permutation hashes only traced runs see) are added to the record."""
    record = {"fingerprint": result["fingerprint"], "cells": {}}
    if os.path.exists(record_path):
        with open(record_path) as handle:
            record = json.load(handle)
    drifted = []
    if record["fingerprint"] != result["fingerprint"]:
        drifted.append("input graph fingerprint")
    for cell in result["cells"]:
        known = record["cells"].setdefault(cell["ra"], {})
        for field, value in cell.items():
            if field in known and known[field] != value:
                drifted.append(f'{cell["ra"]}.{field}')
            known.setdefault(field, value)
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return drifted


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor in (0, 1]; the smoke test "
                             "uses a tiny one")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the library sources (src/) are not beside perfbench/")
        return 1
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir, time.monotonic() + BUILD_LIMIT_S)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        log(f"error: build failed: {error}")
        return 1

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-scale{args.scale:g}"
    data_dir = os.path.join(build_dir, "data", tag)
    os.makedirs(data_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", data_dir, "--scale", repr(args.scale)]
    try:
        _, setup = run_driver([binary, "setup"] + common, deadline)
        lines, result = run_driver(
            [binary, "run"] + common + ["--seconds", repr(args.seconds),
                                        "--trace", str(args.trace)],
            deadline)
        provenance = json.loads(next(
            line for line in lines if line.startswith("provenance "))[11:])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError, IndexError, StopIteration) as error:
        log(f"error: driver failed: {error}")
        return 1

    digest = source_digest()
    provenance.update({"git_describe": git_describe(),
                       "source_sha256": digest,
                       "run_seconds": args.seconds})
    for line in lines[:-1]:
        if not line.startswith("provenance "):
            print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))

    failures = list(result["failures"])
    drifted = check_determinism(
        os.path.join(build_dir, "determinism", f"{tag}-{digest[:16]}.json"),
        result)
    failures += [f"{name}: differs from an earlier run of this seed"
                 for name in drifted]
    failed = len(result["failures"]) + len({name.split(".")[0]
                                             for name in drifted})
    for failure in failures:
        log(f"FAILED {failure}")

    total_setup = [g + w for g, w in zip(setup["generate_s"],
                                         setup["write_s"])]
    values = dict(result["metrics"])
    if args.trace == 0:
        values["setup_s"] = statistics.median(total_setup)
        units = {name: END_TO_END_UNITS[name] for name in values}
    else:
        values["graph.generate_s"] = statistics.median(setup["generate_s"])
        values["storage.write_s"] = statistics.median(setup["write_s"])
        units = {name: per_layer_unit(name) for name in values}
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        shutil.move(os.path.join(data_dir, "trace.json"),
                    os.path.join(trace_dir, f"{tag}.json"))
    shutil.rmtree(data_dir, ignore_errors=True)

    finite = all(isinstance(value, (int, float)) and math.isfinite(value)
                 for value in values.values())
    print(json.dumps({
        "correct": not failures and finite,
        "attempted": result["attempted"],
        "failed": min(failed, result["attempted"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
