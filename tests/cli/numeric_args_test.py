#!/usr/bin/env python3
"""Malformed numeric CLI arguments must end in `error:` and exit 1.

`gral generate <type> <vertices>` and the cacheKB argument of
`gral simulate` and `gral experiment` accept only the whole text as a
non-negative integer in range: empty text, a sign, trailing bytes,
values too large for the target type, R-MAT vertex counts whose
power-of-two round-up does not fit a vertex id, and cache sizes whose
byte count overflows 64 bits are refused with an `error:` naming the
argument, and no output file is written.

Every run happens under a 1 GiB address-space limit, so a value that
slips through and turns into a huge allocation fails this test rather
than the host. A sanitizer build cannot start under that limit (its
shadow memory alone exceeds it); there the allocator is capped through
ASAN_OPTIONS instead.

    numeric_args_test.py <path-to-gral>
"""

import os
import resource
import subprocess
import sys
import tempfile

ADDRESS_SPACE_BYTES = 1 << 30
SANITIZER_ENV = {
    "ASAN_OPTIONS": "allocator_may_return_null=1:max_allocation_size_mb=1024",
}


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


class Runner:
    def __init__(self, gral):
        self.gral = gral
        self.env = dict(os.environ, **SANITIZER_ENV)
        # Without arguments gral prints its usage and exits 2.
        probe = subprocess.run([gral], capture_output=True, text=True,
                               timeout=60, env=self.env,
                               preexec_fn=limit_address_space)
        self.limited = probe.returncode == 2
        if not self.limited:
            print("note: gral cannot start under a 1 GiB address-space "
                  "limit (sanitizer build); allocations are capped by "
                  "ASAN_OPTIONS instead")

    def __call__(self, *args, timeout=300):
        return subprocess.run(
            [self.gral, *args], capture_output=True, text=True,
            timeout=timeout, env=self.env,
            preexec_fn=limit_address_space if self.limited else None)


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    run = Runner(sys.argv[1])
    failures = []

    def expect_rejected(args, argument, timeout=300):
        where = "gral " + " ".join(repr(a) for a in args)
        try:
            result = run(*args, timeout=timeout)
        except subprocess.TimeoutExpired:
            failures.append(f"{where}: still running after {timeout} s")
            return
        if result.returncode != 1:
            failures.append(f"{where}: exit {result.returncode} (want 1); "
                            f"stderr {result.stderr.strip()[:200]!r}")
        elif "error:" not in result.stderr or argument not in result.stderr:
            failures.append(f"{where}: stderr {result.stderr!r} lacks "
                            f"'error:' naming {argument}")
        else:
            print(f"ok: {where}: {result.stderr.strip()}")

    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "g.gralb")
        made = run("generate", "uniform", "1000", graph)
        if made.returncode != 0:
            print(f"FAIL: generating the input graph: {made.stderr}")
            return 1

        out = os.path.join(tmp, "rejected.gralb")
        for vertices in ("-1", "", "12abc", "+5", " 7", "4294967296",
                         "99999999999999999999999"):
            expect_rejected(["generate", "uniform", vertices, out],
                            "vertices")
        # R-MAT rounds the count up to 2^scale, which must fit a
        # VertexId; the scale search once looped forever above 2^31.
        expect_rejected(["generate", "rmat", "3000000000", out],
                        "vertices", timeout=30)
        if os.path.exists(out):
            failures.append("a rejected generate wrote its output file")

        # 2^54 KB is 2^64 bytes: the byte count overflows.
        for cache_kb in ("12abc", "-5", "", "0x10", "1.5",
                         "18014398509481984",
                         "99999999999999999999999"):
            expect_rejected(["simulate", graph, cache_kb], "cacheKB")
            expect_rejected(["experiment", graph, "Bl", cache_kb],
                            "cacheKB")

        # Well-formed values still work.
        for args in (["simulate", graph, "64"],
                     ["experiment", graph, "Bl", "64"]):
            result = run(*args)
            if result.returncode != 0:
                failures.append(f"gral {' '.join(args)}: exit "
                                f"{result.returncode}: {result.stderr}")
            else:
                print(f"ok: gral {' '.join(args)} runs")

    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
