#!/usr/bin/env python3
"""Corrupted .gralb inputs must end in `error:` and exit 1, never a signal.

Generates a social graph and writes it as a plain and a compressed
.gralb. The intact copies must give the same output: `gral metrics`
and `gral simulate` print byte-identical stdout, and `gral info`
differs only in its `backing file` and `compressed` rows. Then the
test overwrites 4 KB at several places in each file with
0x7fffffff words (offsets, edges, byte index and blob sections all get
hit) and runs `gral info` and `gral metrics` on every corrupted copy.
The error must name the input, not a source location of the build.

The retired .grf format must be refused the same way: `gral info
x.grf` and `gral convert a.el b.grf` exit 1 with `error:` naming
.gralb, and write no file.

    gralb_corrupt_test.py <path-to-gral>
"""

import os
import re
import struct
import subprocess
import sys
import tempfile

VERTICES = "50000"
CORRUPT_BYTES = 4096
# Where the 4 KB land, as fractions of the file size.
FRACTIONS = (0.02, 0.25, 0.5, 0.75)
# A source location such as `varint.h:213` or `io.cc:88`.
SOURCE_LOCATION = re.compile(r"\.(h|cc):\d+")


def run(gral, *args):
    return subprocess.run([gral, *args], capture_output=True, text=True,
                          timeout=300)


def corrupt_copy(source, target, fraction):
    with open(source, "rb") as f:
        data = bytearray(f.read())
    start = int(len(data) * fraction) // 4 * 4
    start = max(start, 192)  # keep the header: open() checks it
    junk = struct.pack("<I", 0x7FFFFFFF) * (CORRUPT_BYTES // 4)
    data[start:start + CORRUPT_BYTES] = junk[:len(data) - start]
    with open(target, "wb") as f:
        f.write(data)


def check_rejected(result, where, failures):
    """Record why @p result is not a clean `error:` exit 1, if it is not."""
    if result.returncode != 1:
        failures.append(f"{where}: exit {result.returncode} (want 1)")
    elif "error:" not in result.stderr:
        failures.append(f"{where}: no 'error:' in stderr "
                        f"{result.stderr!r}")
    elif SOURCE_LOCATION.search(result.stderr):
        failures.append(f"{where}: source location in stderr "
                        f"{result.stderr!r}")
    else:
        print(f"ok: {where}: {result.stderr.strip()[:120]}")
        return True
    return False


# `gral info` rows that describe the file rather than the graph.
FILE_ROWS = ("backing file", "compressed")


def info_rows(stdout):
    """`gral info`'s table as [name, value] rows, minus FILE_ROWS.

    Cells are split on runs of 2+ spaces, so a wider file-row value
    (which re-pads every row) does not count as a difference.
    """
    rows = []
    for line in stdout.splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if set(line.strip()) <= {"-"} or cells[0] in FILE_ROWS:
            continue
        rows.append(cells)
    return rows


def check_same_output(gral, plain, packed, failures):
    """Plain and compressed copies of one graph print the same output."""
    for command in ("info", "metrics", "simulate"):
        results = [run(gral, command, path) for path in (plain, packed)]
        where = f"gral {command} on plain vs compressed"
        if any(result.returncode != 0 for result in results):
            failures.append(f"{where}: exit "
                            f"{[r.returncode for r in results]}: "
                            f"{results[1].stderr.strip()}")
            continue
        plain_out, packed_out = (r.stdout for r in results)
        if command == "info":
            same = info_rows(plain_out) == info_rows(packed_out)
        else:
            same = plain_out == packed_out
        if same and plain_out:
            print(f"ok: {where}: same output")
        else:
            failures.append(f"{where}: output differs\n--- plain\n"
                            f"{plain_out}--- compressed\n{packed_out}")


def check_grf_refused(gral, tmp, failures):
    """.grf is retired: reading or writing one is a clean error."""
    edge_list = os.path.join(tmp, "a.el")
    with open(edge_list, "w") as f:
        f.write("0 1\n1 2\n")
    grf_in = os.path.join(tmp, "x.grf")
    with open(grf_in, "wb") as f:
        f.write(b"GRALGRF1" + bytes(16))
    grf_out = os.path.join(tmp, "b.grf")
    for args, where in ((("info", grf_in), "gral info x.grf"),
                        (("convert", edge_list, grf_out),
                         "gral convert a.el b.grf")):
        result = run(gral, *args)
        if (check_rejected(result, where, failures)
                and ".gralb" not in result.stderr):
            failures.append(f"{where}: error does not name .gralb: "
                            f"{result.stderr!r}")
    if os.path.exists(grf_out):
        failures.append("gral convert a.el b.grf wrote b.grf")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    gral = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        plain = os.path.join(tmp, "social.gralb")
        packed = os.path.join(tmp, "social_compressed.gralb")
        for args in (("generate", "social", VERTICES, plain),
                     ("convert", "--compressed", plain, packed)):
            result = run(gral, *args)
            if result.returncode != 0:
                print(f"setup failed: gral {' '.join(args)}\n"
                      f"{result.stderr}", file=sys.stderr)
                return 1
        for source in (plain, packed):
            good = run(gral, "info", source)
            if good.returncode != 0:
                failures.append(f"info rejected intact {source}: "
                                f"{good.stderr.strip()}")
        check_same_output(gral, plain, packed, failures)
        for source in (plain, packed):
            for fraction in FRACTIONS:
                bad = os.path.join(tmp, f"bad_{fraction}.gralb")
                corrupt_copy(source, bad, fraction)
                for command in ("info", "metrics"):
                    result = run(gral, command, bad)
                    where = (f"gral {command} on "
                             f"{os.path.basename(source)} corrupted at "
                             f"{fraction:.0%}")
                    check_rejected(result, where, failures)
        check_grf_refused(gral, tmp, failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
