#!/usr/bin/env python3
"""Corrupted .gralb inputs must end in `error:` and exit 1, never a signal.

Generates a social graph as a .gralb, then overwrites 4 KB at several
places in it with 0x7fffffff words (offsets and edges sections both
get hit) and runs `gral info` and `gral metrics` on every corrupted
copy. The error must name the input, not a source location of the
build. A file whose header says format version 1 (the layout that
could hold compressed directions) must be refused the same way.

The retired .grf format must be refused the same way: `gral info
x.grf` and `gral convert a.el b.grf` exit 1 with `error:` naming
.gralb, and write no file. `gral convert` refuses a flag it does not
know (the retired `--compressed`) instead of reading it as a path:
it exits non-zero naming the flag and writes nothing.

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


def check_old_version_refused(gral, source, tmp, failures):
    """A version-1 header ends in the named version error."""
    with open(source, "rb") as f:
        data = bytearray(f.read())
    data[8:12] = struct.pack("<I", 1)
    old = os.path.join(tmp, "version1.gralb")
    with open(old, "wb") as f:
        f.write(data)
    result = run(gral, "info", old)
    if (check_rejected(result, "gral info on a version-1 file", failures)
            and "version 1" not in result.stderr):
        failures.append(f"version-1 error does not name the version: "
                        f"{result.stderr!r}")


def check_unknown_flag_refused(gral, source, tmp, failures):
    """`convert --compressed a b` names the flag and writes no file."""
    target = os.path.join(tmp, "converted.gralb")
    with open(source, "rb") as f:
        before = f.read()
    result = run(gral, "convert", "--compressed", source, target)
    where = "gral convert --compressed"
    if result.returncode == 0:
        failures.append(f"{where}: exit 0 (want non-zero)")
    elif "--compressed" not in result.stderr:
        failures.append(f"{where}: stderr does not name the flag: "
                        f"{result.stderr!r}")
    else:
        print(f"ok: {where}: exit {result.returncode}: "
              f"{result.stderr.strip().splitlines()[0]}")
    if os.path.exists(target):
        failures.append(f"{where} wrote {os.path.basename(target)}")
    with open(source, "rb") as f:
        if f.read() != before:
            failures.append(f"{where} rewrote its input")


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
        source = os.path.join(tmp, "social.gralb")
        result = run(gral, "generate", "social", VERTICES, source)
        if result.returncode != 0:
            print(f"setup failed: gral generate\n{result.stderr}",
                  file=sys.stderr)
            return 1
        good = run(gral, "info", source)
        if good.returncode != 0:
            failures.append(f"info rejected intact {source}: "
                            f"{good.stderr.strip()}")
        for fraction in FRACTIONS:
            bad = os.path.join(tmp, f"bad_{fraction}.gralb")
            corrupt_copy(source, bad, fraction)
            for command in ("info", "metrics"):
                result = run(gral, command, bad)
                where = f"gral {command} corrupted at {fraction:.0%}"
                check_rejected(result, where, failures)
        check_old_version_refused(gral, source, tmp, failures)
        check_unknown_flag_refused(gral, source, tmp, failures)
        check_grf_refused(gral, tmp, failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
