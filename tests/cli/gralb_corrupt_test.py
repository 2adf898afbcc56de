#!/usr/bin/env python3
"""Corrupted .gralb inputs must end in `error:` and exit 1, never a signal.

Generates a social graph, writes it as a plain and a compressed
.gralb, then overwrites 4 KB at several places in each file with
0x7fffffff words (offsets, edges, byte index and blob sections all get
hit) and runs `gral info` and `gral metrics` on every corrupted copy.

    gralb_corrupt_test.py <path-to-gral>
"""

import os
import struct
import subprocess
import sys
import tempfile

VERTICES = "50000"
CORRUPT_BYTES = 4096
# Where the 4 KB land, as fractions of the file size.
FRACTIONS = (0.02, 0.25, 0.5, 0.75)


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
            for fraction in FRACTIONS:
                bad = os.path.join(tmp, f"bad_{fraction}.gralb")
                corrupt_copy(source, bad, fraction)
                for command in ("info", "metrics"):
                    result = run(gral, command, bad)
                    where = (f"gral {command} on "
                             f"{os.path.basename(source)} corrupted at "
                             f"{fraction:.0%}")
                    if result.returncode != 1:
                        failures.append(
                            f"{where}: exit {result.returncode} "
                            f"(want 1)")
                    elif "error:" not in result.stderr:
                        failures.append(f"{where}: no 'error:' in "
                                        f"stderr {result.stderr!r}")
                    else:
                        print(f"ok: {where}: "
                              f"{result.stderr.strip()[:120]}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
