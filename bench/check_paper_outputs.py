#!/usr/bin/env python3
"""Pins the stdout of the fourteen paper-reproduction binaries.

Runs each bench binary with its default arguments (bench_table1's
default is the --scale=0.02 Table 1) and compares the SHA-256 of its
stdout with the digest pinned below. On a mismatch it prints the
binary, both digests and the first lines that differ from the recorded
output in paper_outputs/<binary>.txt.

    check_paper_outputs.py <directory holding the bench binaries>

Exit 0 when every output matches, 1 otherwise. A change that moves a
paper output on purpose re-pins the digest, replaces the recorded text
and logs old -> new in CHANGES.md.
"""

import difflib
import hashlib
import os
import subprocess
import sys

# First 16 hex digits of the SHA-256 of each binary's stdout.
PINNED = {
    "bench_table1": "9b5c5578db836656",
    "bench_table2": "49cf13578f9bf2ee",
    "bench_table3": "8402b0b125890b70",
    "bench_table4": "eeda3d3b35d81542",
    "bench_table5": "f5511f4ed93e18d3",
    "bench_fig3": "decda2c6e7486c35",
    "bench_fig4": "c6f8d831003a0f02",
    "bench_fig5": "841717865b3182bf",
    "bench_fig6": "5d185c8a1ceea675",
    "bench_fig7": "4ed1c6686ea69a2c",
    "bench_fig8": "c133216b93ddf84c",
    "bench_asrel": "caf79206f753365b",
    "bench_devices": "bb59ad133f60f142",
    "bench_ablation": "68fc1f4063197cb3",
}

RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "paper_outputs")
DIFF_LINES = 12


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def first_differences(name, actual):
    path = os.path.join(RECORDED, name + ".txt")
    try:
        with open(path, "rb") as f:
            expected = f.read()
    except OSError:
        return ["  (no recorded output at %s)" % path]
    diff = difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(),
        actual.decode("utf-8", "replace").splitlines(),
        "recorded/" + name, "actual/" + name, n=1, lineterm="")
    lines = ["  " + line for line in diff]
    if len(lines) > DIFF_LINES:
        lines = lines[:DIFF_LINES] + ["  ..."]
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bin_dir = argv[1]
    failed = 0
    for name, pinned in PINNED.items():
        run = subprocess.run([os.path.join(bin_dir, name)],
                             stdout=subprocess.PIPE, check=False)
        actual = digest(run.stdout)
        if run.returncode == 0 and actual == pinned:
            print("ok       %-15s %s" % (name, actual))
            continue
        failed += 1
        print("MISMATCH %-15s exit %d, pinned %s, got %s"
              % (name, run.returncode, pinned, actual))
        for line in first_differences(name, run.stdout):
            print(line)
    print("%d of %d paper outputs match their pinned digests"
          % (len(PINNED) - failed, len(PINNED)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
