"""Peak summed PSS of a process tree, sampled from a separate process.

Usage: ``python3 perfbench/memwatch.py <root-pid> <interval-s>``.

Samples the proportional set size of ``<root-pid>`` and its live
descendants (itself excluded) every ``<interval-s>``.  A line on
standard input asks for an extra sample; a ``pause`` line also stops
sampling until a ``resume`` line.  End of input takes a last sample,
prints ``<peak-kB> <samples>`` and exits.  Running apart from the
measured process keeps the sampling off its interpreter lock.  Reading
a process's PSS still holds its memory-map lock for milliseconds, so
latency-sensitive loops pause the sampler.
"""

from __future__ import annotations

import os
import select
import sys

from harness import tree_pss_kb


def main(argv: list[str]) -> int:
    root, interval = int(argv[1]), float(argv[2])
    me = os.getpid()
    peak = samples = 0
    while True:
        peak = max(peak, tree_pss_kb(root, exclude=me))
        samples += 1
        ready, _, _ = select.select([sys.stdin], [], [], interval)
        line = sys.stdin.readline() if ready else "\n"
        if line.strip() == "pause":
            peak = max(peak, tree_pss_kb(root, exclude=me))
            samples += 1
            line = sys.stdin.readline()  # blocks until "resume" or end
        if not line:
            break
    peak = max(peak, tree_pss_kb(root, exclude=me))
    print(peak, samples + 1, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
