"""Timing, memory and result plumbing shared by the benchmark workloads.

Nothing here imports the library under test: the workloads do, after
``run.py`` has pinned the numeric thread pools and put ``src/`` on the
import path.
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def interquartile_mean(values) -> float:
    """Mean of the middle half of a non-empty sequence.

    A median picks one value, so when a run's samples split between a
    fast and a slow spell of the host it jumps to whichever holds the
    majority; a mean moves in proportion to the split.  Dropping the
    outer quarters keeps the mean robust to a few outliers.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("interquartile mean of an empty sequence")
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


@dataclass
class Metric:
    """One reported number: value, unit and how many samples made it."""

    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """Everything one workload run reports.

    ``attempted``/``failed`` count operations (requests,
    pipeline passes, embeds) plus output checks; any failure makes the
    command exit non-zero.  ``properties`` are measured input
    properties, printed beside the metrics so a later change that helps
    only inputs with one of them can cite its share.
    """

    metrics: dict[str, Metric] = field(default_factory=dict)
    properties: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def ops(self, count: int, failed: int = 0) -> None:
        """Record ``count`` operations of which ``failed`` failed."""
        self.attempted += int(count)
        self.failed += int(failed)

    def check(self, ok: bool, what: str) -> bool:
        """Record one output check; a failed one is named in the output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _pss_kb(pid: int) -> int:
    """Proportional set size of one process in kB (0 once it has gone)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
            for line in fh:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def _descendants(root: int) -> list[int]:
    """Pids of every live descendant of ``root``, from ``/proc/*/stat``."""
    parents: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_bytes()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat[stat.rindex(b")") + 2 :].split()
        parents[int(entry.name)] = int(fields[1])
    found: list[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        kids = [child for child, parent in parents.items() if parent == pid]
        found.extend(kids)
        frontier.extend(kids)
    return found


def tree_pss_kb(root: int, exclude: int | None = None) -> int:
    """Summed PSS of ``root`` and its live descendants, ``exclude`` left out.

    PSS splits pages shared between a parent and its forked pool workers,
    so the sum counts each page once; for a single process it is its
    resident set minus its share of pages other processes also map.
    """
    pids = [root, *_descendants(root)]
    return sum(_pss_kb(pid) for pid in pids if pid != exclude)


class TreeMemorySampler:
    """Peak memory of this process and its descendants, sampled.

    ``memwatch.py`` runs as a child process and samples
    :func:`tree_pss_kb` every ``interval_s``; a sampler thread in this
    process would contend for the interpreter lock with the workload
    and add to the latencies it measures.  Use as a context manager;
    ``sample()`` asks for an extra reading at a point the caller knows
    is a high-water mark, and ``paused()`` stops sampling around a
    latency-sensitive block, with a reading on each side.  Pool workers
    must be shut down before the block exits: they inherit the pipe
    that tells the sampler to stop.
    """

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        self.samples = 0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "TreeMemorySampler":
        script = Path(__file__).with_name("memwatch.py")
        self._proc = subprocess.Popen(
            [sys.executable, str(script), str(os.getpid()), str(self.interval_s)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def _send(self, line: str) -> None:
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()

    def sample(self) -> None:
        self._send("")

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        self._send("pause")
        try:
            yield
        finally:
            self._send("resume")

    def __exit__(self, *exc_info: object) -> None:
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        peak_kb, samples = out.split()
        self.peak_kb, self.samples = int(peak_kb), int(samples)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def repeat_for(seconds: float, fn) -> list[float]:
    """Call ``fn()`` while another call still fits in ``seconds``.

    Always calls it at least once; another call starts only when the
    elapsed time plus the median call time stays within ``seconds``, so
    a run measures for about ``seconds`` and never much longer.
    Returns the duration of each call.
    """
    times: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(times) > seconds:
            return times
