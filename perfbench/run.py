"""End-to-end benchmark of the HiGNN reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload local-hot --seed 1 --seconds 30 --trace 0

Workloads: ``local-hot`` and ``scattered-cold`` (see ``world.py``).  Each
runs the same three phases -- the offline HiGNN pipeline, a sharded
embedding and a closed serving loop (see ``lifecycle.py``) -- so each
reports every metric.  The library is imported from ``src/`` of the
checkout and driven only through its public functions; the seed makes
every input.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the workload once untraced and once traced, and
prints the per-layer metrics plus ``trace_overhead_frac``.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit and sample count, and the measured
input properties.  The exit code is 1 when an output check or an
operation failed, 2 on bad usage or a checkout without ``src/repro``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread per process: the benchmark owns its
# parallelism (one generator process, pool workers capped at the cores
# this process may use), so library thread pools must not add more.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# glibc adapts its mmap threshold to the first large frees, so the first
# pipeline pass in a process page-faults on fresh mmaps far more than
# later passes, by an amount that depends on allocation order (and so
# on the seed).  Fixed thresholds make every pass behave like a warm one.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 64 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30
SETUP_REPS = 3
BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
WORKLOADS = ("local-hot", "scattered-cold")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_allocator() -> None:
    """Fix glibc's malloc thresholds; a no-op on other C libraries."""
    name = ctypes.util.find_library("c")
    if name is None:
        return
    libc = ctypes.CDLL(name)
    if not hasattr(libc, "mallopt") or not hasattr(libc, "gnu_get_libc_version"):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _end_to_end(wl, workload, args, work_dir, outcome) -> None:
    from harness import TreeMemorySampler, median
    from repro.parallel import shutdown_pools

    setup_s: list[float] = []
    with TreeMemorySampler() as memory:
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            state = wl.setup(workload, args.seed, work_dir)
            setup_s.append(time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                wl.teardown(state)
        try:
            wl.run(state, args.seconds, outcome, quiet=memory.paused)
        finally:
            memory.sample()
            wl.teardown(state)
            shutdown_pools()
    outcome.metric("setup_s", median(setup_s), "s", len(setup_s))
    outcome.metric("peak_rss_mb", memory.peak_mb, "MB", memory.samples)


def _traced(wl, workload, args, work_dir, outcome) -> None:
    from layers import instrumented, tally
    from repro import obs
    from repro.parallel import shutdown_pools

    # Both passes count their operations and checks in ``outcome``.
    try:
        state = wl.setup(workload, args.seed, work_dir)
        try:
            plain = wl.run(state, args.seconds, outcome)
        finally:
            wl.teardown(state)
        with obs.observe() as session, instrumented():
            state = wl.setup(workload, args.seed, work_dir)
            try:
                traced = wl.run(state, args.seconds, outcome)
                times = tally(session.tracer, wl.LAYERS)
                layers = wl.layer_metrics(times, session.registry, state)
            finally:
                wl.teardown(state)
    finally:
        shutdown_pools()
    # Only per-layer numbers are reported from a traced run.
    outcome.metrics.clear()
    for name, (value, unit) in layers.items():
        outcome.metric(name, value, unit, 1)
    outcome.metric("trace_overhead_frac", (traced - plain) / plain, "frac", 2)


def _report(outcome, args) -> bool:
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(
        f"# workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    for name, m in outcome.metrics.items():
        print(f"metric   {name:<34} {m.value:>16.6g} {m.unit:<6} n={m.samples}")
    for name, value in outcome.properties.items():
        print(f"property {name:<34} {value}")
    for failure in outcome.failures:
        print(f"FAILED   {failure}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit}
            for name, m in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no library under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    _pin_allocator()

    import lifecycle as wl
    from harness import Outcome
    from world import WORKLOADS as BY_NAME

    workload = BY_NAME[args.workload]
    work_dir = CHECKOUT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        if args.trace:
            _traced(wl, workload, args, work_dir, outcome)
        else:
            _end_to_end(wl, workload, args, work_dir, outcome)
            outcome.metric(
                "ok_frac",
                1.0 - outcome.failed / max(outcome.attempted, 1),
                "frac",
                outcome.attempted,
            )
    except Exception:
        traceback.print_exc()
        outcome.ops(1, failed=1)
        outcome.failures.append("workload raised; see the traceback on stderr")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if _report(outcome, args) else 1


if __name__ == "__main__":
    sys.exit(main())
