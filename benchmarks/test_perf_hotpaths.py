"""Hot-path perf benchmark — the Section III-D scalability claim.

Times the live implementation of the three loops the paper's
complexity analysis names (neighbour embedding, neighbour sampling,
K-means) and the paths around them, one ``wall_s`` per row, and writes
the ``BENCH_hotpaths.json`` report at the repo root.
``benchmarks/run_benchmarks.py`` (or ``python -m repro.cli bench``)
produces the same report standalone; ``--mode full`` regenerates the
record at the full workload grid.  Whether a path got slower is
answered against the committed record by the opt-in
``--check-baseline`` test below.

The ``parallel`` section is smoked here with a 2-worker pool under a
hard map timeout so a wedged pool fails the run instead of hanging it.
No parallel *speedup* is asserted: fan-out can only win when
``os.cpu_count()`` exceeds the pool size, which CI boxes don't promise
(the tracked report records the honest number either way).

The ``serving`` section replays a zipf request stream through the
streaming frontend at two slate-cache sizes, times a full re-embed and
a delta refresh of a mutated graph, and times the vectorised
serving-day simulation.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.parallel import configure
from repro.utils.bench import (
    SCHEMA,
    bench_hotpaths,
    load_report,
    render_report,
    write_report,
)
from repro.utils.bench_check import check_report, render_check_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_hotpath_bench_writes_tracked_report(report):
    configure(map_timeout_s=120.0)  # fail fast if a worker pool wedges
    result = bench_hotpaths("quick", seed=0, repeats=3, workers=2)
    path = write_report(result, REPO_ROOT / "BENCH_hotpaths.json")
    report("hotpath_bench", render_report(result))

    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA
    assert "git_commit" in data
    assert data["cpu_count"] >= 1
    benches = data["benchmarks"]
    assert set(benches) == {
        "embed_all",
        "train_epoch",
        "weighted_sampling",
        "kmeans",
        "parallel",
        "score_topk",
        "shard",
        "serving",
    }
    for rows in benches.values():
        assert rows
        for row in rows:
            assert row["wall_s"] > 0

    # Counter-derived throughput: present and nonzero on every row of
    # the instrumented hot paths.
    for row in benches["embed_all"]:
        assert row["vertices_per_sec"] > 0
    for row in benches["weighted_sampling"]:
        assert row["samples_per_sec"] > 0

    # The parallel rows ran the pool-backed paths at workers=1 and 2.
    assert {row["workers"] for row in benches["parallel"]} == {1, 2}

    # Serving section: one row per streaming-stack hot path, with the
    # load-bench extras on the replay rows.  Only that the numbers are
    # recorded and sane is asserted (cache wins depend on the zipf draw
    # and host).
    variants = [row["variant"] for row in benches["serving"]]
    assert variants == ["replay", "replay", "full_embed", "delta_refresh", "run_day"]
    for replay in benches["serving"][:2]:
        assert replay["req_per_sec"] > 0
        assert 0.0 <= replay["hit_rate"] <= 1.0
        assert replay["p99_ms"] >= replay["p50_ms"] >= 0.0
    refresh = next(
        r for r in benches["serving"] if r["variant"] == "delta_refresh"
    )
    assert refresh["refresh_mode"] in {"delta", "full"}
    assert 0.0 <= refresh["recompute_fraction"] <= 1.0


def test_bench_check_against_committed_baseline(request, report):
    """Opt-in regression sentinel: ``pytest benchmarks/ --check-baseline``.

    Re-times the quick grid and compares it to the committed
    ``BENCH_hotpaths.json`` with :func:`check_report` — the same
    comparison ``repro bench --check`` runs.  Rows only present in the
    full-mode record stay unmatched (not failures), and degraded /
    ``workers_effective``-mismatched rows are skipped, so this is safe
    on any host that can run the quick grid.
    """
    if not request.config.getoption("--check-baseline"):
        pytest.skip("pass --check-baseline to compare against BENCH_hotpaths.json")
    baseline = load_report(REPO_ROOT / "BENCH_hotpaths.json")
    configure(map_timeout_s=120.0)
    current = bench_hotpaths(
        "quick",
        seed=baseline.get("seed", 0),
        repeats=3,
        workers=baseline.get("workers") or 2,
    )
    result = check_report(current, baseline)
    report("bench_check", render_check_table(result))
    assert not result["regressions"], (
        f"{len(result['regressions'])} hot path(s) regressed vs committed "
        f"baseline:\n" + render_check_table(result)
    )
