"""Hot-path micro-benchmark harness (``BENCH_hotpaths.json``).

The paper's complexity analysis (Section III-D) puts the cost of one
HiGNN level in three loops: neighbour embedding, neighbour sampling and
K-means.  This harness times the live implementation of each, plus the
paths a HiGNN deployment runs hot around them (training epochs, worker
pools, sharded inference, top-k serving, streaming refresh).  Each
report section is one row generator in ``_SECTIONS``.

Every row times exactly one live path in one column, ``wall_s`` (best
of ``repeats``), and its ``key`` spells out the identity fields that
tell it apart (``workers`` 1 vs N, ``store`` dense vs sharded,
``cache_size`` 0 vs 4096, ...).  Workloads are seeded, so only timings
vary with the machine; :func:`repro.utils.bench_check.check_report`
matches a fresh run against the committed record by section and ``key``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs.monitor import DEFAULT_INTERVAL_S
from repro.utils.rng import ensure_rng

SCHEMA = "repro/hotpath-bench/v7"
DEFAULT_REPORT = "BENCH_hotpaths.json"

# (num_users, num_items, num_edges) per benchmarked graph.
GRAPH_SIZES: dict[str, list[tuple[int, int, int]]] = {
    "quick": [(300, 200, 1500), (1500, 1000, 9000)],
    "full": [(300, 200, 1500), (1500, 1000, 9000), (4000, 2500, 30000)],
}
# (n_points, dim, k) per K-means workload.
KMEANS_SIZES: dict[str, list[tuple[int, int, int]]] = {
    "quick": [(1500, 16, 24)],
    "full": [(1500, 16, 24), (6000, 32, 48)],
}
# (num_users, num_candidates, slate_k, queries) per top-k workload.
SCORE_SIZES: dict[str, list[tuple[int, int, int, int]]] = {
    "quick": [(400, 300, 10, 50)],
    "full": [(2000, 800, 10, 100)],
}
# (num_users, num_candidates, batch_users) for the parallel score-table row.
PARALLEL_SCORE_SIZES: dict[str, tuple[int, int, int]] = {
    "quick": (256, 48, 32),
    "full": (1024, 96, 64),
}
# Streamed-world specs per ``shard`` row; ``subprocess`` rows measure
# peak RSS in isolated children (and are the expensive part of ``full``).
_SMOKE_WORLD = {"users": 4000, "items": 2500, "clusters": 24, "shards": 4,
                "degree": 6.0}
SHARD_SIZES: dict[str, list[dict[str, Any]]] = {
    "quick": [_SMOKE_WORLD],
    "full": [
        _SMOKE_WORLD,
        {"users": 600_000, "items": 400_000, "clusters": 256, "shards": 8,
         "degree": 8.0, "subprocess": True},
    ],
}
# Streaming serving workloads: graph shape, replayed request count and
# slate size, visitor-day size, and the size of the mutation delta the
# refresh rows apply.  ``delta_edges`` is deliberately small — the row
# times the delta path itself, not a degradation to full recompute.
SERVING_SIZES: dict[str, dict[str, Any]] = {
    "quick": {"graph": (600, 400, 3600), "requests": 400, "k": 10,
              "visitors": 150, "delta_edges": 2, "refresh_batch": 128},
    "full": {"graph": (3000, 2000, 18000), "requests": 2000, "k": 10,
             "visitors": 400, "delta_edges": 2, "refresh_batch": 256},
}

# Work counter -> (count column, rate column, rate unit) of a row.
_WORK_COLUMNS = {
    "sage.vertices_embedded": ("vertices_embedded", "vertices_per_sec", "vert/s"),
    "sampler.samples_drawn": ("samples_drawn", "samples_per_sec", "smp/s"),
    "train.edges_seen": ("edges_seen", "edges_per_sec", "edge/s"),
    "serving.requests": ("requests_served", "req_per_sec", "req/s"),
}

__all__ = [
    "bench_hotpaths", "write_report", "load_report", "render_report",
    "git_commit", "dense_footprint_mb", "SCHEMA", "DEFAULT_REPORT",
]

Rows = Iterator[dict[str, Any]]


def _warm_up() -> None:
    """Take two start-up effects off the first timed rows.

    glibc raises its mmap threshold to each large block freed; with no
    large free behind it a 30k-edge ``embed_all`` page-faults on fresh
    mmaps, 1.5-4x slower.  On a 2-vCPU VM the first second of threaded
    BLAS work after an idle spell ran on one core, 4x slower.  So: free
    a 16 MB block, then run matmuls until CPU time outpaces wall time
    (the idle core is awake) or 1.5 s pass (BLAS runs one thread).
    """
    block = np.empty(16 << 20, dtype=np.uint8)
    del block
    a = np.ones((300, 300))
    deadline = time.perf_counter() + 1.5
    while time.perf_counter() < deadline:
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(10):
            a @ a
        if time.process_time() - cpu > 1.5 * (time.perf_counter() - wall):
            return


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _key(identity: dict[str, Any]) -> str:
    """A row's ``key``: its identity fields in order, ``graph`` abridged."""
    parts = []
    for field, value in identity.items():
        if field == "graph":
            value = f"{value['num_users']}x{value['num_items']}e{value['num_edges']}"
        parts.append(f"{field}={value}")
    return " ".join(parts)


def _row(
    identity: dict[str, Any],
    fn: Callable[[], Any],
    repeats: int,
    counter: str | None = None,
    extras: Callable[[Any], dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """One row: ``identity``, its ``key`` and best-of-``repeats`` ``wall_s``.

    With a ``counter`` (a key of ``_WORK_COLUMNS``) or ``extras``, ``fn``
    runs once more under an obs session — separate from the timed runs,
    so instrumentation never perturbs them.  The row gains the counted
    work and its rate per ``wall_s`` second, and ``extras(session)``
    adds any further measured columns.
    """
    from repro import obs

    wall = _best_of(fn, repeats)
    row = {**identity, "key": _key(identity), "wall_s": round(wall, 6)}
    if counter is None and extras is None:
        return row
    with obs.observe() as session:
        fn()
    if counter is not None:
        count_col, rate_col, _ = _WORK_COLUMNS[counter]
        work = session.counter(counter)
        row[count_col] = int(work)
        row[rate_col] = round(work / wall, 1)
    if extras is not None:
        row.update(extras(session))
    return row


def git_commit() -> str | None:
    """The current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def _graph(size: tuple[int, int, int], feature_dim: int, seed: int):
    from repro.graph.generators import random_bipartite

    return random_bipartite(*size, feature_dim=feature_dim, rng=seed)


def _graph_meta(graph) -> dict[str, int]:
    return {"num_users": graph.num_users, "num_items": graph.num_items,
            "num_edges": graph.num_edges}


def _sage_module(dim: int, seed: int, fanouts: tuple[int, ...] = (10, 5)):
    """A 16-dim SAGE model over ``dim``-dim features on both sides."""
    from repro.core.sage import BipartiteGraphSAGE
    from repro.utils.config import SageConfig

    cfg = SageConfig(embedding_dim=16, neighbor_samples=fanouts)
    return BipartiteGraphSAGE(dim, dim, cfg, rng=seed)


def _bench_embed_all(mode: str, seed: int, repeats: int, workers: int) -> Rows:
    for size in GRAPH_SIZES[mode]:
        graph = _graph(size, 8, seed)
        module = _sage_module(8, seed)
        yield _row({"graph": _graph_meta(graph)}, lambda: module.embed_all(graph),
                   repeats, "sage.vertices_embedded")


def _bench_train_epoch(mode: str, seed: int, repeats: int, workers: int) -> Rows:
    from repro.core.trainer import SageTrainer
    from repro.utils.config import TrainConfig

    tcfg = TrainConfig(epochs=1, batch_size=512)
    # The 1.5k-edge graph and the small 9k-edge one; both modes share
    # them, so ``bench --check`` diffs each row against the record.
    for size in GRAPH_SIZES[mode][:2]:
        graph = _graph(size, 8, seed)
        identity = {"graph": _graph_meta(graph), "epochs": tcfg.epochs,
                    "batch_size": tcfg.batch_size}

        def fit() -> None:
            SageTrainer(_sage_module(8, seed), graph, tcfg, rng=seed).fit()

        yield _row(identity, fit, repeats, "train.edges_seen")


def _bench_weighted_sampling(mode: str, seed: int, repeats: int,
                             workers: int) -> Rows:
    from repro.graph.sampling import NeighborSampler

    fanout = 10
    for size in GRAPH_SIZES[mode]:
        graph = _graph(size, 4, seed)
        vertices = np.arange(graph.num_users)
        sampler = NeighborSampler(graph, rng=seed, weighted=True)
        identity = {"graph": _graph_meta(graph), "batch": len(vertices),
                    "fanout": fanout}
        yield _row(identity, lambda: sampler.sample_items_for_users(vertices, fanout),
                   repeats, "sampler.samples_drawn")


def _bench_kmeans(mode: str, seed: int, repeats: int, workers: int) -> Rows:
    from repro.clustering.kmeans import _minibatch, _single_pass
    from repro.utils.config import KMeansConfig

    cfg = KMeansConfig(algorithm="minibatch", max_iter=20, batch_size=256)
    for n, dim, k in KMEANS_SIZES[mode]:
        points = ensure_rng(seed).normal(size=(n, dim))
        yield _row({"variant": "single_pass", "n": n, "dim": dim, "k": k},
                   lambda: _single_pass(points, k, ensure_rng(seed)), repeats)
        yield _row({"variant": "minibatch", "n": n, "dim": dim, "k": k},
                   lambda: _minibatch(points, k, cfg, ensure_rng(seed)), repeats)


def _bench_score_topk(mode: str, seed: int, repeats: int, workers: int) -> Rows:
    from repro.serving.recommend import ScoreTableRecommender

    for num_users, n_cand, k, n_queries in SCORE_SIZES[mode]:
        rng = ensure_rng(seed)
        scores = rng.random((num_users, n_cand))
        candidates = np.arange(n_cand, dtype=np.int64)
        query_users = rng.integers(0, num_users, size=n_queries)

        def run() -> None:
            recommender = ScoreTableRecommender(scores, candidates)
            for user in query_users:
                recommender.recommend(int(user), k)

        yield _row({"variant": "score_topk", "n": num_users, "candidates": n_cand,
                    "k": k, "queries": n_queries}, run, repeats)


def _bench_parallel(mode: str, seed: int, repeats: int, workers: int) -> Rows:
    """The pool-backed hot paths, one row at ``workers=1`` and one at N.

    Outputs are bitwise equal at any worker count, so the rows compare
    cost only.  On a single-core host fan-out can only add IPC, and the
    rows say so with ``degraded``.
    """
    from repro.clustering.kmeans import kmeans
    from repro.prediction.cvr_model import CVRModel
    from repro.prediction.features import FeatureAssembler
    from repro.serving.pipeline import cvr_score_table
    from repro.utils.config import KMeansConfig

    cpu_count = os.cpu_count() or 1
    graph = _graph(GRAPH_SIZES[mode][-1], 8, seed)
    module = _sage_module(8, seed)
    n, dim, k = KMEANS_SIZES[mode][-1]
    points = ensure_rng(seed).normal(size=(n, dim))
    kcfg = KMeansConfig(algorithm="lloyd", n_init=4, max_iter=15)
    num_users, n_cand, batch_users = PARALLEL_SCORE_SIZES[mode]
    rng = ensure_rng(seed)
    assembler = FeatureAssembler(rng.normal(size=(num_users, 8)),
                                 rng.normal(size=(n_cand, 8)))
    model = CVRModel(assembler.feature_dim, hidden=(32, 16), rng=seed)
    candidates = np.arange(n_cand, dtype=np.int64)

    paths = [
        ({"variant": "embed_all_layerwise", "graph": _graph_meta(graph)},
         lambda w: module.embed_all(graph, batch_size=256, workers=w)),
        ({"variant": "kmeans_restarts", "n": n, "dim": dim, "k": k,
          "n_init": kcfg.n_init},
         lambda w: kmeans(points, k, kcfg, rng=ensure_rng(seed), workers=w)),
        ({"variant": "cvr_score_table", "n": num_users, "candidates": n_cand,
          "k": n_cand},
         lambda w: cvr_score_table(
             model, assembler, num_users, candidates, batch_users, workers=w)),
    ]
    for identity, run in paths:
        for w in sorted({1, workers}):
            row = _row({**identity, "workers": w}, lambda: run(w), repeats)
            row.update(workers_effective=min(w, cpu_count), degraded=cpu_count == 1)
            yield row


def dense_footprint_mb(num_users: int, num_items: int, num_edges: int,
                       dim: int) -> float:
    """Analytic MB an in-memory ``BipartiteGraph`` of this shape holds.

    Edge list (E x 2 int64) + both CSR directions (indices + weights
    per edge, indptr per vertex) + float64 features on both sides —
    the baseline the sharded store's peak RSS is judged against.
    """
    edge_list = num_edges * 2 * 8
    csr = 2 * num_edges * (8 + 8) + (num_users + num_items + 2) * 8
    features = (num_users + num_items) * dim * 8
    return (edge_list + csr + features) / 2**20


def _run_shard_child(run_mode: str, spec: dict[str, Any], seed: int, workers: int):
    """One ``repro shard --json`` subprocess; returns its parsed report.

    Children exist so each side's ``ru_maxrss`` is clean: the dense
    child materialises the full graph, the sharded child only ever maps
    shard blocks, and neither inherits the other's peak.
    """
    import sys

    import repro

    cmd = [sys.executable, "-m", "repro.cli", "shard", "--json", "--mode", run_mode,
           "--seed", str(seed), "--workers", str(workers)]
    for key in ("users", "items", "clusters", "shards"):
        cmd += [f"--{key}", str(spec[key])]
    cmd += ["--mean-degree", str(spec["degree"])]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=3600)
    if out.returncode != 0:
        raise RuntimeError(f"shard child ({run_mode}) failed:\n{out.stderr}")
    return json.loads(out.stdout)


def _shard_child_rows(spec: dict[str, Any], seed: int, workers: int) -> Rows:
    """The streamed world embedded dense and sharded, one child each.

    Equality is checked through embedding checksums: comparing arrays
    in one process would defeat the per-side peak-RSS measurement.
    """
    children = {store: _run_shard_child(store, spec, seed, workers)
                for store in ("sharded", "dense")}
    num_edges = children["sharded"]["num_edges"]
    for store in ("dense", "sharded"):
        child = children[store]
        identity = {"variant": "streamed_world",
                    "graph": {"num_users": spec["users"], "num_items": spec["items"],
                              "num_edges": num_edges},
                    "num_shards": spec["shards"], "store": store, "workers": workers}
        row = {**identity, "key": _key(identity), "wall_s": child["embed_s"],
               **{col: child[col]
                  for col in ("build_s", "peak_rss_mb", "peak_rss_source")}}
        if store == "dense":
            footprint = dense_footprint_mb(spec["users"], spec["items"], num_edges, 16)
            row["dense_edge_list_mb"] = round(footprint, 1)
        else:
            row["edges_shard_local"] = child["edges_shard_local"]
            row["bitwise_equal"] = child["checksum"] == children["dense"]["checksum"]
        yield row


def _bench_shard(mode: str, seed: int, repeats: int, workers: int) -> Rows:
    """Layer-wise inference over a dense graph and a sharded store.

    The smoke world runs in-process: the dense row embeds
    ``store.to_graph()``, the sharded row the store itself, and the two
    outputs are compared bitwise.
    """
    import shutil
    import tempfile

    from repro.data.synthetic import StreamedWorldConfig, stream_world_to_shards
    from repro.shard.storage import forget_shard_dir

    for spec in SHARD_SIZES[mode]:
        if spec.get("subprocess"):
            yield from _shard_child_rows(spec, seed, workers)
            continue
        cfg = StreamedWorldConfig(
            num_users=spec["users"], num_items=spec["items"],
            num_clusters=spec["clusters"], mean_degree=spec["degree"], feature_dim=16,
        )
        work = Path(tempfile.mkdtemp(prefix="repro-bench-shard-"))
        try:
            t0 = time.perf_counter()
            store = stream_world_to_shards(work / "world", cfg,
                                           num_shards=spec["shards"], seed=seed)
            build = time.perf_counter() - t0
            with store:
                graph = store.to_graph()

                def embed(source, pool=None):
                    model = _sage_module(16, seed, fanouts=(5, 3))
                    return model.embed_all(source, batch_size=1024, workers=pool)

                identity = {"variant": "smoke_world", "graph": _graph_meta(store),
                            "num_shards": store.num_shards}
                yield _row({**identity, "store": "dense"}, lambda: embed(graph),
                           repeats, "sage.vertices_embedded")
                yield _row(
                    {**identity, "store": "sharded", "workers": workers},
                    lambda: embed(store, workers),
                    repeats,
                    "sage.vertices_embedded",
                    lambda session: {
                        "build_s": round(build, 6),
                        "edges_shard_local": round(store.edges_shard_local, 4),
                        "bitwise_equal": all(
                            np.array_equal(a, np.asarray(b))
                            for a, b in zip(embed(graph), embed(store, workers))
                        ),
                    },
                )
        finally:
            shutil.rmtree(work, ignore_errors=True)
            forget_shard_dir(work / "world")


def _bench_serving(mode: str, seed: int, repeats: int, workers: int) -> Rows:
    """The streaming serving stack: replay, re-embed, serving day."""
    from repro.data.synthetic import TaobaoGenerator, WorldConfig
    from repro.serving.environment import OnlineEnvironment
    from repro.serving.recommend import PopularityRecommender
    from repro.streaming import (
        IncrementalBipartiteGraph,
        ServingFrontend,
        StreamingEmbedder,
    )

    spec = SERVING_SIZES[mode]
    size, requests, k = spec["graph"], spec["requests"], spec["k"]
    graph = _graph(size, 8, seed)
    module = _sage_module(8, seed)
    meta = _graph_meta(graph)

    # Replay a Zipf-tilted visitor stream, so repeat visitors exist (that
    # is what a slate cache is for), at cache size 0 (every request
    # scored) and 4096 (every repeat visitor held).
    users = (ensure_rng(seed).zipf(1.5, size=requests) - 1) % size[0]
    for cache_size in (0, 4096):
        frontend = ServingFrontend(
            graph, StreamingEmbedder(module, sample_seed=seed),
            cache_size=cache_size, microbatch=64,
        )
        frontend.warm()

        def latency(session) -> dict[str, Any]:
            hist = session.registry.snapshot()["histograms"]["serving.latency_ms"]
            return {"p50_ms": round(hist["p50"], 4), "p99_ms": round(hist["p99"], 4),
                    "hit_rate": round(frontend.hit_rate, 3)}

        identity = {"graph": meta, "variant": "replay", "cache_size": cache_size,
                    "requests": requests, "k": k}
        yield _row(identity, lambda: frontend.serve(users, k), repeats,
                   "serving.requests", latency)

    # Re-embed a graph mutated by a few edges: in full, and by refresh.
    batch = spec["refresh_batch"]
    embedder = StreamingEmbedder(module, sample_seed=seed, batch_size=batch)
    inc = IncrementalBipartiteGraph(graph)
    embedder.full_embed(inc.graph)
    delta, delta_rng = spec["delta_edges"], ensure_rng(seed + 1)
    inc.add_edges(np.column_stack([delta_rng.integers(0, size[0], delta),
                                   delta_rng.integers(0, size[1], delta)]))
    mutated, dirty = inc.graph, (inc.dirty_users, inc.dirty_items)
    # refresh() replaces (never mutates) the cached per-step matrices,
    # so resetting the two references replays the same delta each run.
    base = embedder._h, embedder._shape

    def refresh() -> None:
        embedder._h, embedder._shape = base
        embedder.refresh(mutated, *dirty)

    def refresh_stats(session) -> dict[str, Any]:
        stats = embedder.last_stats
        return {"refresh_mode": stats.mode,
                "rows_recomputed": stats.rows_recomputed,
                "recompute_fraction": round(stats.recompute_fraction, 3)}

    identity = {"graph": meta, "delta_edges": delta, "batch": batch}
    yield _row({**identity, "variant": "full_embed"},
               lambda: StreamingEmbedder(module, sample_seed=seed, batch_size=batch)
               .full_embed(mutated), repeats)
    yield _row({**identity, "variant": "delta_refresh"}, refresh, repeats,
               extras=refresh_stats)

    # A serving day: per-slate vectorised click/purchase responses.
    world = WorldConfig(num_users=size[0], num_items=size[1])
    truth = TaobaoGenerator(world, seed=seed).truth
    visitors = ensure_rng(seed + 2).integers(0, size[0], spec["visitors"])
    recommender = PopularityRecommender(ensure_rng(seed + 3).random(size[1]),
                                        np.arange(size[1]))

    def day() -> None:
        OnlineEnvironment(truth, rng=seed).run_day(recommender, visitors, k)

    yield _row({"variant": "run_day", "n": spec["visitors"], "k": k}, day, repeats)


# Report section -> row generator ``(mode, seed, repeats, workers)``.
_SECTIONS: dict[str, Callable[[str, int, int, int], Rows]] = {
    "embed_all": _bench_embed_all,
    "train_epoch": _bench_train_epoch,
    "weighted_sampling": _bench_weighted_sampling,
    "kmeans": _bench_kmeans,
    "parallel": _bench_parallel,
    "score_topk": _bench_score_topk,
    "shard": _bench_shard,
    "serving": _bench_serving,
}


def bench_hotpaths(
    mode: str = "quick", seed: int = 0, repeats: int = 3, workers: int = 4
) -> dict[str, Any]:
    """Time every hot path and return the report dict.

    ``mode`` selects the workload grid (``quick`` for CI smoke, ``full``
    for the tracked record); ``seed`` fixes every workload so runs are
    comparable; ``repeats`` takes the best of N timings; ``workers`` is
    the pool size of the ``parallel`` and ``shard`` rows.
    """
    if mode not in GRAPH_SIZES:
        raise ValueError(f"unknown bench mode {mode!r} (use 'quick' or 'full')")
    _warm_up()
    return {
        "schema": SCHEMA,
        "git_commit": git_commit(),
        "mode": mode,
        "seed": seed,
        "repeats": repeats,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "telemetry": {"sampler_interval_s": DEFAULT_INTERVAL_S,
                      "peak_rss_source": "monitor"},
        "benchmarks": {name: list(rows(mode, seed, repeats, workers))
                       for name, rows in _SECTIONS.items()},
    }


def write_report(report: dict[str, Any], path: str | Path = DEFAULT_REPORT) -> Path:
    """Write ``report`` as stable, human-diffable JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path = DEFAULT_REPORT) -> dict[str, Any]:
    """Read a report; only the current :data:`SCHEMA` is accepted."""
    report = json.loads(Path(path).read_text())
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"unknown bench report schema {schema!r} in {path}")
    return report


def render_report(report: dict[str, Any]) -> str:
    """Plain-text table of every benchmark row (wall time, throughput)."""
    commit = report.get("git_commit") or "unknown"
    lines = [
        f"hot-path benchmark — mode={report['mode']} seed={report['seed']} "
        f"repeats={report['repeats']} (numpy {report['numpy']}, "
        f"commit {commit[:12]}, cpus={report['cpu_count']})",
        f"{'benchmark':<18} {'workload':<70} {'wall':>10} {'throughput':>16}",
    ]
    for name, rows in report["benchmarks"].items():
        for row in rows:
            throughput = "".join(f"{row[col]:,.0f} {unit}"
                                 for _, col, unit in _WORK_COLUMNS.values() if col in row)
            lines.append(f"{name:<18} {row['key']:<70} {row['wall_s']:>9.4f}s "
                         f"{throughput:>16}")
    return "\n".join(lines)
