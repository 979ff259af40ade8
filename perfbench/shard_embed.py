"""Shard phase: out-of-core embedding of the sharded world.

Set-up writes the workload's world (100k users x 60k items, ~0.8M
edges, 64 clusters) into 8 shards.  The timed region repeats sharded
``embed_all(store, workers=2)`` with an untrained SAGE model (dim 16,
samples (5, 3)) while another fits in the phase's share of
``--seconds``; ``embed_vertices_per_s`` divides the vertex count by
the interquartile mean of the embed times.  Workers are capped at the
cores this process may use.

Set-up also builds a small sharded world on which the sharded result
must equal, bitwise, dense ``embed_all(mode="layerwise")``.

This is the only phase on ``repro.shard`` and ``repro.parallel``.  The
out-of-core path trades time for memory, so both sides of the trade
(``embed_vertices_per_s`` and ``peak_rss_mb``) are metrics.
"""

from __future__ import annotations

import numpy as np

from harness import Outcome, interquartile_mean, repeat_for
from layers import LayerTimes
from repro import obs
from world import FEATURE_DIM, ITEMS, USERS, WORKERS, bitwise_equal, model

ROOT = "shard"
TASK_SPAN = "sage.sharded_shard"

LAYERS = (
    ROOT,
    "core.embed_all",
    "shard.frontier_exchange",
    "parallel.map",
    TASK_SPAN,
)


def _check_small(state, outcome: Outcome) -> None:
    """Sharded equals dense layer-wise, bitwise, on the small world."""
    dense = model(state.seed).embed_all(state.small.to_graph(), mode="layerwise")
    sharded = model(state.seed).embed_all(state.small, workers=WORKERS)
    outcome.check(
        bitwise_equal(dense, sharded),
        "sharded embed_all differs from dense layer-wise",
    )


def run(state, seconds: float, outcome: Outcome) -> float:
    """Sharded embeds for ``seconds`` (at least one); returns their total time."""
    embedder = model(state.seed)
    store = state.store
    registry = obs.current_registry()
    before = dict(registry.counters) if registry is not None else {}
    outputs = []

    def one_embed() -> None:
        outputs.clear()  # drop the previous memmaps before writing again
        outputs.extend(embedder.embed_all(store, workers=WORKERS))
        outcome.ops(1)

    with obs.span(ROOT):
        times = repeat_for(seconds, one_embed)
    z_user, z_item = outputs
    outputs.clear()
    # Counters of the timed embeds only (traced runs): set-up and the
    # check below also read shards.
    state.shard_counters = {
        name: value - before.get(name, 0.0)
        for name, value in (registry.counters if registry is not None else {}).items()
    }
    outcome.check(
        z_user.shape == (USERS, FEATURE_DIM) and z_item.shape == (ITEMS, FEATURE_DIM),
        f"embedding shapes {z_user.shape}, {z_item.shape}",
    )
    outcome.check(
        bool(np.isfinite(z_user).all() and np.isfinite(z_item).all()),
        "non-finite embedding values",
    )
    del z_user, z_item
    _check_small(state, outcome)
    outcome.metric(
        "embed_vertices_per_s",
        (USERS + ITEMS) / interquartile_mean(times),
        "1/s",
        len(times),
    )
    outcome.properties.update(
        {
            "shards": store.num_shards,
            "shard_workers": WORKERS,
            "edges_shard_local": round(store.edges_shard_local, 4),
        }
    )
    return sum(times)


def layer_metrics(times: LayerTimes, registry, state) -> dict:
    embeds = max(times.calls(ROOT, "core.embed_all"), 1)
    map_s = times.total("core.embed_all", "parallel.map") / embeds
    busy_s = times.total("parallel.map", TASK_SPAN) / embeds
    counters = state.shard_counters
    frontier_rows = counters.get("shard.frontier_rows", 0.0)
    cross_rows = counters.get("shard.frontier_cross_rows", 0.0)
    return {
        "core.embed_sharded_s": (times.total(ROOT, "core.embed_all") / embeds, "s"),
        "core.embed_sharded.self_s": (
            times.self_time(ROOT, "core.embed_all") / embeds,
            "s",
        ),
        "shard.mmap_bytes_read": (
            counters.get("shard.mmap_bytes_read", 0.0) / embeds,
            "bytes",
        ),
        "shard.frontier_exchange_s": (
            times.total("core.embed_all", "shard.frontier_exchange") / embeds,
            "s",
        ),
        "shard.frontier_cross_rows": (cross_rows / embeds, "count"),
        "shard.frontier_cross_frac": (
            cross_rows / frontier_rows if frontier_rows else 0.0,
            "frac",
        ),
        "parallel.map_s": (map_s, "s"),
        "parallel.worker_busy_s": (busy_s, "s"),
        "parallel.idle_frac": (
            1.0 - busy_s / (map_s * WORKERS) if map_s else 0.0,
            "frac",
        ),
    }
