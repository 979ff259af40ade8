"""One HiGNN lifecycle: the three phases every workload runs.

1. ``offline`` (``offline_hignn.py``): the paper's offline pipeline on
   ``mini-taobao1`` at size ``small`` -- Algorithm 1, the CVR head and
   its AUC, the score table and a 2-day A/B test;
2. ``shard`` (``shard_embed.py``): sharded ``embed_all`` with two
   workers over the generated world, written to 8 shards;
3. ``serve`` (``serve.py``): a closed loop of slate requests against
   a ``ServingFrontend`` over the dense graph of the same world.

Each phase measures for its share of ``--seconds`` (at least one
operation), so every workload reports every metric.  The serve phase
runs in segments before, between and after the other two, so its
throughput averages the host's speed over the whole run.  The offline
phase is the same on both workloads: a change to training should move
``offline_s`` on both and leave the shard and serve metrics alone.
"""

from __future__ import annotations

import contextlib

import offline_hignn
import serve
import shard_embed
import world
from harness import Outcome
from layers import LayerTimes

PHASES = (offline_hignn, shard_embed, serve)
# Every span name the traced run attributes time to.
LAYERS = tuple(
    dict.fromkeys(
        ("data.world", "streaming.warm", *(n for p in PHASES for n in p.LAYERS))
    )
)
# Shares of ``--seconds`` each phase measures for.  An offline pass
# takes 9-17 s on a 2-core host, so it usually runs once.
SHARES = {offline_hignn: 0.4, shard_embed: 0.2, serve: 0.4}


def setup(workload: world.Workload, seed: int, work_dir) -> world.State:
    state = world.State(workload, seed, work_dir)
    state.serve_session = serve.Session(seed)
    return state


def teardown(state: world.State) -> None:
    state.close()


def run(
    state: world.State, seconds: float, outcome: Outcome, quiet=contextlib.nullcontext
) -> float:
    """All three phases; returns the time they spent busy, summed.

    ``quiet()`` is entered around the serve loop, which a memory
    sampler reading this process's page tables would slow.
    """
    segment = seconds * SHARES[serve] / 3
    with quiet():
        busy = serve.run(state, segment, outcome)
    busy += offline_hignn.run(state, seconds * SHARES[offline_hignn], outcome)
    with quiet():
        busy += serve.run(state, segment, outcome)
    busy += shard_embed.run(state, seconds * SHARES[shard_embed], outcome)
    with quiet():
        busy += serve.run(state, segment, outcome)
    serve.report(state, outcome)
    outcome.properties.update(
        {
            "world_vertices": world.USERS + world.ITEMS,
            "world_edges": state.store.num_edges,
            "world_within_cluster": state.workload.within_cluster,
            "request_zipf_a": state.workload.zipf_a or 0.0,
        }
    )
    return busy


def layer_metrics(times: LayerTimes, registry, state: world.State) -> dict:
    """Per-layer numbers of the traced run, phase by phase."""
    metrics = {
        "data.world_s": (times.total(None, "data.world"), "s"),
        "streaming.warm_s": (times.total(None, "streaming.warm"), "s"),
    }
    for phase in PHASES:
        metrics.update(phase.layer_metrics(times, registry, state))
    return metrics
