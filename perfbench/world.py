"""The benchmark's workloads and the inputs set-up builds for them.

Both workloads run the same HiGNN lifecycle (see ``lifecycle.py``); they
differ only in the generated world and the request mix, the two input
properties the shard and serving layers depend on:

- ``local-hot``: 93% of edges stay in their cluster, so shards built
  from whole clusters keep most frontier rows local, and requests are
  Zipf-skewed, so most slates come from the cache.
- ``scattered-cold``: half the edges cross clusters, so the frontier
  exchange carries far more rows, and requests are uniform over the
  users, so most slates miss the cache and are scored.

Set-up builds everything a phase reads before its timed region: the
``mini-taobao1`` dataset, the world's shards, a small world for the
bitwise check, the world's dense graph and the warmed serving frontend.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

from repro import obs

USERS = 100_000
ITEMS = 60_000
CLUSTERS = 64
SHARDS = 8
FEATURE_DIM = 16
CHUNK = 1024  # StreamingEmbedder batch size
# Slates rank a fixed candidate pool.  Its embeddings (320 KB) stay in
# a core's cache, so scoring speed does not hang on cache contention
# from other tenants of the host.
CANDIDATES = 2500
WORKERS = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    within_cluster: float  # share of world edges inside their cluster
    zipf_a: float | None  # request skew; None draws users uniformly


WORKLOADS = {
    w.name: w
    for w in (
        Workload("local-hot", within_cluster=0.93, zipf_a=1.5),
        Workload("scattered-cold", within_cluster=0.5, zipf_a=None),
    )
}


def model(seed: int):
    """The untrained SAGE model the shard and serve phases embed with."""
    from repro.core.sage import BipartiteGraphSAGE
    from repro.utils.config import SageConfig

    return BipartiteGraphSAGE(
        FEATURE_DIM,
        FEATURE_DIM,
        SageConfig(embedding_dim=16, neighbor_samples=(5, 3)),
        rng=seed,
    )


def bitwise_equal(left, right) -> bool:
    """Pairs of float64 arrays equal bit for bit."""
    return all(
        a.shape == b.shape
        and np.array_equal(
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(b).view(np.uint64),
        )
        for a, b in zip(left, right)
    )


class State:
    """Inputs of one run, built by set-up and released by :meth:`close`.

    The phases also leave here what their layer metrics need.
    """

    def __init__(self, workload: Workload, seed: int, work_dir) -> None:
        from repro.data import load_dataset
        from repro.data.synthetic import StreamedWorldConfig, stream_world_to_shards
        from repro.serving.recommend import PopularityRecommender
        from repro.streaming import ServingFrontend, StreamingEmbedder
        from repro.utils.rng import derive_rng

        self.workload = workload
        self.seed = seed
        self.root = work_dir / f"world-{seed}"
        self.store = self.small = None
        self.shard_counters: dict[str, float] = {}
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            with obs.span("data.world"):
                self.dataset = load_dataset("mini-taobao1", size="small", seed=seed)
                self.store = stream_world_to_shards(
                    self.root / "world",
                    StreamedWorldConfig(
                        num_users=USERS,
                        num_items=ITEMS,
                        num_clusters=CLUSTERS,
                        within_cluster=workload.within_cluster,
                        feature_dim=FEATURE_DIM,
                    ),
                    num_shards=SHARDS,
                    seed=seed,
                )
                self.graph = self.store.to_graph()
            self.small = stream_world_to_shards(
                self.root / "small",
                StreamedWorldConfig(num_users=3000, num_items=2000, num_clusters=8),
                num_shards=4,
                seed=seed,
            )
            self.embedder = StreamingEmbedder(
                model(seed), sample_seed=seed, batch_size=CHUNK
            )
            self.candidates = np.sort(
                derive_rng(seed, 5).choice(ITEMS, CANDIDATES, replace=False)
            )
            popularity = np.bincount(self.graph.edges[:, 1], minlength=ITEMS)
            self.frontend = ServingFrontend(
                self.graph,
                self.embedder,
                candidate_items=self.candidates,
                fallback=PopularityRecommender(
                    popularity.astype(float), self.candidates
                ),
            )
            with obs.span("streaming.warm"):
                self.frontend.warm(workers=1)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for store in (self.store, self.small):
            if store is not None:
                store.destroy()
        self.store = self.small = None
        shutil.rmtree(self.root, ignore_errors=True)
