"""Incremental bipartite graph: an append log over an immutable CSR.

:class:`~repro.graph.bipartite.BipartiteGraph` is immutable — its twin
CSR layout is what makes neighbour queries O(degree) — so streaming
updates are *staged* next to it: an append costs O(delta) and copies no
CSR.  Reading :attr:`IncrementalBipartiteGraph.graph` compacts the log:
it folds the staged edges, vertices and feature rows into one new graph,
which then becomes the graph the next appends stage against.  A refresh
reads it once, so the rebuild is paid once per refresh, however many
appends came before.

Folding is exact: ``BipartiteGraph`` merges duplicate edges in
first-occurrence order and sums their weights as a left fold, so a
graph folded after every append has the same bytes as one built from
the whole history at once.

Every mutation records its endpoints in a **dirty-vertex frontier**
(:attr:`dirty_users` / :attr:`dirty_items`), which is exactly the seed
set :meth:`repro.streaming.StreamingEmbedder.refresh` propagates P hops
to find the embedding rows that need recomputation.  A fold does not
clear it; only :meth:`clear_dirty` (i.e. a successful refresh) does.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.obs.metrics import counter_add

__all__ = ["IncrementalBipartiteGraph"]

_SIDES = ("user", "item")


class IncrementalBipartiteGraph:
    """A :class:`BipartiteGraph` plus an append log of edges and vertices.

    Semantics mirror the immutable constructor: re-adding an existing
    (user, item) edge *increases its weight* (duplicates merge by
    summing), and edge weights must be positive.
    """

    def __init__(self, base: BipartiteGraph) -> None:
        self._graph = base
        self._sizes = {"user": base.num_users, "item": base.num_items}
        # Staged since the last fold: edge/weight blocks, feature rows.
        self._edges: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []
        self._features: dict[str, list[np.ndarray]] = {s: [] for s in _SIDES}
        # Touched since the last clear_dirty: one id block per mutation.
        self._dirty: dict[str, list[np.ndarray]] = {s: [] for s in _SIDES}

    @property
    def num_users(self) -> int:
        return self._sizes["user"]

    @property
    def num_items(self) -> int:
        return self._sizes["item"]

    @property
    def num_edges(self) -> int:
        """Deduplicated edge count (folds the staged appends)."""
        return self.graph.num_edges

    @property
    def dirty_users(self) -> np.ndarray:
        """Sorted user ids touched since the last :meth:`clear_dirty`."""
        return self._dirty_ids("user")

    @property
    def dirty_items(self) -> np.ndarray:
        """Sorted item ids touched since the last :meth:`clear_dirty`."""
        return self._dirty_ids("item")

    def _dirty_ids(self, side: str) -> np.ndarray:
        return np.unique(np.concatenate([np.empty(0, np.int64), *self._dirty[side]]))

    def clear_dirty(self) -> None:
        """Reset the dirty frontier (call after a successful refresh)."""
        self._dirty = {s: [] for s in _SIDES}

    # ------------------------------------------------------------------
    # Appends (O(delta) per call)
    # ------------------------------------------------------------------
    def add_edges(
        self, edges: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Append (user, item) edges; duplicates merge by weight sum."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            weights = np.ones(len(edges), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(edges),):
                raise ValueError("weights must align one-to-one with edges")
            if len(weights) and weights.min() <= 0:
                raise ValueError("edge weights must be positive")
        if not len(edges):
            return
        if edges[:, 0].min() < 0 or edges[:, 0].max() >= self.num_users:
            raise ValueError("user index out of range")
        if edges[:, 1].min() < 0 or edges[:, 1].max() >= self.num_items:
            raise ValueError("item index out of range")
        self._edges.append(edges)
        self._weights.append(weights)
        self._dirty["user"].append(edges[:, 0])
        self._dirty["item"].append(edges[:, 1])
        counter_add("streaming.edges_appended", len(edges))

    def add_users(
        self, count: int = 1, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Append ``count`` isolated users; returns their new ids."""
        return self._add_vertices("user", count, features)

    def add_items(
        self, count: int = 1, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Append ``count`` isolated items; returns their new ids."""
        return self._add_vertices("item", count, features)

    def _add_vertices(
        self, side: str, count: int, features: np.ndarray | None
    ) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        base_feats = (
            self._graph.user_features if side == "user" else self._graph.item_features
        )
        if base_feats is not None:
            if features is None:
                raise ValueError(
                    f"base graph has {side} features; new {side}s need feature rows"
                )
            features = np.asarray(features, dtype=np.float64).reshape(count, -1)
            if features.shape[1] != base_feats.shape[1]:
                raise ValueError(
                    f"{side} features must have dim {base_feats.shape[1]}, "
                    f"got {features.shape[1]}"
                )
            self._features[side].append(features)
        elif features is not None:
            raise ValueError(f"base graph has no {side} features to extend")
        start = self._sizes[side]
        ids = np.arange(start, start + count, dtype=np.int64)
        self._sizes[side] += count
        self._dirty[side].append(ids)
        counter_add(f"streaming.{side}s_appended", count)
        return ids

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The current graph as an immutable :class:`BipartiteGraph`.

        Folds any staged appends into one new graph first; with nothing
        staged this is the graph of the last fold (no copy).
        """
        old = self._graph
        if self._edges or (old.num_users, old.num_items) != (
            self.num_users,
            self.num_items,
        ):
            user_features, item_features = (
                np.concatenate([feats, *self._features[side]])
                if self._features[side]
                else feats
                for side, feats in zip(_SIDES, (old.user_features, old.item_features))
            )
            self._graph = BipartiteGraph(
                self.num_users,
                self.num_items,
                np.concatenate([old.edges, *self._edges]),
                np.concatenate([old.edge_weights, *self._weights]),
                user_features,
                item_features,
            )
            self._edges, self._weights = [], []
            self._features = {s: [] for s in _SIDES}
        return self._graph

    def __repr__(self) -> str:
        return (
            f"IncrementalBipartiteGraph(users={self.num_users}, "
            f"items={self.num_items}, "
            f"staged_edges={sum(len(e) for e in self._edges)}, "
            f"dirty={len(self.dirty_users)}u/{len(self.dirty_items)}i)"
        )
