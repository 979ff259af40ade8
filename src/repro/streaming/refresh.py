"""Delta-aware online embedding refresh over cached layer-wise matrices.

Layer-wise inference caches the step ``p-1`` matrix while computing step
``p`` — exactly the structure Cascade-BGNN exploits for cheap per-layer
recomputation.  :class:`StreamingEmbedder` keeps *all* per-step matrices
alive between calls so that after a graph delta only the rows whose
inputs could have changed are recomputed.

A refresh is a *partial chunk plan* of the model's one layer-wise engine
(:meth:`repro.core.sage.BipartiteGraphSAGE._layerwise`), and two of that
engine's properties make it **bitwise identical** to a full pass over
the mutated graph (not merely close):

1. **Content-addressed sampling.**  The RNG of every chunk is derived
   *purely from its coordinates* — ``derive_rng(sample_seed, key, side,
   step, chunk_index)`` — so a full pass and a delta pass draw identical
   neighbours for the same chunk.
2. **Whole-chunk recomputation.**  BLAS matmuls are not guaranteed
   bitwise-stable across operand shapes, so refresh recomputes every
   chunk containing at least one affected row with the *exact same*
   ``(start, stop, neigh)`` task shape a full pass uses — identical
   inputs through identical code is identical bytes, at any worker
   count.

The affected set is propagated conservatively: a row is affected at step
``p`` if it is new, its adjacency changed (dirty), it was affected at
step ``p-1``, or it is adjacent to a vertex of the opposite side that
was affected at step ``p-1``.  Sampled neighbours are a subset of actual
neighbours, so this is a superset of the rows whose values can change —
every untouched row provably reads only unchanged inputs.  When a side
grows, the rows of its old partly full tail chunk count as affected too:
that chunk gains the new rows, so its matmul changes shape and its old
rows may change in the low bits.

There is one execution path.  A plan that covers every chunk (a cold
start, or a delta that reaches every chunk) is simply a full pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph, slice_positions
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.parallel import get_pool
from repro.streaming.incremental import IncrementalBipartiteGraph

__all__ = ["RefreshStats", "StreamingEmbedder"]

_SIDES = ("user", "item")


@dataclass(frozen=True)
class RefreshStats:
    """What a :meth:`StreamingEmbedder.refresh` call actually did."""

    dirty_users: int
    dirty_items: int
    affected_rows: int  # conservative affected set, summed over steps
    rows_recomputed: int  # chunk-rounded rows actually recomputed
    rows_total: int  # all rows across all steps and both sides
    chunks_recomputed: int
    chunks_total: int

    @property
    def mode(self) -> str:
        """``"full"`` when every chunk was recomputed, else ``"delta"``."""
        return "full" if self.chunks_recomputed == self.chunks_total else "delta"

    @property
    def recompute_fraction(self) -> float:
        return self.rows_recomputed / self.rows_total if self.rows_total else 0.0


class StreamingEmbedder:
    """Layer-wise embeddings with delta-aware refresh for a SAGE model.

    Parameters
    ----------
    model:
        A :class:`~repro.core.sage.BipartiteGraphSAGE` whose weights are
        treated as frozen between :meth:`full_embed` and
        :meth:`refresh` (retrain → call :meth:`full_embed` again).
    sample_seed:
        Root of the content-addressed sampling stream (default: the
        model's :attr:`~repro.core.sage.BipartiteGraphSAGE.sample_seed`,
        so :meth:`full_embed` reproduces ``model.embed_all`` exactly).
        Two embedders with the same seed, model, and graph produce
        identical bytes.
    batch_size:
        Chunk size of the layer-wise passes; also the refresh
        granularity (whole chunks are recomputed).
    """

    def __init__(
        self,
        model,
        sample_seed: int | None = None,
        batch_size: int = 2048,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        if sample_seed is None:
            sample_seed = model.sample_seed
        self.sample_seed = int(sample_seed)
        self.batch_size = int(batch_size)
        # Per-step matrices for steps 0..P ({"user": ..., "item": ...});
        # step 0 aliases the graph's feature matrices (immutable).  The
        # cached shape (0, 0) makes the first refresh plan every chunk.
        self._h: list[dict[str, np.ndarray]] | None = None
        self._shape: tuple[int, int] = (0, 0)
        self.last_stats: RefreshStats | None = None

    # ------------------------------------------------------------------
    # Full pass
    # ------------------------------------------------------------------
    def full_embed(
        self, graph: BipartiteGraph, workers: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embed every vertex, caching all per-step matrices.

        The same engine run as ``model.embed_all`` — bitwise equal to it
        when :attr:`sample_seed` is the model's and the chunk sizes
        match.
        """
        with span(
            "streaming.full_embed",
            num_users=graph.num_users,
            num_items=graph.num_items,
        ):
            self._h = self.model._layerwise(
                graph, self.batch_size, get_pool(workers), self.sample_seed
            )
        self._shape = (graph.num_users, graph.num_items)
        counter_add("streaming.full_passes", 1)
        return self.embeddings

    @property
    def embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached final-step ``(Z_u, Z_i)``."""
        if self._h is None:
            raise RuntimeError("no embeddings yet — call full_embed() first")
        return self._h[-1]["user"], self._h[-1]["item"]

    # ------------------------------------------------------------------
    # Delta refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        graph: BipartiteGraph | IncrementalBipartiteGraph,
        dirty_users: np.ndarray | None = None,
        dirty_items: np.ndarray | None = None,
        workers: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bring the cached embeddings up to date with a mutated graph.

        Accepts an :class:`IncrementalBipartiteGraph` directly (its
        dirty frontier is consumed and cleared on success) or a plain
        graph plus explicit dirty user/item id arrays.  Returns the
        refreshed ``(Z_u, Z_i)``; inspect :attr:`last_stats` for what
        was recomputed.
        """
        inc: IncrementalBipartiteGraph | None = None
        if isinstance(graph, IncrementalBipartiteGraph):
            inc = graph
            if dirty_users is None:
                dirty_users = inc.dirty_users
            if dirty_items is None:
                dirty_items = inc.dirty_items
            graph = inc.graph
        dirty_users = np.unique(
            np.asarray([] if dirty_users is None else dirty_users, dtype=np.int64)
        )
        dirty_items = np.unique(
            np.asarray([] if dirty_items is None else dirty_items, dtype=np.int64)
        )
        with span(
            "streaming.refresh",
            dirty_users=len(dirty_users),
            dirty_items=len(dirty_items),
        ):
            out = self._refresh(graph, dirty_users, dirty_items, workers)
        if inc is not None:
            inc.clear_dirty()
        counter_add("streaming.refreshes", 1)
        counter_add("streaming.rows_recomputed", self.last_stats.rows_recomputed)
        observe("streaming.recompute_fraction", self.last_stats.recompute_fraction)
        return out

    def _refresh(
        self,
        graph: BipartiteGraph,
        dirty_users: np.ndarray,
        dirty_items: np.ndarray,
        workers: int | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        bs = self.batch_size
        steps = self.model.config.num_steps
        sizes = {"user": graph.num_users, "item": graph.num_items}
        old = dict(zip(_SIDES, self._shape))
        if any(sizes[side] < old[side] for side in _SIDES):
            raise ValueError(
                "streaming graphs only grow: cached shape "
                f"{self._shape} vs graph ({sizes['user']}, {sizes['item']})"
            )
        dirty = {"user": dirty_users, "item": dirty_items}
        for side in _SIDES:
            ids = dirty[side]
            if len(ids) and (ids[0] < 0 or ids[-1] >= sizes[side]):
                raise ValueError(f"dirty {side} id out of range")

        # Conservative affected-set propagation, one mask pair per step.
        # base = adjacency-dirty ∪ new rows ∪ the old tail chunk of a
        # grown side (affects every step >= 1); step 0 holds only the new
        # feature rows; aff_p = base ∪ aff_{p-1} ∪ neighbours(aff_{p-1}
        # of the other side).
        base: dict[str, np.ndarray] = {}
        aff: dict[str, np.ndarray] = {}
        for side in _SIDES:
            n, n_old = sizes[side], old[side]
            aff[side] = np.zeros(n, dtype=bool)
            aff[side][n_old:] = True
            base[side] = aff[side].copy()
            base[side][dirty[side]] = True
            if n > n_old:
                base[side][n_old - n_old % bs :] = True
        csr = {"user": graph._user_csr, "item": graph._item_csr}
        plan: list[dict[str, np.ndarray]] = []
        affected_rows = rows_recomputed = 0
        for _ in range(steps):
            nxt = {}
            for side, other in (("user", "item"), ("item", "user")):
                rows = np.flatnonzero(aff[other])
                positions = slice_positions(
                    csr[other].indptr[rows], graph.degrees(other)[rows]
                )
                nxt[side] = base[side] | aff[side]
                nxt[side][csr[other].indices[positions]] = True
            aff = nxt
            chunks = {}
            for side in _SIDES:
                ids = np.unique(np.flatnonzero(aff[side]) // bs)
                chunks[side] = ids
                affected_rows += int(aff[side].sum())
                rows_recomputed += int(
                    (np.minimum(ids * bs + bs, sizes[side]) - ids * bs).sum()
                )
            plan.append(chunks)

        # The engine recomputes the planned chunks with the exact
        # full-pass task shapes and copies every other row from cache.
        self._h = self.model._layerwise(
            graph,
            bs,
            get_pool(workers),
            self.sample_seed,
            plan=plan,
            cached=self._h,
        )
        self._shape = (sizes["user"], sizes["item"])
        self.last_stats = RefreshStats(
            dirty_users=len(dirty_users),
            dirty_items=len(dirty_items),
            affected_rows=affected_rows,
            rows_recomputed=rows_recomputed,
            rows_total=(sizes["user"] + sizes["item"]) * steps,
            chunks_recomputed=sum(len(c[side]) for c in plan for side in _SIDES),
            chunks_total=sum(-(-n // bs) for n in sizes.values()) * steps,
        )
        return self.embeddings
