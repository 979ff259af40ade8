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
every untouched row provably reads only unchanged inputs.

When the affected fraction exceeds ``degrade_threshold`` the refresh
gracefully degrades to a full pass (same result, simpler execution).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.parallel import get_pool
from repro.streaming.incremental import IncrementalBipartiteGraph

__all__ = ["RefreshStats", "StreamingEmbedder"]

_SIDES = ("user", "item")


def _csr_neighbors(csr, vertices: np.ndarray) -> np.ndarray:
    """Concatenated CSR adjacency rows for ``vertices`` (vectorised)."""
    if len(vertices) == 0:
        return np.empty(0, dtype=np.int64)
    starts = csr.indptr[vertices]
    counts = csr.indptr[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return csr.indices[np.repeat(starts, counts) + offsets]


@dataclass(frozen=True)
class RefreshStats:
    """What a :meth:`StreamingEmbedder.refresh` call actually did."""

    mode: str  # "delta" or "full"
    degraded: bool  # True when a delta request fell back to a full pass
    dirty_users: int
    dirty_items: int
    affected_rows: int  # conservative affected set, summed over steps
    rows_recomputed: int  # chunk-rounded rows actually recomputed
    rows_total: int  # all rows across all steps and both sides
    chunks_recomputed: int
    chunks_total: int

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
    degrade_threshold:
        Fall back to a full pass when the chunk-rounded recompute
        fraction exceeds this value.
    """

    def __init__(
        self,
        model,
        sample_seed: int | None = None,
        batch_size: int = 2048,
        degrade_threshold: float = 0.25,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < degrade_threshold <= 1.0:
            raise ValueError("degrade_threshold must be in (0, 1]")
        self.model = model
        if sample_seed is None:
            sample_seed = model.sample_seed
        self.sample_seed = int(sample_seed)
        self.batch_size = int(batch_size)
        self.degrade_threshold = float(degrade_threshold)
        # Per-step matrices for steps 0..P ({"user": ..., "item": ...});
        # step 0 aliases the graph's feature matrices (immutable).
        self._h: list[dict[str, np.ndarray]] | None = None
        self._shape: tuple[int, int] | None = None
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
        cfg = self.model.config
        nu, ni = graph.num_users, graph.num_items
        steps = cfg.num_steps
        rows_total = (nu + ni) * steps
        chunks_total = self._num_chunks(nu, ni) * steps
        stats = functools.partial(
            RefreshStats,
            dirty_users=len(dirty_users),
            dirty_items=len(dirty_items),
            rows_total=rows_total,
            chunks_total=chunks_total,
        )
        if self._h is None:
            # Cold start: nothing cached, a full pass is the refresh.
            out = self.full_embed(graph, workers)
            self.last_stats = stats(
                mode="full",
                degraded=False,
                affected_rows=rows_total,
                rows_recomputed=rows_total,
                chunks_recomputed=chunks_total,
            )
            return out
        old_nu, old_ni = self._shape
        if nu < old_nu or ni < old_ni:
            raise ValueError(
                "streaming graphs only grow: cached shape "
                f"({old_nu}, {old_ni}) vs graph ({nu}, {ni})"
            )
        if len(dirty_users) and (dirty_users[0] < 0 or dirty_users[-1] >= nu):
            raise ValueError("dirty user id out of range")
        if len(dirty_items) and (dirty_items[0] < 0 or dirty_items[-1] >= ni):
            raise ValueError("dirty item id out of range")

        # Conservative affected-set propagation, one mask pair per step.
        # base = adjacency-dirty ∪ new rows (affects every step >= 1);
        # aff_p = base ∪ aff_{p-1} ∪ neighbours(aff_{p-1} of other side).
        base_u = np.zeros(nu, dtype=bool)
        base_u[dirty_users] = True
        base_u[old_nu:] = True
        base_i = np.zeros(ni, dtype=bool)
        base_i[dirty_items] = True
        base_i[old_ni:] = True
        aff_u = np.zeros(nu, dtype=bool)  # step 0: only new feature rows
        aff_u[old_nu:] = True
        aff_i = np.zeros(ni, dtype=bool)
        aff_i[old_ni:] = True
        per_step: list[dict[str, np.ndarray]] = []
        for _p in range(1, steps + 1):
            next_u = base_u | aff_u
            next_u[_csr_neighbors(graph._item_csr, np.flatnonzero(aff_i))] = True
            next_i = base_i | aff_i
            next_i[_csr_neighbors(graph._user_csr, np.flatnonzero(aff_u))] = True
            per_step.append({"user": next_u, "item": next_i})
            aff_u, aff_i = next_u, next_i

        # Chunk-round the affected rows and decide delta vs full.
        bs = self.batch_size
        affected_rows = 0
        rows_recomputed = 0
        chunks_recomputed = 0
        plan: list[dict[str, np.ndarray]] = []
        for masks in per_step:
            chunk_ids: dict[str, np.ndarray] = {}
            for side in _SIDES:
                mask = masks[side]
                affected_rows += int(mask.sum())
                n = len(mask)
                ids = np.unique(np.flatnonzero(mask) // bs)
                chunk_ids[side] = ids
                chunks_recomputed += len(ids)
                rows_recomputed += sum(
                    min((k + 1) * bs, n) - k * bs for k in ids
                )
            plan.append(chunk_ids)
        fraction = rows_recomputed / rows_total if rows_total else 0.0
        if fraction > self.degrade_threshold:
            counter_add("streaming.degradations", 1)
            out = self.full_embed(graph, workers)
            self.last_stats = stats(
                mode="full",
                degraded=True,
                affected_rows=affected_rows,
                rows_recomputed=rows_total,
                chunks_recomputed=chunks_total,
            )
            return out

        # Delta pass: the engine recomputes the planned chunks with the
        # exact full-pass task shapes and copies every other row.  New
        # rows (>= old_n) are always planned — they are marked affected
        # at every step.
        self._h = self.model._layerwise(
            graph,
            self.batch_size,
            get_pool(workers),
            self.sample_seed,
            plan=plan,
            cached=self._h,
        )
        self._shape = (nu, ni)
        self.last_stats = stats(
            mode="delta",
            degraded=False,
            affected_rows=affected_rows,
            rows_recomputed=rows_recomputed,
            chunks_recomputed=chunks_recomputed,
        )
        return self.embeddings

    def _num_chunks(self, nu: int, ni: int) -> int:
        bs = self.batch_size
        return (nu + bs - 1) // bs + (ni + bs - 1) // bs
