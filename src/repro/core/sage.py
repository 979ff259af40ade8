"""Bipartite GraphSAGE (Section III-B, Eqs. 1–4).

Users aggregate embeddings from sampled item neighbours and vice versa.
Each side owns its aggregators, per-step weight matrices ``W_u^p`` /
``W_i^p`` and cross-space transformation matrices ``M_i^u`` / ``M_u^i``
(Eqs. 1–2).  The query–item variant of Section V-B shares one set of
matrices across both sides (Eqs. 8–11); enable it with
``SageConfig.shared_space=True`` (requires equal feature dimensions).

Mini-batch computation follows the standard GraphSAGE recipe: to embed
a batch at step ``p`` we recursively embed its sampled neighbours at
step ``p-1`` down to the raw features at step 0, with fan-outs
``K_1, ..., K_P`` (the K's of the paper's complexity analysis,
Section III-D).

Two hot-path optimisations keep this tractable at scale (Section III-D;
cf. Cascade-BGNN's redundancy elimination):

* **Frontier deduplication** — at every recursion level the flattened
  id frontier is reduced to its unique vertices; each unique vertex is
  embedded once and its rows are read back through the inverse index.
  Popular vertices appear many times in a ``K_1 x K_2`` frontier, so
  this cuts forward *and* backward FLOPs superlinearly with graph skew.
  The naive per-occurrence recursion it replaced lives on only as a
  test oracle (``tests/core/sage_oracle.py``).
* **Layer-wise full-graph inference** — :meth:`embed_all` computes the
  step-``p`` matrices for *all* vertices from the cached step-``p-1``
  matrices, one pass per step, instead of re-expanding the whole
  receptive field per batch.

One numpy kernel, :func:`_sage_forward`, computes Eqs. 1–4 for every
caller.  Inference runs it chunk by chunk; training runs it inside
:func:`sage_step`, a single autograd op per SAGE step with a
hand-written backward.  The sampled recursive path stays the training
path, but its tape holds one node per step instead of a gather, mask,
AGGREGATE, ``M``, CONCAT, ``W`` and activation chain; only the
edge-similarity head and J_BG (Eq. 5) are differentiated op by op.

Inference has exactly one engine, :meth:`BipartiteGraphSAGE._layerwise`:
chunk plan → sample → :func:`_layerwise_chunk` → write.  Chunk ``k`` of
``(side, step)`` draws its neighbours from
``derive_rng(sample_seed, key, side, step, k)``, a pure function of its
coordinates, so the result depends only on (weights, graph,
``sample_seed``, chunk size) — not on repeat calls, worker count, shard
count, or whether the chunk was recomputed by a delta refresh
(:class:`~repro.streaming.StreamingEmbedder`).  Dense graphs write into
an ndarray in the parent; a :class:`~repro.shard.storage.ShardedCSR`
store is written to memmaps by one pool task per shard.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.sampling import NeighborSampler
from repro.nn.layers import Linear, Module
from repro.obs import span
from repro.obs.metrics import counter_add, observe
from repro.nn.tensor import Tensor, _scatter_rows
from repro.parallel import as_ndarray, get_pool, shared_arrays
from repro.utils.config import SageConfig
from repro.utils.rng import clone_rng, derive_rng, ensure_rng

__all__ = ["BipartiteGraphSAGE", "sage_step"]


# ---------------------------------------------------------------------------
# The Eqs. 1–4 kernel (plain numpy, runs in-process or in workers)
# ---------------------------------------------------------------------------
# These repeat the Tensor ops' numpy expressions in the same order, so
# inference chunks, the fused training op and an op-at-a-time tape of
# the same step all produce the same bytes, at any worker count.

_NP_ACTIVATIONS = {
    "relu": lambda x: x * (x > 0),
    "leaky_relu": lambda x: np.where(x > 0, x, 0.01 * x),
    "tanh": np.tanh,
    "sigmoid": lambda x: np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, -500, None))),
        np.exp(np.clip(x, None, 500)) / (1.0 + np.exp(np.clip(x, None, 500))),
    ),
    "identity": lambda x: x,
}


def _np_aggregate(stacked: np.ndarray, valid: np.ndarray, agg: str) -> np.ndarray:
    """AGGREGATE over the fan-out axis of ``stacked`` (n, K, d).

    ``valid`` (n, K) marks real samples; padding rows are ignored.
    ``weighted_mean`` differs from ``mean`` only in how neighbours are
    sampled (by edge weight, upstream).
    """
    if agg == "max":
        masked = np.where(valid[:, :, None], stacked, np.full(stacked.shape, -1e30))
        any_valid = valid.any(axis=1)[:, None].astype(float)
        return masked.max(axis=1) * any_valid
    if agg not in ("mean", "weighted_mean", "sum"):
        raise ValueError(f"unknown aggregator {agg!r}")
    # Masking by 1.0 is exact, so a block without padding skips it.
    masked = stacked if valid.all() else stacked * valid.astype(float)[:, :, None]
    if agg == "sum":
        return masked.sum(axis=1)
    counts = np.maximum(valid.sum(axis=1, keepdims=True), 1).astype(float)
    return masked.sum(axis=1) * (1.0 / counts)


def _sharded_shard_task(task: tuple, context: tuple) -> int:
    """Run one shard's chunk list of a sharded layer-wise pass.

    ``task`` is ``(shard_id, chunks)`` with every chunk pre-sampled in
    the parent; ``context`` names the previous-step matrices and the
    output buffer as ``(path, shape)`` memmap specs plus the step's
    weights.  Each chunk writes a disjoint row range of the output, so
    results are independent of which worker runs what — and each chunk
    is computed by the exact dense-path kernel, so the bytes written are
    identical to the in-memory result.
    """
    from repro.obs.metrics import counter_add as _counter_add
    from repro.obs.monitor import heartbeat as _heartbeat
    from repro.shard.storage import open_block

    shard_id, chunks = task
    own_spec, other_spec, out_spec, params = context
    own_prev = open_block(own_spec[0], np.float64, own_spec[1], mode="r")
    other_prev = open_block(other_spec[0], np.float64, other_spec[1], mode="r")
    out = open_block(out_spec[0], np.float64, out_spec[1], mode="r+")
    read = written = 0
    total_rows = sum(stop - start for start, stop, _neigh in chunks)
    done_rows = 0
    for start, stop, neigh in chunks:
        out[start:stop] = _layerwise_chunk((start, stop, neigh), (own_prev, other_prev, params))
        read += ((stop - start) * own_prev.shape[1] + neigh.size * other_prev.shape[1]) * 8
        written += (stop - start) * out.shape[1] * 8
        done_rows += stop - start
        _heartbeat(
            f"shard{shard_id:03d}.embed",
            done_rows,
            total_rows,
            frontier=int(neigh.size),
        )
    if isinstance(out, np.memmap):
        out.flush()
    _counter_add("shard.mmap_bytes_read", read)
    _counter_add("shard.mmap_bytes_written", written)
    return shard_id


def _sage_forward(
    own: np.ndarray,
    other: np.ndarray,
    index: np.ndarray,
    valid: np.ndarray,
    params: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eqs. 1–4 for one block of vertices: the one kernel of the module.

    ``own`` holds the block's own step ``p-1`` rows, ``other`` the
    neighbour side's step ``p-1`` rows, ``index`` (n, K) the row of
    ``other`` for each sampled neighbour and ``valid`` (n, K) which of
    those are real (padding rows are ignored).  Returns the step-``p``
    rows plus the intermediates the training backward reuses:
    ``(h, aggregated, combined, pre_activation)``.
    """
    stacked = np.take(other, index, axis=0)
    aggregated = _np_aggregate(stacked, valid, params["aggregator"])
    transformed = aggregated @ params["m_w"]  # Eq. 1 / Eq. 2 (M has no bias)
    if params["m_b"] is not None:
        transformed = transformed + params["m_b"]
    combined = np.concatenate([own, transformed], axis=-1)
    z = combined @ params["w_w"]
    if params["w_b"] is not None:
        z = z + params["w_b"]
    h = _NP_ACTIVATIONS[params["activation"]](z)  # Eq. 3 / Eq. 4
    return h, aggregated, combined, z


def _layerwise_chunk(task: tuple, context: tuple) -> np.ndarray:
    """Embed one pre-sampled vertex chunk at one step (Eqs. 1–4).

    ``task`` is ``(start, stop, neigh)`` with neighbours already sampled
    in the parent (fixed order, so the sampling stream is untouched by
    parallelism).  ``context`` carries the previous-step matrices —
    possibly as shared-memory handles — plus the step's weights.
    """
    start, stop, neigh = task
    own_handle, other_handle, params = context
    own_prev = as_ndarray(own_handle)[start:stop]
    other_prev = as_ndarray(other_handle)
    valid = neigh >= 0
    index = np.where(valid, neigh, 0)
    return _sage_forward(own_prev, other_prev, index, valid, params)[0]


# ---------------------------------------------------------------------------
# The fused training op: Eqs. 1–4 with a hand-written backward
# ---------------------------------------------------------------------------
# Each expression below repeats the one the op-at-a-time tape would
# evaluate for the same step (activation, bias add, two matmuls, CONCAT,
# the masked aggregate, the row gather), so gradients are bitwise equal
# to differentiating the chain node by node.


def _activation_grad(
    name: str, grad: np.ndarray, z: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """d loss / d pre-activation, given d loss / d ``h`` = act(``z``)."""
    if name == "relu":
        return grad * (z > 0)
    if name == "leaky_relu":
        return grad * np.where(z > 0, 1.0, 0.01)
    if name == "tanh":
        return grad * (1.0 - h**2)
    if name == "sigmoid":
        return grad * h * (1.0 - h)
    return grad  # identity


def _aggregate_grad(
    grad: np.ndarray, other: np.ndarray, index: np.ndarray, valid: np.ndarray, agg: str
) -> np.ndarray:
    """d loss / d stacked neighbour rows (n, K, d), given d loss / d AGGREGATE."""
    maskf = valid.astype(float)[:, :, None]
    if agg in ("mean", "weighted_mean"):
        counts = np.maximum(valid.sum(axis=1, keepdims=True), 1).astype(float)
        return (grad * (1.0 / counts))[:, None, :] * maskf
    if agg == "sum":
        return grad[:, None, :] * maskf
    if agg == "max":
        # The gradient goes to the arg-max rows, split evenly among ties.
        masked = np.where(valid[:, :, None], np.take(other, index, axis=0), -1e30)
        top = masked.max(axis=1)[:, None, :]
        hits = masked == top
        g = (grad * valid.any(axis=1)[:, None].astype(float))[:, None, :]
        return hits * g / hits.sum(axis=1, keepdims=True) * maskf
    raise ValueError(f"unknown aggregator {agg!r}")


def _kernel_params(
    transform: Linear, weight: Linear, activation: str, aggregator: str
) -> dict:
    """The arrays and names :func:`_sage_forward` reads for one step."""
    return {
        "m_w": transform.weight.data,
        "m_b": None if transform.bias is None else transform.bias.data,
        "w_w": weight.weight.data,
        "w_b": None if weight.bias is None else weight.bias.data,
        "activation": activation,
        "aggregator": aggregator,
    }


def sage_step(
    own_prev: Tensor,
    other: Tensor,
    index: np.ndarray,
    valid: np.ndarray,
    transform: Linear,
    weight: Linear,
    activation: str,
    aggregator: str,
) -> Tensor:
    """One SAGE step (Eqs. 1–4) as a single autograd op.

    ``own_prev`` (n, d_own) holds the vertices' own step ``p-1`` rows,
    ``other`` (m, d_other) the step ``p-1`` rows of their unique sampled
    neighbours, ``index`` (n, K) the ``other`` row of each sample and
    ``valid`` (n, K) which samples are real.  ``transform`` and
    ``weight`` are the step's ``M`` and ``W``.  The forward is the
    inference kernel :func:`_sage_forward`; the backward is written by
    hand and skips every input that does not require grad (step-0
    features never do).
    """
    params = _kernel_params(transform, weight, activation, aggregator)
    h, aggregated, combined, z = _sage_forward(
        own_prev.data, other.data, index, valid, params
    )
    d_own = own_prev.shape[1]

    def backward(grad: np.ndarray) -> None:
        g = _activation_grad(activation, grad, z, h)
        if weight.bias is not None and weight.bias.requires_grad:
            weight.bias._accumulate(g.sum(axis=0), owned=True)
        if weight.weight.requires_grad:
            weight.weight._accumulate(combined.T @ g, owned=True)
        d_combined = g @ weight.weight.data.T
        if own_prev.requires_grad:
            own_prev._accumulate(d_combined[:, :d_own])
        # The tape hands M's matmul a contiguous copy of this slice.
        d_transformed = np.ascontiguousarray(d_combined[:, d_own:])
        if transform.bias is not None and transform.bias.requires_grad:
            transform.bias._accumulate(d_transformed.sum(axis=0), owned=True)
        if transform.weight.requires_grad:
            transform.weight._accumulate(aggregated.T @ d_transformed, owned=True)
        if other.requires_grad:
            d_aggregated = d_transformed @ transform.weight.data.T
            d_stacked = _aggregate_grad(
                d_aggregated, other.data, index, valid, aggregator
            )
            other._accumulate(_scatter_rows(index, d_stacked, other.shape), owned=True)

    # own_prev before other: the tape then walks the own-side subtree
    # first, as it did for the CONCAT of Eqs. 3–4, so shared parameters
    # accumulate their gradients in the same order.
    parents = [own_prev, other, transform.weight, weight.weight]
    parents += [p for p in (transform.bias, weight.bias) if p is not None]
    return Tensor._make(h, parents, backward)


# ---------------------------------------------------------------------------
# Output sinks of the layer-wise engine
# ---------------------------------------------------------------------------
# Key separating the inference sampling stream from every other
# derive_rng consumer (the trainer uses small integer keys).
_STREAM_KEY = 0x51BE
_SIDES = ("user", "item")
_OTHER = {"user": "item", "item": "user"}


class _ArraySink:
    """Dense pass: one pool task per chunk, blocks written into an ndarray."""

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def exchange(self, side: str, step: int, fanout: int):
        return contextlib.nullcontext()

    def route(self, side: str, tasks: list) -> list:
        return tasks

    def write(self, pool, step, side, tasks, own_prev, other_prev, params, n, cached):
        out = np.empty((n, self.dim), dtype=np.float64)
        if cached is not None:
            out[: len(cached)] = cached
        with shared_arrays(pool, own_prev, other_prev) as (own_h, other_h):
            rows = pool.map(
                _layerwise_chunk,
                tasks,
                context=(own_h, other_h, params),
                label="sage.layerwise_chunk",
            )
        for (start, stop, _), block in zip(tasks, rows):
            out[start:stop] = block
        return out

    def close(self) -> None:
        pass


class _ShardSink:
    """Sharded pass: one pool task per shard, writing memmap files.

    A chunk belongs to the shard owning most of its rows, so each
    worker streams one shard's blocks.  Every step matrix goes to a
    fresh file under ``<store>/embed`` that :meth:`close` unlinks once
    the pass is done: the memmaps a call returns stay valid and are
    never overwritten by a later call on the same store.
    """

    def __init__(self, store, dim: int) -> None:
        self.store = store
        self.dim = dim
        self.work = store.path / "embed"
        self.work.mkdir(parents=True, exist_ok=True)
        self.paths: list[str] = []

    @contextlib.contextmanager
    def exchange(self, side: str, step: int, fanout: int):
        with span("shard.frontier_exchange", side=side, step=step, fanout=fanout):
            yield

    def route(self, side: str, tasks: list) -> list:
        """Group chunks by home shard, counting cross-shard frontier rows."""
        store = self.store
        own_shard = store.shard_of(side)
        other_shard = store.shard_of(_OTHER[side])
        per_shard: list[list] = [[] for _ in range(store.num_shards)]
        for start, stop, neigh in tasks:
            valid = neigh >= 0
            cross = valid & (
                other_shard[np.where(valid, neigh, 0)] != own_shard[start:stop, None]
            )
            counter_add("shard.frontier_rows", int(valid.sum()))
            counter_add("shard.frontier_cross_rows", int(cross.sum()))
            home = np.bincount(own_shard[start:stop], minlength=store.num_shards)
            per_shard[int(home.argmax())].append((start, stop, neigh))
        return [(shard, chunks) for shard, chunks in enumerate(per_shard) if chunks]

    def write(self, pool, step, side, tasks, own_prev, other_prev, params, n, cached):
        from repro.shard.storage import allocate_block, open_block

        fd, path = tempfile.mkstemp(
            prefix=f"h{step}_{side}_", suffix=".bin", dir=self.work
        )
        os.close(fd)
        self.paths.append(path)
        shape = (n, self.dim)
        allocate_block(path, np.float64, shape)
        pool.map(
            _sharded_shard_task,
            tasks,
            context=(
                (own_prev.filename, own_prev.shape),
                (other_prev.filename, other_prev.shape),
                (path, shape),
                params,
            ),
            label="sage.sharded_shard",
        )
        return open_block(path, np.float64, shape, mode="r")

    def close(self) -> None:
        for path in self.paths:
            with contextlib.suppress(OSError):
                os.unlink(path)


class BipartiteGraphSAGE(Module):
    """The bipartite GraphSAGE module BG(G, X_u, X_i) of the paper.

    Parameters
    ----------
    user_dim, item_dim:
        Raw feature dimensions d_u and d_i.
    config:
        Hyper-parameters; see :class:`repro.utils.config.SageConfig`.
    rng:
        Seed / generator for weight init and neighbour sampling.
    """

    def __init__(
        self,
        user_dim: int,
        item_dim: int,
        config: SageConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = config or SageConfig()
        cfg = self.config
        if cfg.shared_space and user_dim != item_dim:
            raise ValueError(
                "shared_space requires equal user/item feature dimensions "
                f"(got {user_dim} and {item_dim})"
            )
        rng = ensure_rng(rng)
        self.user_dim = user_dim
        self.item_dim = item_dim
        if cfg.activation not in _NP_ACTIVATIONS:
            raise ValueError(
                f"unknown activation {cfg.activation!r}; "
                f"choose from {sorted(_NP_ACTIVATIONS)}"
            )
        d = cfg.embedding_dim

        # Per-step dimensions: step 1 consumes raw features, later steps
        # consume d-dimensional embeddings from the previous step.
        user_dims = [user_dim] + [d] * cfg.num_steps
        item_dims = [item_dim] + [d] * cfg.num_steps

        self.user_transform: list[Linear] = []  # M_i^u per step (item -> user)
        self.item_transform: list[Linear] = []  # M_u^i per step (user -> item)
        self.user_weight: list[Linear] = []  # W_u^p
        self.item_weight: list[Linear] = []  # W_i^p
        for p in range(1, cfg.num_steps + 1):
            m_iu = Linear(item_dims[p - 1], d, bias=False, rng=rng)
            w_u = Linear(user_dims[p - 1] + d, d, rng=rng)
            if cfg.shared_space:
                m_ui, w_i = m_iu, w_u  # Eqs. 8-11: shared M^p and W^p
            else:
                m_ui = Linear(user_dims[p - 1], d, bias=False, rng=rng)
                w_i = Linear(item_dims[p - 1] + d, d, rng=rng)
            self.user_transform.append(m_iu)
            self.item_transform.append(m_ui)
            self.user_weight.append(w_u)
            self.item_weight.append(w_i)
        self._sample_rng = derive_rng(rng, 7)
        # Root of the per-chunk inference sampling stream, read without
        # advancing the training stream and fixed from here on.
        self.sample_seed = int(clone_rng(self._sample_rng).integers(2**63 - 1))
        # One NeighborSampler per graph, built lazily on first use —
        # the recursion previously rebuilt a sampler at every step.
        self._sampler_cache: tuple[BipartiteGraph, NeighborSampler] | None = None

    # ------------------------------------------------------------------
    # Embedding computation
    # ------------------------------------------------------------------
    def embed_users(self, graph: BipartiteGraph, user_ids: np.ndarray) -> Tensor:
        """Final user embeddings z_u for ``user_ids`` (builds autograd graph)."""
        return self._embed(graph, np.asarray(user_ids), self.config.num_steps, "user")

    def embed_items(self, graph: BipartiteGraph, item_ids: np.ndarray) -> Tensor:
        """Final item embeddings z_i for ``item_ids`` (builds autograd graph)."""
        return self._embed(graph, np.asarray(item_ids), self.config.num_steps, "item")

    def embed_all(
        self,
        graph,
        batch_size: int = 2048,
        mode: str = "layerwise",
        workers: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode embeddings (Z_u, Z_i) for every vertex.

        Computes each step for the whole graph from the cached
        previous-step matrices — O(P·N·K·d) work instead of the
        recursive path's O(N·K_1·...·K_P·d).  Called at every HiGNN
        level (Algorithm 1).

        ``graph`` is a :class:`BipartiteGraph` or a
        :class:`~repro.shard.storage.ShardedCSR` store; a store is
        embedded out-of-core and comes back as read-only memmaps.
        ``workers`` fans the chunks out over a process pool.  The result
        is a pure function of (weights, graph, :attr:`sample_seed`,
        ``batch_size``): bitwise identical across repeat calls, worker
        counts, shard counts, and ``StreamingEmbedder(self).full_embed``.
        ``mode`` accepts only ``"layerwise"``.
        """
        if mode != "layerwise":
            raise ValueError(f"unknown embed_all mode {mode!r}; only 'layerwise'")
        with span(
            "sage.embed_all",
            num_users=graph.num_users,
            num_items=graph.num_items,
        ):
            h = self._layerwise(graph, batch_size, get_pool(workers), self.sample_seed)
        return h[-1]["user"], h[-1]["item"]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _features(self, graph, side: str) -> np.ndarray:
        if isinstance(graph, BipartiteGraph):
            feats = graph.user_features if side == "user" else graph.item_features
        else:  # a ShardedCSR store: a read-only memmap
            feats = None if graph.feature_dim(side) is None else graph.features(side)
        if feats is None:
            raise ValueError(f"graph is missing {side} features")
        expected = self.user_dim if side == "user" else self.item_dim
        if feats.shape[1] != expected:
            raise ValueError(
                f"{side} features have dim {feats.shape[1]}, module expects {expected}"
            )
        return feats

    def _sampler(self, graph: BipartiteGraph) -> NeighborSampler:
        """The cached per-graph sampler (built once, reused everywhere)."""
        cached = self._sampler_cache
        if cached is None or cached[0] is not graph or cached[1].rng is not self._sample_rng:
            # Rebuilt when the graph changes *or* ``_sample_rng`` is
            # reassigned (tests freeze sampling by swapping the rng).
            self._sampler_cache = (graph, NeighborSampler(graph, rng=self._sample_rng))
            cached = self._sampler_cache
        return cached[1]

    def _step_modules(self, step: int, side: str) -> tuple[Linear, Linear]:
        """The (M, W) pair for ``step`` on ``side`` (Eqs. 1–4)."""
        if side == "user":
            return self.user_transform[step - 1], self.user_weight[step - 1]
        return self.item_transform[step - 1], self.item_weight[step - 1]

    def _embed(
        self, graph: BipartiteGraph, ids: np.ndarray, step: int, side: str
    ) -> Tensor:
        """h^step for ``ids`` on ``side``; -1 ids produce zero rows.

        Embeds each *unique* id once and scatters rows back through the
        inverse index.
        """
        ids = np.asarray(ids)
        mask = ids >= 0
        unique, inverse = np.unique(np.where(mask, ids, 0), return_inverse=True)
        counter_add("sage.vertices_embedded", len(unique))
        observe("sage.frontier_size", len(unique))
        out = self._embed_frontier(graph, unique, step, side).gather_rows(inverse)
        if not mask.all():
            out = out * mask[:, None].astype(float)
        return out

    def _sample(
        self, graph: BipartiteGraph, ids: np.ndarray, step: int, side: str
    ) -> np.ndarray:
        """Training-stream neighbour sample (len(ids), K_step) for ``step``."""
        fanout = self.config.neighbor_samples[self.config.num_steps - step]
        sampler = self._sampler(graph)
        if side == "user":
            return sampler.sample_items_for_users(ids, fanout)
        return sampler.sample_users_for_items(ids, fanout)

    def _embed_frontier(
        self, graph: BipartiteGraph, ids: np.ndarray, step: int, side: str
    ) -> Tensor:
        """h^step for a frontier of unique, valid ids on ``side``.

        Samples the frontier's neighbours, embeds each unique neighbour
        once at ``step - 1`` and applies one :func:`sage_step`.
        """
        if step == 0:
            return Tensor(self._features(graph, side)[ids])
        # Own rows first: the sampling stream is consumed in this order.
        own_prev = self._embed_frontier(graph, ids, step - 1, side)
        neigh = self._sample(graph, ids, step, side)
        valid = neigh >= 0
        other_side = _OTHER[side]
        unique, inverse = np.unique(
            np.where(valid, neigh, 0).reshape(-1), return_inverse=True
        )
        counter_add("sage.vertices_embedded", len(unique))
        observe("sage.frontier_size", len(unique))
        other = self._embed_frontier(graph, unique, step - 1, other_side)
        cfg = self.config
        return sage_step(
            own_prev,
            other,
            inverse.reshape(neigh.shape),
            valid,
            *self._step_modules(step, side),
            cfg.activation,
            cfg.aggregator,
        )

    # ------------------------------------------------------------------
    # Layer-wise inference engine
    # ------------------------------------------------------------------
    def _layerwise(
        self,
        graph,
        batch_size: int,
        pool,
        seed: int,
        plan: list[dict[str, np.ndarray]] | None = None,
        cached: list[dict[str, np.ndarray]] | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """Step matrices ``[h^0, ..., h^P]`` of ``graph``, each a side dict.

        Every (step, side) pass runs chunk plan → sample →
        :func:`_layerwise_chunk` → write.  Chunk ``k`` draws from
        ``derive_rng(seed, key, side, step, k)``, so its neighbours do
        not depend on which other chunks run.  ``plan[p - 1][side]``
        lists the chunks to compute at step ``p`` (default: all); rows
        outside them come from ``cached``, the list an earlier call
        returned (shorter when the graph grew — new rows are always
        planned).  A :class:`BipartiteGraph` writes an ndarray in the
        parent, a ``ShardedCSR`` memmaps written by shard workers.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        cfg = self.config
        if isinstance(graph, BipartiteGraph):
            sink = _ArraySink(cfg.embedding_dim)
        else:
            sink = _ShardSink(graph, cfg.embedding_dim)
        sampler = NeighborSampler(graph, rng=0)
        h = [{side: self._features(graph, side) for side in _SIDES}]
        try:
            for step in range(1, cfg.num_steps + 1):
                fanout = cfg.neighbor_samples[cfg.num_steps - step]
                h.append({})
                for side in _SIDES:
                    n = len(h[0][side])
                    if plan is None:
                        chunk_ids = range(-(-n // batch_size))
                    else:
                        chunk_ids = plan[step - 1][side]
                    if len(chunk_ids) == 0:  # nothing planned, no new rows
                        h[step][side] = cached[step][side]
                        continue
                    tasks = []
                    with sink.exchange(side, step, fanout):
                        for k in chunk_ids:
                            start = int(k) * batch_size
                            stop = min(start + batch_size, n)
                            observe("sage.frontier_size", stop - start)
                            sampler.rng = derive_rng(
                                seed, _STREAM_KEY, _SIDES.index(side), step, int(k)
                            )
                            chunk = np.arange(start, stop)
                            if side == "user":
                                neigh = sampler.sample_items_for_users(chunk, fanout)
                            else:
                                neigh = sampler.sample_users_for_items(chunk, fanout)
                            tasks.append((start, stop, neigh))
                        jobs = sink.route(side, tasks)
                    counter_add(
                        "sage.vertices_embedded",
                        sum(stop - start for start, stop, _ in tasks),
                    )
                    h[step][side] = sink.write(
                        pool,
                        step,
                        side,
                        jobs,
                        h[step - 1][side],
                        h[step - 1][_OTHER[side]],
                        _kernel_params(
                            *self._step_modules(step, side),
                            cfg.activation,
                            cfg.aggregator,
                        ),
                        n,
                        None if cached is None else cached[step][side],
                    )
        finally:
            sink.close()
        return h
