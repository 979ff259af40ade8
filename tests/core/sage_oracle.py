"""Test-only oracle: the SAGE recursion built op by op on the autograd tape.

``BipartiteGraphSAGE`` trains through one fused op per SAGE step
(:func:`repro.core.sage.sage_step`) with a hand-written backward.  This
module keeps the previous, tape-built formulation of the same Eqs. 1–4
— row gather, validity mask, Tensor AGGREGATE, ``M`` as a
:class:`~repro.nn.layers.Linear`, CONCAT, ``W`` and the activation, one
tape node each — so the parity tests can differentiate both and compare
forwards and gradients.

* :func:`tape_step` is the op-at-a-time twin of ``sage_step``.
* :func:`embed_frontier` is the tape-built ``_embed_frontier``; install
  it with :func:`use_tape_recursion` to run a whole module (or a whole
  ``SageTrainer.fit``) through the tape.
* :func:`embed_naive` is the recursion before frontier deduplication:
  every frontier occurrence is embedded anew.  Install it with
  :func:`use_naive_recursion` to run ``embed_users``/``embed_items``
  through it.
"""

from __future__ import annotations

import numpy as np

from repro.core.sage import BipartiteGraphSAGE, sage_step
from repro.nn.layers import Activation, Linear
from repro.nn.tensor import Tensor, concat, where


def aggregate(stacked: Tensor, valid: np.ndarray, agg: str) -> Tensor:
    """AGGREGATE over the fan-out axis with a validity mask.

    ``stacked`` is (n, K, d); ``valid`` marks real neighbours (False
    entries are padding for isolated vertices).
    """
    maskf = valid.astype(float)[:, :, None]
    if agg in ("mean", "weighted_mean"):
        # weighted_mean differs only in how neighbours are *sampled*.
        counts = np.maximum(valid.sum(axis=1, keepdims=True), 1).astype(float)
        summed = (stacked * maskf).sum(axis=1)
        return summed * (1.0 / counts)
    if agg == "sum":
        return (stacked * maskf).sum(axis=1)
    if agg == "max":
        neg_inf = Tensor(np.full(stacked.shape, -1e30))
        masked = where(valid[:, :, None], stacked, neg_inf)
        out = masked.max(axis=1)
        any_valid = valid.any(axis=1)[:, None].astype(float)
        return out * any_valid
    raise ValueError(f"unknown aggregator {agg!r}")


def tape_step(
    own_prev: Tensor,
    other: Tensor,
    index: np.ndarray,
    valid: np.ndarray,
    transform: Linear,
    weight: Linear,
    activation: str,
    aggregator: str,
) -> Tensor:
    """``sage_step``'s arguments, evaluated one tape node at a time."""
    mask = valid.reshape(-1)
    flat = other.gather_rows(index.reshape(-1))
    if not mask.all():
        flat = flat * mask[:, None].astype(float)
    stacked = flat.reshape(valid.shape[0], valid.shape[1], flat.shape[1])
    transformed = transform(aggregate(stacked, valid, aggregator))  # Eq. 1 / Eq. 2
    combined = concat([own_prev, transformed], axis=-1)
    return Activation(activation)(weight(combined))  # Eq. 3 / Eq. 4


def embed_frontier(
    module: BipartiteGraphSAGE,
    graph,
    ids: np.ndarray,
    step: int,
    side: str,
) -> Tensor:
    """h^step for a frontier of unique, valid ids, built on the tape."""
    cfg = module.config
    if step == 0:
        return Tensor(module._features(graph, side)[ids])

    # Own embedding at the previous step (the CONCAT left operand).
    own_prev = module._embed_frontier(graph, ids, step - 1, side)

    # Sampled neighbour embeddings at the previous step.
    fanout = cfg.neighbor_samples[cfg.num_steps - step]
    sampler = module._sampler(graph)
    if side == "user":
        neigh = sampler.sample_items_for_users(ids, fanout)
    else:
        neigh = sampler.sample_users_for_items(ids, fanout)
    other = "item" if side == "user" else "user"
    flat = module._embed(graph, neigh.reshape(-1), step - 1, other)
    stacked = flat.reshape(len(ids), fanout, flat.shape[1])
    aggregated = aggregate(stacked, neigh >= 0, cfg.aggregator)

    transform, weight = module._step_modules(step, side)
    transformed = transform(aggregated)  # Eq. 1 / Eq. 2
    combined = concat([own_prev, transformed], axis=-1)
    return Activation(cfg.activation)(weight(combined))  # Eq. 3 / Eq. 4


def use_tape_recursion(monkeypatch) -> None:
    """Route every ``BipartiteGraphSAGE`` through :func:`embed_frontier`."""
    monkeypatch.setattr(BipartiteGraphSAGE, "_embed_frontier", embed_frontier)


def embed_naive(
    module: BipartiteGraphSAGE,
    graph,
    ids: np.ndarray,
    step: int,
    side: str,
) -> Tensor:
    """h^step for ``ids`` with every frontier occurrence embedded anew.

    -1 ids produce zero rows, as in ``BipartiteGraphSAGE._embed``.
    """
    ids = np.asarray(ids)
    mask = ids >= 0
    safe = np.where(mask, ids, 0)

    if step == 0:
        base = module._features(graph, side)[safe].copy()
        base[~mask] = 0.0
        return Tensor(base)

    own_prev = embed_naive(module, graph, ids, step - 1, side)
    neigh = module._sample(graph, safe, step, side)
    neigh[~mask] = -1
    other_side = "item" if side == "user" else "user"
    other = embed_naive(module, graph, neigh.reshape(-1), step - 1, other_side)
    cfg = module.config
    out = sage_step(
        own_prev,
        other,
        np.arange(neigh.size).reshape(neigh.shape),
        neigh >= 0,
        *module._step_modules(step, side),
        cfg.activation,
        cfg.aggregator,
    )
    if not mask.all():
        out = out * mask[:, None].astype(float)
    return out


def use_naive_recursion(monkeypatch) -> None:
    """Route every ``BipartiteGraphSAGE._embed`` through :func:`embed_naive`."""
    monkeypatch.setattr(BipartiteGraphSAGE, "_embed", embed_naive)
