"""Test-only oracle: the per-row weighted neighbour sampler.

``NeighborSampler`` draws weighted neighbours for a whole batch with one
``searchsorted`` over the global cumulative weights.  This module keeps
the per-row loop it replaced, which consumes the same rng draw stream,
so the equivalence tests can demand bitwise-equal picks.
"""

from __future__ import annotations

import numpy as np

from repro.graph.sampling import NeighborSampler


def sample_weighted_loop(
    sampler: NeighborSampler,
    csr,
    vertices: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    fanout: int,
    side: str,
) -> np.ndarray:
    """Per-row twin of ``NeighborSampler._sample_weighted``."""
    cum = sampler._user_cum if side == "user" else sampler._item_cum
    out = np.full((len(vertices), fanout), -1, dtype=np.int64)
    for row, (start, deg) in enumerate(zip(starts, degrees)):
        if deg == 0:
            continue
        base = cum[start - 1] if start > 0 else 0.0
        slice_cum = cum[start : start + deg] - base
        total = slice_cum[-1]
        draws = sampler.rng.random(fanout) * total
        picks = np.searchsorted(slice_cum, draws, side="right")
        out[row] = csr.indices[start + np.minimum(picks, deg - 1)]
    return out


def sample_reference(
    sampler: NeighborSampler, vertices: np.ndarray, fanout: int, side: str
) -> np.ndarray:
    """Mirror of ``NeighborSampler._sample`` routed through the per-row loop."""
    if not sampler.weighted:
        raise RuntimeError("sample_reference is only defined for weighted samplers")
    vertices = np.asarray(vertices, dtype=np.int64)
    csr = sampler.graph._user_csr if side == "user" else sampler.graph._item_csr
    starts = csr.indptr[vertices]
    degrees = csr.indptr[vertices + 1] - starts
    return sample_weighted_loop(sampler, csr, vertices, starts, degrees, fanout, side)
