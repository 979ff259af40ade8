"""Per-layer spans for the traced run, recorded from outside ``src/``.

The benchmark opens its own spans (``repro.obs.span``) around the calls
it makes into each layer.  Layers the pipelines call internally (the
SAGE training step, sampling, backward, optimiser, K-means, coarsening,
``embed_all``) are wrapped for the duration of the traced pass by
:func:`instrumented`, which swaps the public attribute for a wrapper
and puts the original back on exit.  The spans the library already
emits (``parallel.map``, ``shard.frontier_exchange``, worker task
spans, ...) land in the same tracer, so :func:`tally` can attribute
every second to the nearest enclosing layer.

Outside a traced pass ``repro.obs.span`` is a shared no-op, so the
workloads call the same code in both modes.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Iterator

from repro import obs


def _wrap(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_generator(fn, name: str):
    """Span each ``next()`` of a generator function separately.

    A span held open across ``yield`` would swallow the caller's work
    between batches.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            with obs.span(name):
                try:
                    item = next(inner)
                except StopIteration:
                    return
            yield item

    return wrapper


def _targets() -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper factory) for every wrapped entry point."""
    import repro.core.hignn as hignn
    import repro.core.trainer as trainer
    import repro.prediction.cvr_model as cvr_model
    from repro.core.sage import BipartiteGraphSAGE
    from repro.graph.sampling import NegativeSampler, NeighborSampler
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor

    spans = [
        (trainer.SageTrainer, "fit", "core.train", False),
        (BipartiteGraphSAGE, "embed_all", "core.embed_all", False),
        (hignn, "kmeans", "clustering.kmeans", False),
        (hignn, "coarsen", "graph.coarsen", False),
        (NeighborSampler, "sample_items_for_users", "graph.sampling", False),
        (NeighborSampler, "sample_users_for_items", "graph.sampling", False),
        (NegativeSampler, "sample_users", "graph.sampling", False),
        (NegativeSampler, "sample_items", "graph.sampling", False),
        (trainer, "sample_edge_batches", "graph.sampling", True),
        (Tensor, "backward", "nn.backward", False),
        (trainer, "clip_grad_norm", "nn.optim", False),
        (cvr_model, "clip_grad_norm", "nn.optim", False),
    ]
    for cls in (Optimizer, *Optimizer.__subclasses__()):
        for attr in ("step", "zero_grad"):
            if attr in vars(cls):
                spans.append((cls, attr, "nn.optim", False))
    return [
        (
            owner,
            attr,
            functools.partial(_wrap_generator if generator else _wrap, name=name),
        )
        for owner, attr, name, generator in spans
    ]


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Wrap the layer entry points in spans; restore them on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, wrap in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class LayerTimes:
    """Span time per (enclosing layer, layer) pair.

    ``total`` is wall time inside the layer's spans; ``self`` subtracts
    the part covered by the nearest nested layer spans.  A span nested
    in one of its own name (an optimiser ``step`` calling its base
    class) is folded into the outer one, never counted twice.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple[str | None, str], list] = {}

    def add(self, parent: str | None, name: str, total: float, own: float) -> None:
        row = self._rows.setdefault((parent, name), [0.0, 0.0, 0])
        row[0] += total
        row[1] += own
        row[2] += 1

    def _row(self, parent: str | None, name: str):
        return self._rows.get((parent, name), (0.0, 0.0, 0))

    def total(self, parent: str | None, name: str) -> float:
        return self._row(parent, name)[0]

    def self_time(self, parent: str | None, name: str) -> float:
        return self._row(parent, name)[1]

    def calls(self, parent: str | None, name: str) -> int:
        return self._row(parent, name)[2]


def _nearest(span, names: frozenset[str], owner: str | None):
    for child in span.children:
        if child.name in names and child.name != owner:
            yield child
        else:
            yield from _nearest(child, names, owner)


def tally(tracer, names) -> LayerTimes:
    """Attribute every span named in ``names`` to its nearest layer parent."""
    names = frozenset(names)
    times = LayerTimes()

    def visit(sp, parent: str | None) -> None:
        kids = list(_nearest(sp, names, sp.name))
        covered = sum(k.duration_s for k in kids)
        times.add(parent, sp.name, sp.duration_s, sp.duration_s - covered)
        for kid in kids:
            visit(kid, sp.name)

    for root in tracer.roots:
        tops = [root] if root.name in names else list(_nearest(root, names, None))
        for top in tops:
            visit(top, None)
    return times


def histogram_percentile(registry, name: str, q: int) -> float | None:
    """``p<q>`` of a ``repro.obs`` histogram, or None when it never fired."""
    hist = registry.histograms.get(name)
    if hist is None or not hist.count:
        return None
    return hist.quantile(q / 100.0)
