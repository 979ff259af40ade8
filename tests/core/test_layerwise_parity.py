"""One layer-wise engine: every inference path returns the same bytes.

Inference is a pure function of (weights, graph, ``sample_seed``, chunk
size).  On random graphs this property test checks that repeat
``embed_all`` calls, dense and sharded ``embed_all`` (any shard count,
any worker count), ``StreamingEmbedder(model).full_embed`` and a delta
refresh after a sequence of edge and vertex deltas — duplicate edges
included — all agree bitwise.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.streaming import IncrementalBipartiteGraph, StreamingEmbedder
from repro.utils.config import SageConfig

DIM = 4


def _equal(got, want) -> bool:
    return all(
        a.shape == b.shape and np.array_equal(np.asarray(a), np.asarray(b))
        for a, b in zip(got, want)
    )


@st.composite
def _delta(draw):
    """New vertices, fresh edges (as fractions of the grown id range)
    and how many existing edges to repeat."""
    return {
        "users": draw(st.integers(0, 3)),
        "items": draw(st.integers(0, 3)),
        "edges": draw(
            st.lists(
                st.tuples(st.floats(0, 0.999), st.floats(0, 0.999)), max_size=6
            )
        ),
        "duplicates": draw(st.integers(0, 3)),
    }


@st.composite
def _scenario(draw):
    num_users = draw(st.integers(1, 40))
    num_items = draw(st.integers(1, 30))
    return {
        "num_users": num_users,
        "num_items": num_items,
        "num_edges": draw(st.integers(0, min(num_users * num_items, 150))),
        "seed": draw(st.integers(0, 2**16)),
        "shards": draw(st.integers(1, 17)),
        "chunk": draw(st.integers(1, 48)),
        "workers": draw(st.sampled_from([1, 2])),
        "deltas": draw(st.lists(_delta(), min_size=1, max_size=3)),
    }


def _apply(inc: IncrementalBipartiteGraph, delta: dict, rng) -> None:
    if delta["users"]:
        inc.add_users(delta["users"], rng.normal(size=(delta["users"], DIM)))
    if delta["items"]:
        inc.add_items(delta["items"], rng.normal(size=(delta["items"], DIM)))
    edges = [
        (int(u * inc.num_users), int(i * inc.num_items)) for u, i in delta["edges"]
    ]
    existing = inc.graph.edges
    if len(existing) and delta["duplicates"]:
        picks = rng.integers(0, len(existing), delta["duplicates"])
        edges += [tuple(e) for e in existing[picks]]
    if edges:
        inc.add_edges(np.array(edges))


@pytest.mark.parallel
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_scenario())
# A new item joins the partly full tail chunk: the chunk's matmul changes
# shape, so its old row may change in the low bits and the user reading
# it must be recomputed too.
@example(
    case={
        "num_users": 1,
        "num_items": 1,
        "num_edges": 1,
        "seed": 0,
        "shards": 1,
        "chunk": 2,
        "workers": 1,
        "deltas": [{"users": 0, "items": 1, "edges": [], "duplicates": 0}],
    }
)
def test_every_inference_path_is_bitwise_equal(case, tmp_path_factory):
    graph = random_bipartite(
        case["num_users"],
        case["num_items"],
        case["num_edges"],
        feature_dim=DIM,
        rng=case["seed"],
    )
    cfg = SageConfig(embedding_dim=6, neighbor_samples=(3, 2))
    model = BipartiteGraphSAGE(DIM, DIM, cfg, rng=case["seed"])
    chunk, workers = case["chunk"], case["workers"]

    dense = model.embed_all(graph, batch_size=chunk, workers=workers)
    assert _equal(model.embed_all(graph, batch_size=chunk), dense)

    path = tmp_path_factory.mktemp("store") / "s"
    with graph.to_sharded(path, num_shards=case["shards"]) as store:
        sharded = model.embed_all(store, batch_size=chunk, workers=workers)
        assert _equal(sharded, dense)
        del sharded

    embedder = StreamingEmbedder(model, batch_size=chunk)
    assert _equal(embedder.full_embed(graph, workers=workers), dense)

    inc = IncrementalBipartiteGraph(graph)
    rng = np.random.default_rng(case["seed"])
    for delta in case["deltas"]:
        _apply(inc, delta, rng)
        embedder.refresh(inc, workers=workers)
    mutated = inc.graph
    assert _equal(embedder.embeddings, model.embed_all(mutated, batch_size=chunk))
