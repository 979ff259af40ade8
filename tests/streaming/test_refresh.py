"""Delta refresh is bitwise-identical to a full re-embed of the mutated graph.

The contract: after any edge/vertex delta,
``StreamingEmbedder.refresh(mutated)`` produces exactly the floats of
``full_embed(mutated)`` on a fresh embedder — at any worker count, for
any delta size, whether the plan reached a few chunks or all of them.
The trick is content-addressed sampling (every chunk's neighbour draw is
seeded by its coordinates, not by stream position) plus whole-chunk
recomputation (identical task tuples through the same kernel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.parallel import shutdown_pools
from repro.streaming import IncrementalBipartiteGraph, StreamingEmbedder
from repro.utils.config import SageConfig


def _world(num_users=200, num_items=150, num_edges=800, seed=0):
    graph = random_bipartite(
        num_users, num_items, num_edges, feature_dim=6, rng=seed
    )
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
    model = BipartiteGraphSAGE(6, 6, cfg, rng=seed)
    return graph, model


def _mutate(graph, delta_edges, seed=1):
    rng = np.random.default_rng(seed)
    inc = IncrementalBipartiteGraph(graph)
    edges = np.stack(
        [
            rng.integers(0, graph.num_users, delta_edges),
            rng.integers(0, graph.num_items, delta_edges),
        ],
        axis=1,
    )
    inc.add_edges(edges)
    return inc


def _assert_bitwise_equal(got, want):
    for side, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape
        assert np.array_equal(a, b), f"side {side} differs"


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("delta_edges", [1, 5, 50])
    def test_edge_delta_matches_full_embed(self, delta_edges):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        inc = _mutate(graph, delta_edges)
        embedder.refresh(inc)
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_vertex_delta_matches_full_embed(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        rng = np.random.default_rng(2)
        inc = IncrementalBipartiteGraph(graph)
        users = inc.add_users(3, features=rng.normal(size=(3, 6)))
        items = inc.add_items(2, features=rng.normal(size=(2, 6)))
        inc.add_edges(
            np.array([[users[0], items[0]], [users[1], items[1]], [users[2], 0]])
        )
        embedder.refresh(inc)
        z_user, z_item = embedder.embeddings
        assert len(z_user) == graph.num_users + 3
        assert len(z_item) == graph.num_items + 2
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_chained_refreshes_match_full_embed(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        inc = IncrementalBipartiteGraph(graph)
        rng = np.random.default_rng(3)
        for _ in range(3):
            edges = np.stack(
                [
                    rng.integers(0, inc.num_users, 2),
                    rng.integers(0, inc.num_items, 2),
                ],
                axis=1,
            )
            inc.add_edges(edges)
            embedder.refresh(inc)
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_refresh_after_compaction_matches(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        inc = _mutate(graph, 4)
        inc.graph  # folding the log changes the graph object, not staleness
        inc.add_edges(np.array([[0, 0], [7, 9]]))
        embedder.refresh(inc)
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)


class TestRefreshStats:
    def test_sparse_delta_takes_the_delta_path(self):
        # Sparse graph + single-edge delta: the 2-hop affected set
        # reaches only some of the chunks.
        graph, model = _world(800, 600, 1600)
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=64)
        embedder.full_embed(graph)
        inc = _mutate(graph, 1)
        embedder.refresh(inc)
        stats = embedder.last_stats
        assert stats.mode == "delta"
        assert 0.0 < stats.recompute_fraction < 1.0
        assert stats.chunks_recomputed < stats.chunks_total
        assert stats.rows_recomputed < stats.rows_total

    def test_cold_refresh_runs_full_embed(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.refresh(graph)  # nothing cached yet
        assert embedder.last_stats.mode == "full"
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        reference.full_embed(graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)

    def test_noop_refresh_recomputes_nothing(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        before = tuple(a.copy() for a in embedder.embeddings)
        embedder.refresh(graph)  # no dirty vertices, same graph
        stats = embedder.last_stats
        assert stats.mode == "delta"
        assert stats.rows_recomputed == 0
        _assert_bitwise_equal(embedder.embeddings, before)

    def test_incremental_graph_dirty_cleared_on_success(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        inc = _mutate(graph, 2)
        assert len(inc.dirty_users) > 0
        embedder.refresh(inc)
        assert len(inc.dirty_users) == 0
        assert len(inc.dirty_items) == 0


class TestErrorPaths:
    def test_embeddings_before_any_pass_raises(self):
        _, model = _world()
        embedder = StreamingEmbedder(model)
        with pytest.raises(RuntimeError, match="embed"):
            embedder.embeddings

    def test_shrunken_graph_rejected(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        smaller = random_bipartite(50, 40, 100, feature_dim=6, rng=0)
        with pytest.raises(ValueError, match="only grow"):
            embedder.refresh(smaller)

    def test_out_of_range_dirty_ids_rejected(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        with pytest.raises(ValueError):
            embedder.refresh(graph, dirty_users=np.array([graph.num_users + 5]))


@pytest.mark.parallel
class TestDuplicateEdges:
    def test_duplicate_edge_after_out_of_order_delta(self):
        # A delta appends edges out of id order (low users onto high
        # items); a later duplicate edge rebuilds the graph through the
        # duplicate merge, which must not re-sort those earlier rows —
        # the refresh never marks them dirty again.
        graph = random_bipartite(5000, 3000, 20000, feature_dim=6, rng=0)
        cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
        model = BipartiteGraphSAGE(6, 6, cfg, rng=0)
        embedder = StreamingEmbedder(model, batch_size=64)
        embedder.full_embed(graph)
        inc = IncrementalBipartiteGraph(graph)
        fresh = np.array([[0, 2999], [1, 2998]])
        assert not any(graph.has_edge(u, i) for u, i in fresh)
        inc.add_edges(fresh)
        embedder.refresh(inc)
        inc.add_edges(graph.edges[:1])  # an edge that already exists
        embedder.refresh(inc)
        assert embedder.last_stats.mode == "delta"
        reference = StreamingEmbedder(model, batch_size=64).full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference)


class TestWorkerEquivalence:
    @pytest.fixture(scope="class", autouse=True)
    def _shutdown(self):
        yield
        shutdown_pools()

    @pytest.mark.parametrize("delta_edges", [1, 8])
    def test_refresh_identical_at_any_worker_count(self, delta_edges):
        results = []
        for workers in (1, 3):
            graph, model = _world()
            embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
            embedder.full_embed(graph, workers=workers)
            inc = _mutate(graph, delta_edges)
            embedder.refresh(inc, workers=workers)
            results.append(tuple(a.copy() for a in embedder.embeddings))
        _assert_bitwise_equal(results[0], results[1])

    def test_refresh_workers_vs_serial_full(self):
        graph, model = _world()
        embedder = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        embedder.full_embed(graph)
        inc = _mutate(graph, 3)
        embedder.refresh(inc, workers=3)
        reference = StreamingEmbedder(model, sample_seed=0, batch_size=32)
        reference.full_embed(inc.graph)
        _assert_bitwise_equal(embedder.embeddings, reference.embeddings)
