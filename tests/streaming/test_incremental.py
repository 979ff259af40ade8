"""Incremental graph append log: O(delta) appends, folding, dirty frontier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.streaming import IncrementalBipartiteGraph


def _base(num_users=30, num_items=20, num_edges=90, feature_dim=4, rng=0):
    return random_bipartite(
        num_users, num_items, num_edges, feature_dim=feature_dim, rng=rng
    )


def _edge_weight_map(graph: BipartiteGraph) -> dict[tuple[int, int], float]:
    return {
        (int(u), int(i)): float(w)
        for (u, i), w in zip(graph.edges, graph.edge_weights)
    }


class TestAppendSemantics:
    def test_appends_stay_in_overlay(self):
        # Appends are staged beside the built graph; no CSR is rebuilt
        # until .graph is read, and then only once.
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        inc.add_edges(np.array([[0, 0], [1, 5]]))
        assert inc._graph is base
        graph = inc.graph
        assert graph is not base
        assert inc.graph is graph

    def test_overlay_neighbor_queries(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        user, item = 3, 7
        inc.add_edges(np.array([[user, item]]))
        graph = inc.graph
        assert item in graph.item_neighbors(user)
        assert user in graph.user_neighbors(item)
        assert graph.user_degree(user) == base.user_degree(user) + 1
        assert graph.item_degree(item) == base.item_degree(item) + 1

    def test_materialised_graph_merges_duplicates_by_weight_sum(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        user, item = int(base.edges[0, 0]), int(base.edges[0, 1])
        existing = _edge_weight_map(base)[(user, item)]
        inc.add_edges(np.array([[user, item]]), np.array([2.5]))
        merged = _edge_weight_map(inc.graph)
        assert merged[(user, item)] == pytest.approx(existing + 2.5)

    def test_materialised_graph_equals_from_scratch_build(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        new_edges = np.array([[2, 4], [9, 11], [2, 4]])
        inc.add_edges(new_edges)
        expected = BipartiteGraph(
            base.num_users,
            base.num_items,
            np.concatenate([base.edges, new_edges]),
            np.concatenate([base.edge_weights, np.ones(3)]),
            base.user_features,
            base.item_features,
        )
        got = inc.graph
        assert np.array_equal(got.edges, expected.edges)
        assert np.array_equal(got.edge_weights, expected.edge_weights)

    def test_empty_append_is_a_noop(self):
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.empty((0, 2), dtype=np.int64))
        assert len(inc.dirty_users) == 0

    def test_rejects_out_of_range_and_bad_weights(self):
        inc = IncrementalBipartiteGraph(_base())
        with pytest.raises(ValueError, match="user index"):
            inc.add_edges(np.array([[999, 0]]))
        with pytest.raises(ValueError, match="item index"):
            inc.add_edges(np.array([[0, 999]]))
        with pytest.raises(ValueError, match="positive"):
            inc.add_edges(np.array([[0, 0]]), np.array([0.0]))
        with pytest.raises(ValueError, match="align"):
            inc.add_edges(np.array([[0, 0]]), np.array([1.0, 2.0]))


class TestVertexAppends:
    def test_add_users_returns_fresh_contiguous_ids(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        rng = np.random.default_rng(0)
        ids = inc.add_users(2, features=rng.normal(size=(2, 4)))
        assert list(ids) == [base.num_users, base.num_users + 1]
        assert inc.num_users == base.num_users + 2
        more = inc.add_users(1, features=rng.normal(size=(1, 4)))
        assert list(more) == [base.num_users + 2]

    def test_new_vertex_can_receive_edges(self):
        inc = IncrementalBipartiteGraph(_base())
        rng = np.random.default_rng(0)
        (user,) = inc.add_users(1, features=rng.normal(size=(1, 4)))
        (item,) = inc.add_items(1, features=rng.normal(size=(1, 4)))
        inc.add_edges(np.array([[user, item]]))
        graph = inc.graph
        assert item in graph.item_neighbors(user)
        assert graph.num_users == inc.num_users
        assert graph.user_features.shape == (inc.num_users, 4)

    def test_features_required_iff_base_has_them(self):
        inc = IncrementalBipartiteGraph(_base())
        with pytest.raises(ValueError, match="feature"):
            inc.add_users(1)
        with pytest.raises(ValueError, match="dim"):
            inc.add_users(1, features=np.zeros((1, 99)))
        featureless = BipartiteGraph(10, 8, np.array([[0, 0], [1, 2]]))
        bare = IncrementalBipartiteGraph(featureless)
        bare.add_users(1)  # no features needed
        with pytest.raises(ValueError, match="no user features"):
            bare.add_users(1, features=np.zeros((1, 4)))


class TestDirtyFrontier:
    def test_edge_endpoints_marked_dirty(self):
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.array([[5, 3], [7, 3]]))
        assert list(inc.dirty_users) == [5, 7]
        assert list(inc.dirty_items) == [3]

    def test_new_vertices_marked_dirty(self):
        inc = IncrementalBipartiteGraph(_base())
        rng = np.random.default_rng(0)
        ids = inc.add_users(2, features=rng.normal(size=(2, 4)))
        assert set(ids) <= set(int(u) for u in inc.dirty_users)

    def test_clear_dirty(self):
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.array([[0, 0]]))
        inc.clear_dirty()
        assert len(inc.dirty_users) == 0
        assert len(inc.dirty_items) == 0

    def test_dirty_survives_compaction(self):
        inc = IncrementalBipartiteGraph(_base())
        inc.add_edges(np.array([[5, 3]]))
        inc.graph  # reading .graph folds the staged edge
        assert list(inc.dirty_users) == [5]
        assert list(inc.dirty_items) == [3]


class TestCompaction:
    """Reading ``.graph`` compacts the log into one new graph."""

    def test_round_trip_preserves_graph(self):
        # Folding after every delta equals one build of the whole
        # history: duplicates across folds merge in first-occurrence
        # order with weights summed left to right.
        base = _base()
        rng = np.random.default_rng(1)
        deltas = [
            np.array([[2, 4], [9, 11]]),
            np.concatenate([base.edges[:3], [[2, 4]]]),
            np.array([[9, 11], [0, 0]]),
        ]
        weights = [rng.random(len(d)) + 0.5 for d in deltas]
        features = rng.normal(size=(1, 4))
        folded = IncrementalBipartiteGraph(base)
        folded.add_users(1, features=features)
        for edges, w in zip(deltas, weights):
            folded.add_edges(edges, w)
            folded.graph
        once = BipartiteGraph(
            base.num_users + 1,
            base.num_items,
            np.concatenate([base.edges, *deltas]),
            np.concatenate([base.edge_weights, *weights]),
            np.concatenate([base.user_features, features]),
            base.item_features,
        )
        got = folded.graph
        assert np.array_equal(got.edges, once.edges)
        assert np.array_equal(got.edge_weights, once.edge_weights)
        assert np.array_equal(got.user_features, once.user_features)
        assert np.array_equal(got.item_features, once.item_features)

    def test_compact_on_clean_graph_is_a_noop(self):
        base = _base()
        inc = IncrementalBipartiteGraph(base)
        assert inc.graph is base
        inc.add_edges(np.empty((0, 2), dtype=np.int64))
        assert inc.graph is base
