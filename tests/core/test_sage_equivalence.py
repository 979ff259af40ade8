"""Numerical equivalence of the hot-path rewrites in BipartiteGraphSAGE.

The dedup-frontier recursion and the layer-wise ``embed_all`` engine
must compute exactly what the training recursion (``embed_users`` /
``embed_items``, dedup or the naive oracle in ``sage_oracle``) computes
whenever neighbour sampling is a pure function of the vertex.  These
tests install such a deterministic sampler (first neighbours, cycled to
the fan-out) and assert the rewrites agree with the recursion.
"""

from functools import partial

import numpy as np
import pytest

from repro.core import sage
from repro.core.sage import BipartiteGraphSAGE
from repro.graph.generators import random_bipartite
from repro.graph.sampling import NeighborSampler
from repro.streaming import StreamingEmbedder
from repro.utils.config import SageConfig
from tests.core.sage_oracle import embed_naive, use_naive_recursion


class DeterministicSampler:
    """Sample the first ``fanout`` neighbours, cycled — a pure function.

    Mimics the ``NeighborSampler`` interface; carries the module's
    ``_sample_rng`` so the per-graph sampler cache accepts it.
    """

    def __init__(self, graph, rng=None):
        self.graph = graph
        self.rng = rng

    def _take(self, csr, ids, fanout):
        out = np.full((len(ids), fanout), -1, dtype=np.int64)
        for row, vertex in enumerate(np.asarray(ids)):
            neigh = csr.indices[csr.indptr[vertex] : csr.indptr[vertex + 1]]
            if len(neigh):
                out[row] = neigh[np.arange(fanout) % len(neigh)]
        return out

    def sample_items_for_users(self, users, fanout):
        return self._take(self.graph._user_csr, users, fanout)

    def sample_users_for_items(self, items, fanout):
        return self._take(self.graph._item_csr, items, fanout)


@pytest.fixture()
def deterministic_sampling(monkeypatch):
    """Route every sampler the module builds — the training recursion's
    and the layer-wise engine's — through :class:`DeterministicSampler`."""
    monkeypatch.setattr(sage, "NeighborSampler", DeterministicSampler)


@pytest.fixture()
def graph():
    return random_bipartite(30, 25, 120, feature_dim=6, rng=0)


def _module(graph, deterministic=True, **overrides):
    cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3), **overrides)
    mod = BipartiteGraphSAGE(
        graph.user_features.shape[1], graph.item_features.shape[1], cfg, rng=0
    )
    if deterministic:
        mod._sampler_cache = (graph, DeterministicSampler(graph, mod._sample_rng))
    return mod


IDS_WITH_DUPES = np.array([0, 3, 3, -1, 7, 0, 12, -1, 3])


class TestDedupEquivalence:
    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max", "weighted_mean"])
    def test_dedup_matches_naive(self, graph, aggregator):
        mod = _module(graph, aggregator=aggregator)
        for side in ("user", "item"):
            a = mod._embed(graph, IDS_WITH_DUPES, 2, side)
            b = embed_naive(mod, graph, IDS_WITH_DUPES, 2, side)
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_dedup_matches_naive_shared_space(self, graph):
        mod = _module(graph, shared_space=True)
        a = mod._embed(graph, IDS_WITH_DUPES, 2, "user")
        b = embed_naive(mod, graph, IDS_WITH_DUPES, 2, "user")
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_invalid_ids_produce_zero_rows(self, graph):
        mod = _module(graph)
        z = mod._embed(graph, np.array([-1, 2, -1]), 2, "user")
        assert np.allclose(z.data[[0, 2]], 0.0)
        assert not np.allclose(z.data[1], 0.0)

    def test_gradients_match_naive(self, graph):
        mod = _module(graph)
        ids = np.array([0, 3, 3, 7, 0])
        grads = {}
        for dedup, embed in ((True, mod._embed), (False, partial(embed_naive, mod))):
            mod.zero_grad()
            z = embed(graph, ids, 2, "user")
            (z * z).sum().backward()
            grads[dedup] = {
                name: None if p.grad is None else p.grad.copy()
                for name, p in mod.named_parameters()
            }
        assert grads[True].keys() == grads[False].keys()
        touched = 0
        for name, g_dedup in grads[True].items():
            g_naive = grads[False][name]
            if g_dedup is None and g_naive is None:
                continue
            touched += 1
            np.testing.assert_allclose(g_dedup, g_naive, atol=1e-10, err_msg=name)
        assert touched >= 4  # duplicated ids accumulate identically


def _recursive_all(mod, graph):
    """Every vertex through the training recursion (embed_users/items)."""
    users = mod.embed_users(graph, np.arange(graph.num_users)).data
    items = mod.embed_items(graph, np.arange(graph.num_items)).data
    return users, items


class TestLayerwiseEquivalence:
    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    def test_layerwise_matches_recursive(
        self, graph, aggregator, deterministic_sampling
    ):
        mod = _module(graph, deterministic=False, aggregator=aggregator)
        zu_layer, zi_layer = mod.embed_all(graph, batch_size=7)
        zu_rec, zi_rec = _recursive_all(mod, graph)
        np.testing.assert_allclose(zu_layer, zu_rec, atol=1e-12)
        np.testing.assert_allclose(zi_layer, zi_rec, atol=1e-12)

    def test_layerwise_matches_naive_recursive(
        self, graph, deterministic_sampling, monkeypatch
    ):
        mod = _module(graph, deterministic=False)
        zu_layer, zi_layer = mod.embed_all(graph)
        use_naive_recursion(monkeypatch)
        zu_naive, zi_naive = _recursive_all(mod, graph)
        np.testing.assert_allclose(zu_layer, zu_naive, atol=1e-12)
        np.testing.assert_allclose(zi_layer, zi_naive, atol=1e-12)

    def test_layerwise_default_is_finite_and_shaped(self, graph):
        mod = _module(graph, deterministic=False)  # real sampler
        zu, zi = mod.embed_all(graph, batch_size=11)
        assert zu.shape == (graph.num_users, 8)
        assert zi.shape == (graph.num_items, 8)
        assert np.all(np.isfinite(zu)) and np.all(np.isfinite(zi))

    def test_unknown_mode_rejected(self, graph):
        mod = _module(graph)
        for mode in ("bogus", "recursive", "streaming"):
            with pytest.raises(ValueError, match="layerwise"):
                mod.embed_all(graph, mode=mode)

    def test_repeat_calls_are_bitwise_equal(self, graph):
        mod = _module(graph, deterministic=False)
        first = mod.embed_all(graph, batch_size=7)
        second = mod.embed_all(graph, batch_size=7)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_training_does_not_move_inference_sampling(self, graph):
        # Inference draws from the per-chunk stream rooted at the fixed
        # sample_seed, so consuming the training stream changes nothing.
        mod = _module(graph, deterministic=False)
        before = mod.embed_all(graph)
        mod.embed_users(graph, np.arange(5))
        after = mod.embed_all(graph)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_streaming_matches_embed_all(self, graph):
        mod = _module(graph, deterministic=False)
        zu, zi = mod.embed_all(graph)
        su, si = StreamingEmbedder(mod).full_embed(graph)
        assert np.array_equal(zu, su) and np.array_equal(zi, si)

    def test_models_with_different_seeds_sample_differently(self, graph):
        cfg = SageConfig(embedding_dim=8, neighbor_samples=(4, 3))
        a = BipartiteGraphSAGE(6, 6, cfg, rng=0)
        b = BipartiteGraphSAGE(6, 6, cfg, rng=1)
        assert a.sample_seed != b.sample_seed
        b.load_state_dict(a.state_dict())
        assert not np.array_equal(a.embed_all(graph)[0], b.embed_all(graph)[0])


class TestSamplerCache:
    def test_sampler_reused_per_graph(self, graph):
        mod = _module(graph, deterministic=False)
        assert mod._sampler(graph) is mod._sampler(graph)

    def test_sampler_rebuilt_for_new_graph(self, graph):
        mod = _module(graph, deterministic=False)
        first = mod._sampler(graph)
        other = random_bipartite(10, 8, 30, feature_dim=6, rng=1)
        assert mod._sampler(other) is not first

    def test_sampler_rebuilt_when_rng_swapped(self, graph):
        mod = _module(graph, deterministic=False)
        first = mod._sampler(graph)
        mod._sample_rng = np.random.default_rng(123)
        rebuilt = mod._sampler(graph)
        assert rebuilt is not first
        assert isinstance(rebuilt, NeighborSampler)
