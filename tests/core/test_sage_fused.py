"""The fused SAGE step against the op-at-a-time tape (``sage_oracle``).

``sage_step`` evaluates Eqs. 1–4 as one autograd op with a hand-written
backward.  Its backward repeats, expression for expression, what the
tape evaluates node by node (activation mask, bias sum, the two matmul
pairs, the CONCAT split, the masked mean/sum/max backward, the row
scatter), and its tape node keeps the own-side subtree ahead of the
neighbour subtree, so shared parameters accumulate their per-step
gradients in the tape's order.  No op order differs, so every
configuration — all aggregators and activations, shared space on and
off, isolated vertices, 1–3 steps — is held to bitwise equality, not
to a tolerance.
"""

import itertools

import numpy as np
import pytest

from repro.core.loss import bipartite_graph_loss
from repro.core.sage import BipartiteGraphSAGE, sage_step
from repro.core.trainer import SageTrainer
from repro.graph.bipartite import BipartiteGraph
from repro.graph.sampling import sample_edge_batches
from repro.nn.gradcheck import check_gradient
from repro.nn.layers import Linear, Parameter
from repro.nn.losses import l2_penalty
from repro.nn.tensor import Tensor
from repro.utils.config import SageConfig, TrainConfig
from tests.core.sage_oracle import tape_step, use_tape_recursion

AGGREGATORS = ("mean", "weighted_mean", "sum", "max")
ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "identity")
FANOUTS = (4, 3, 2)
NUM_USERS, NUM_ITEMS = 14, 11
# Users 10..13 and items 8..10 have no edges, so their samples are all
# -1 padding.
ISOLATED_USERS = np.array([11, 3, -1, 13, 3, 10])
ISOLATED_ITEMS = np.array([9, -1, 0, 8, 8])


def _graph(item_dim: int) -> BipartiteGraph:
    rng = np.random.default_rng(11)
    flat = rng.choice(10 * 8, size=36, replace=False)
    edges = np.column_stack([flat // 8, flat % 8])
    return BipartiteGraph(
        NUM_USERS,
        NUM_ITEMS,
        edges,
        rng.integers(1, 6, size=len(edges)).astype(float),
        user_features=rng.normal(size=(NUM_USERS, 5)),
        item_features=rng.normal(size=(NUM_ITEMS, item_dim)),
    )


def _config(aggregator, activation, shared_space, num_steps) -> SageConfig:
    return SageConfig(
        embedding_dim=6,
        num_steps=num_steps,
        neighbor_samples=FANOUTS[:num_steps],
        aggregator=aggregator,
        activation=activation,
        negative_samples_user=2,
        negative_samples_item=3,
        shared_space=shared_space,
    )


def _loss_and_grads(cfg: SageConfig):
    """One J_BG batch (plus isolated-vertex rows): loss, embeddings, grads."""
    graph = _graph(5 if cfg.shared_space else 4)
    module = BipartiteGraphSAGE(5, graph.item_features.shape[1], cfg, rng=3)
    trainer = SageTrainer(module, graph, TrainConfig(batch_size=16), rng=4)
    users, items, weights = next(iter(sample_edge_batches(graph, 16, rng=5)))
    batch = len(users)
    negatives = trainer.negative_sampler
    z = [
        module.embed_users(graph, users),
        module.embed_items(graph, items),
        module.embed_users(
            graph, negatives.sample_users(batch * cfg.negative_samples_user)
        ),
        module.embed_items(
            graph, negatives.sample_items(batch * cfg.negative_samples_item)
        ),
    ]
    loss = bipartite_graph_loss(
        trainer.head,
        z[0],
        z[1],
        weights,
        z[2],
        z[3],
        gamma=cfg.negative_weight,
        q_user_weight=float(cfg.negative_samples_user),
        q_item_weight=float(cfg.negative_samples_item),
    )
    z += [
        module.embed_users(graph, ISOLATED_USERS),
        module.embed_items(graph, ISOLATED_ITEMS),
    ]
    loss = loss + (z[-2] * z[-2]).sum() + z[-1].sum()
    loss = loss + l2_penalty(module.parameters(), cfg.l2)
    loss.backward()
    named = list(module.named_parameters()) + list(trainer.head.named_parameters())
    grads = {name: p.grad for name, p in named}
    return loss.data, [t.data for t in z], grads


def _assert_bitwise(got, want):
    loss, z, grads = got
    want_loss, want_z, want_grads = want
    assert loss.tobytes() == want_loss.tobytes()
    for a, b in zip(z, want_z):
        assert a.tobytes() == b.tobytes()
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert g is not None, name
        assert g.tobytes() == want_grads[name].tobytes(), name


@pytest.mark.parametrize(
    "aggregator,activation,shared_space,num_steps",
    list(itertools.product(AGGREGATORS, ACTIVATIONS, (False, True), (1, 2, 3))),
)
def test_fused_matches_tape(
    monkeypatch, aggregator, activation, shared_space, num_steps
):
    cfg = _config(aggregator, activation, shared_space, num_steps)
    fused = _loss_and_grads(cfg)
    with monkeypatch.context() as patch:
        use_tape_recursion(patch)
        tape = _loss_and_grads(cfg)
    _assert_bitwise(fused, tape)


def _step_inputs(seed: int, requires_grad: bool = True):
    rng = np.random.default_rng(seed)
    own = Tensor(rng.normal(size=(5, 3)), requires_grad=requires_grad)
    other = Tensor(rng.normal(size=(4, 4)), requires_grad=requires_grad)
    # Duplicate rows in one sample set, and a vertex with no neighbours.
    index = np.array([[0, 1, 1], [2, 3, 0], [1, 0, 0], [3, 3, 3], [0, 2, 1]])
    valid = np.array(
        [[1, 1, 1], [1, 0, 1], [0, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=bool
    )
    transform = Linear(4, 6, bias=False, rng=seed + 1)
    weight = Linear(3 + 6, 6, rng=seed + 2)
    weight.bias = Parameter(rng.normal(size=6))
    return own, other, index, valid, transform, weight, rng.normal(size=(5, 6))


@pytest.mark.parametrize(
    "aggregator,activation", list(itertools.product(AGGREGATORS, ACTIVATIONS))
)
def test_sage_step_matches_tape_step(aggregator, activation):
    own, other, index, valid, transform, weight, probe = _step_inputs(0)
    params = [own, other, transform.weight, weight.weight, weight.bias]
    results = []
    for op in (sage_step, tape_step):
        for p in params:
            p.zero_grad()
        out = op(own, other, index, valid, transform, weight, activation, aggregator)
        (out * probe).sum().backward()
        results.append((out.data.copy(), [p.grad.copy() for p in params]))
    (fused, fused_grads), (tape, tape_grads) = results
    assert fused.tobytes() == tape.tobytes()
    for a, b in zip(fused_grads, tape_grads):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "aggregator,activation", list(itertools.product(AGGREGATORS, ACTIVATIONS))
)
def test_sage_step_finite_differences(aggregator, activation):
    own, other, index, valid, transform, weight, probe = _step_inputs(1)
    def loss():
        out = sage_step(
            own, other, index, valid, transform, weight, activation, aggregator
        )
        return (out * probe).sum()

    check_gradient(loss, [own, other, transform.weight, weight.weight, weight.bias])


def test_sage_step_skips_inputs_without_grad():
    own, other, index, valid, transform, weight, probe = _step_inputs(2, False)
    out = sage_step(own, other, index, valid, transform, weight, "relu", "mean")
    (out * probe).sum().backward()
    assert own.grad is None and other.grad is None
    assert transform.weight.grad is not None and weight.bias.grad is not None


def test_tape_holds_one_node_per_step():
    graph = _graph(4)
    module = BipartiteGraphSAGE(5, 4, _config("mean", "leaky_relu", False, 2), rng=0)
    z = module.embed_users(graph, np.array([0, 1, 1]))
    # The top-level row gather, then one fused node per step (own and
    # neighbour subtrees); the step-0 features are constants.
    step2 = z._parents[0]
    own1, other1 = step2._parents[:2]
    assert all(p.requires_grad and p._parents for p in (own1, other1))
    assert not any(q.requires_grad for q in own1._parents[:2])
    assert not any(q.requires_grad for q in other1._parents[:2])


def test_one_epoch_fit_matches_tape(monkeypatch):
    def fit():
        graph = _graph(4)
        cfg = _config("mean", "leaky_relu", False, 2)
        module = BipartiteGraphSAGE(5, 4, cfg, rng=7)
        tcfg = TrainConfig(epochs=1, batch_size=8, learning_rate=1e-2)
        trainer = SageTrainer(module, graph, tcfg, rng=8)
        losses = trainer.fit().epoch_losses
        return losses, module.state_dict(), trainer.head.state_dict()

    fused = fit()
    with monkeypatch.context() as patch:
        use_tape_recursion(patch)
        tape = fit()
    assert fused[0] == tape[0]
    for got, want in zip(fused[1:], tape[1:]):
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
