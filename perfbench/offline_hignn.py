"""Offline phase: the paper's offline pipeline as one batch job.

One pass runs, in order, on ``mini-taobao1`` at size ``small`` with one
worker:

1. Algorithm 1 with the ``repro table3`` config (3 levels, 4 epochs,
   batch 512, lr 3e-3);
2. the HiGNN CVR head, then its test AUC;
3. ``cvr_score_table`` over the new-item candidates;
4. a 2-day ``run_ab_test`` against popularity, as in ``repro ab``.

Seeds are derived exactly as ``run_table3`` derives them, so the AUC of
a pass equals the ``hignn`` column of ``repro table3 --size small``
for the same seed.  Passes repeat while another fits in the phase's
share of ``--seconds`` (at least one); ``offline_s`` is their median.

SAGE training is about two thirds of a pass and the CVR head about a
quarter, so a training-step optimisation shows here and nowhere else.
"""

from __future__ import annotations

import math

import numpy as np

from harness import Outcome, median, repeat_for
from layers import LayerTimes
from repro import obs

ROOT = "offline"

# Every span name the traced pass attributes time to.
LAYERS = (
    ROOT,
    "core.train",
    "core.embed_all",
    "clustering.kmeans",
    "graph.coarsen",
    "graph.sampling",
    "nn.backward",
    "nn.optim",
    "prediction.features",
    "prediction.cvr_train",
    "prediction.eval",
    "serving.score_table",
    "serving.ab",
)


def _pass(dataset, seed: int, outcome: Outcome) -> dict:
    """One pipeline pass; returns what the checks and properties need."""
    from repro.core.hignn import HiGNN
    from repro.data.sampling import replicate_to_ratio
    from repro.metrics.auc import auc
    from repro.prediction import FeatureAssembler, train_cvr_model
    from repro.prediction.experiment import method_representations
    from repro.serving import (
        PopularityRecommender,
        ScoreTableRecommender,
        cvr_score_table,
        run_ab_test,
    )
    from repro.utils.config import HiGNNConfig, TrainConfig
    from repro.utils.rng import derive_rng, ensure_rng

    config = HiGNNConfig(
        levels=3, train=TrainConfig(epochs=4, batch_size=512, learning_rate=3e-3)
    )
    rng = ensure_rng(seed)
    hierarchy = HiGNN(config, seed=derive_rng(rng, 1)).fit(dataset.graph)
    head_rng = ensure_rng(derive_rng(rng, 2))
    with obs.span("prediction.features"):
        user_repr, item_repr, pairs = method_representations(hierarchy, "hignn")
        assembler = FeatureAssembler.for_dataset(
            dataset, user_repr, item_repr, interactions=pairs
        )
        train = replicate_to_ratio(
            dataset.train, negatives_per_positive=3.0, rng=derive_rng(head_rng, 1)
        )
        x_train, y_train = assembler.assemble_samples(train)
    with obs.span("prediction.cvr_train"):
        model, _ = train_cvr_model(x_train, y_train, rng=derive_rng(head_rng, 2))
    with obs.span("prediction.eval"):
        x_test, y_test = assembler.assemble_samples(dataset.test)
        test_auc = auc(y_test, model.predict_proba(x_test))
    candidates = np.flatnonzero(dataset.ground_truth.new_items)
    with obs.span("serving.score_table"):
        table = cvr_score_table(
            model, assembler, dataset.num_users, candidates, workers=1
        )
    clicks = np.bincount(
        dataset.log.items,
        weights=dataset.log.clicks.astype(float),
        minlength=dataset.num_items,
    )
    with obs.span("serving.ab"):
        report = run_ab_test(
            dataset.ground_truth,
            PopularityRecommender(clicks, candidates),
            ScoreTableRecommender(table, candidates),
            num_days=2,
            visitors_per_day=2000,
            slate_size=10,
            candidate_items=candidates,
            rng=seed,
        )
    ctr_lift = report.mean_lift("CTR")
    outcome.check(
        math.isfinite(test_auc) and test_auc > 0.5, f"auc {test_auc!r} not above 0.5"
    )
    outcome.check(ctr_lift > 0, f"A/B CTR lift {ctr_lift!r} not positive")
    return {
        "auc": test_auc,
        "ctr_lift": ctr_lift,
        "train_samples": len(train.labels),
        "test_samples": len(y_test),
    }


def run(state, seconds: float, outcome: Outcome) -> float:
    """Pipeline passes for ``seconds`` (at least one); returns their total time."""
    dataset = state.dataset
    results: list[dict] = []

    def one_pass() -> None:
        with obs.span(ROOT):
            results.append(_pass(dataset, state.seed, outcome))
        outcome.ops(1)

    times = repeat_for(seconds, one_pass)
    result = results[-1]
    outcome.metric("offline_s", median(times), "s", len(times))
    outcome.metric("auc", result["auc"], "1", result["test_samples"])
    outcome.properties.update(
        {
            "offline_users": dataset.num_users,
            "offline_items": dataset.num_items,
            "offline_edges": dataset.graph.num_edges,
            "offline_train_samples": result["train_samples"],
            "offline_test_samples": result["test_samples"],
            "offline_ab_ctr_lift": round(result["ctr_lift"], 4),
        }
    )
    return sum(times)


def layer_metrics(times: LayerTimes, registry, state) -> dict:
    """Per-layer numbers of the traced pass, per pipeline pass."""
    passes = max(times.calls(None, ROOT), 1)
    root_s = times.total(None, ROOT)

    def per_pass(parent, name):
        return times.total(parent, name) / passes

    train_s = per_pass(ROOT, "core.train")
    edges = registry.counter("train.edges_seen") / passes
    return {
        "core.train_s": (train_s, "s"),
        "core.train_edges_per_s": (edges / train_s if train_s else 0.0, "1/s"),
        "core.train.sample_s": (per_pass("core.train", "graph.sampling"), "s"),
        "core.train.backward_s": (per_pass("core.train", "nn.backward"), "s"),
        "core.train.optim_s": (per_pass("core.train", "nn.optim"), "s"),
        "core.train.forward_s": (times.self_time(ROOT, "core.train") / passes, "s"),
        "core.embed_all_s": (per_pass(ROOT, "core.embed_all"), "s"),
        "clustering.kmeans_s": (per_pass(ROOT, "clustering.kmeans"), "s"),
        "graph.coarsen_s": (per_pass(ROOT, "graph.coarsen"), "s"),
        "prediction.features_s": (per_pass(ROOT, "prediction.features"), "s"),
        "prediction.cvr_train_s": (per_pass(ROOT, "prediction.cvr_train"), "s"),
        "prediction.cvr_train.backward_s": (
            per_pass("prediction.cvr_train", "nn.backward"),
            "s",
        ),
        "prediction.cvr_train.self_s": (
            times.self_time(ROOT, "prediction.cvr_train") / passes,
            "s",
        ),
        "prediction.eval_s": (per_pass(ROOT, "prediction.eval"), "s"),
        "serving.score_table_s": (per_pass(ROOT, "serving.score_table"), "s"),
        "serving.ab_s": (per_pass(ROOT, "serving.ab"), "s"),
        "offline.dark_frac": (
            times.self_time(None, ROOT) / root_s if root_s else 0.0,
            "frac",
        ),
    }
