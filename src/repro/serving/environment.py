"""Simulated online serving environment (the paper's Taobao A/B substrate).

Visitors arrive, receive a top-K recommendation slate, click each shown
item with the world's ground-truth click propensity, and convert clicks
into purchases with the ground-truth conversion propensity.  The four
business metrics of Section IV-C fall out of the event log:

* UV  — unique visitors who clicked at least once,
* CNT — number of transactions,
* CTR — clicks / impressions,
* CVR — transactions / clicks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import GroundTruth
from repro.utils.rng import ensure_rng

__all__ = ["ServingMetrics", "Recommender", "OnlineEnvironment"]


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregated business metrics of one serving day."""

    visitors: int
    impressions: int
    clicks: int
    transactions: int
    unique_click_visitors: int

    @property
    def uv(self) -> int:
        """Unique visitors with >= 1 click (the paper's UV)."""
        return self.unique_click_visitors

    @property
    def cnt(self) -> int:
        """Transaction count (the paper's CNT)."""
        return self.transactions

    @property
    def ctr(self) -> float:
        return self.clicks / self.impressions if self.impressions else 0.0

    @property
    def cvr(self) -> float:
        return self.transactions / self.clicks if self.clicks else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"UV": self.uv, "CNT": self.cnt, "CTR": self.ctr, "CVR": self.cvr}


class Recommender:
    """Interface: produce a top-K slate of item ids for a user."""

    def recommend(self, user: int, k: int) -> np.ndarray:
        raise NotImplementedError


class OnlineEnvironment:
    """Replays one serving day against the ground-truth behaviour model."""

    def __init__(
        self,
        truth: GroundTruth,
        candidate_items: np.ndarray | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.truth = truth
        self.candidate_items = (
            np.asarray(candidate_items)
            if candidate_items is not None
            else np.arange(len(truth.item_leaf))
        )
        self.rng = ensure_rng(rng)

    def run_day(
        self,
        recommender: Recommender,
        visitors: np.ndarray,
        slate_size: int = 10,
    ) -> ServingMetrics:
        """Serve every visitor one slate and simulate the responses.

        Responses are drawn per *slate*, not per impression: one uniform
        vector against the vectorised click oracle, then one uniform
        vector (over the clicked items only) against the purchase
        oracle.  Seeded runs are reproducible, but the RNG stream is two
        ``rng.random(n)`` calls per slate — it intentionally differs
        from a per-impression loop drawing scalars interleaved
        click/purchase per item (the test oracle
        ``tests/serving/environment_oracle.py``).  The two are
        distributionally identical: each impression still consumes an
        independent uniform per Bernoulli decision.
        """
        if slate_size < 1:
            raise ValueError("slate_size must be >= 1")
        impressions = 0
        clicks = 0
        transactions = 0
        clicked_visitors: set[int] = set()
        for user in visitors:
            user = int(user)
            slate = np.asarray(recommender.recommend(user, slate_size), dtype=np.int64)
            if not len(slate):
                continue
            impressions += len(slate)
            clicked = (
                self.rng.random(len(slate))
                < self.truth.click_probabilities(user, slate)
            )
            n_clicked = int(clicked.sum())
            if n_clicked:
                clicks += n_clicked
                clicked_visitors.add(user)
                bought = (
                    self.rng.random(n_clicked)
                    < self.truth.purchase_probabilities(user, slate[clicked])
                )
                transactions += int(bought.sum())
        return ServingMetrics(
            visitors=len(visitors),
            impressions=impressions,
            clicks=clicks,
            transactions=transactions,
            unique_click_visitors=len(clicked_visitors),
        )
