"""Test-only oracle: the per-impression serving-day loop.

``OnlineEnvironment.run_day`` draws responses per slate: one uniform
vector against the vectorised click oracle, then one over the clicked
items against the purchase oracle.  This module keeps the loop it
replaced, which draws one scalar uniform per impression and, on click,
one more for the purchase.  The two streams differ, so single runs
differ, but the metrics agree in distribution.
"""

from __future__ import annotations

import numpy as np

from repro.serving.environment import OnlineEnvironment, Recommender, ServingMetrics


def run_day_loop(
    env: OnlineEnvironment,
    recommender: Recommender,
    visitors: np.ndarray,
    slate_size: int = 10,
) -> ServingMetrics:
    """Serve every visitor one slate, drawing responses per impression."""
    if slate_size < 1:
        raise ValueError("slate_size must be >= 1")
    impressions = 0
    clicks = 0
    transactions = 0
    clicked_visitors: set[int] = set()
    for user in visitors:
        user = int(user)
        slate = recommender.recommend(user, slate_size)
        for item in slate:
            item = int(item)
            impressions += 1
            if env.rng.random() < env.truth.click_probability(user, item):
                clicks += 1
                clicked_visitors.add(user)
                if env.rng.random() < env.truth.purchase_probability(user, item):
                    transactions += 1
    return ServingMetrics(
        visitors=len(visitors),
        impressions=impressions,
        clicks=clicks,
        transactions=transactions,
        unique_click_visitors=len(clicked_visitors),
    )
