"""Serve phase: one client requesting slates from the serving frontend.

Set-up builds a ``ServingFrontend`` over the dense graph of the
workload's world: an untrained SAGE model (dim 16, samples (5, 3))
behind a ``StreamingEmbedder`` (chunk 1024), warmed with a full pass,
ranking a fixed pool of 2,500 candidate items with a popularity
fallback.

One client runs a closed loop: it requests slates of k=10 for
``BATCH`` users at a time, as a page-rendering tier would, waits for
them, and sends the next call.  Users are Zipf-skewed
on ``local-hot`` (most slates are cache hits) and uniform on
``scattered-cold`` (most are scored).  The loop runs in segments
spread over the run (see ``lifecycle.py``); ``serve_requests_per_s``
is the requests completed over the seconds the segments ran.

Why a closed loop: an open loop at a fixed rate idles between
requests, and on a shared host a request after an idle gap runs at
whatever speed the host gives it then.  Its latency percentiles spread
by more than a quarter of their median from run to run, even over
thousands of requests in windows spread across the run: too wide for a
regression bound.  A loop kept busy averages the host's speed over the
phase, as the other phases do.  The traced run reports the latency
percentiles of the client's calls.

The graph takes no writes here: an ingest followed by a delta refresh
can leave the refreshed embeddings different from a full pass (see the
known defect in ``README.md``), so the refresh path is not measured.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Outcome, percentile
from layers import LayerTimes
from repro import obs
from world import CHUNK, USERS, bitwise_equal, model

ROOT = "serve"
K = 10
BATCH = 16  # requests per call
BLOCK = 256 * BATCH  # users drawn, and slates checked, per block

LAYERS = (ROOT, "serving.serve")


class Session:
    """The client's state across the segments of one run."""

    def __init__(self, seed: int) -> None:
        from repro.utils.rng import derive_rng

        self.seed = seed
        # Zipf ranks map through this permutation so hot users span clusters.
        self.hot_users = derive_rng(seed, 6).permutation(USERS)
        self.segments = 0
        self.requests = 0
        self.bad_slates = 0
        self.loop_s = 0.0
        self.latency_s: list[np.ndarray] = []
        self.hits = self.lookups = 0


def _users(zipf_a: float | None, session: Session, rng) -> np.ndarray:
    """The next ``BLOCK`` requested users."""
    if zipf_a is None:
        return rng.integers(0, USERS, BLOCK)
    return session.hot_users[(rng.zipf(zipf_a, size=BLOCK) - 1) % USERS]


def _bad_rows(block: np.ndarray, candidates: np.ndarray) -> int:
    """Rows of ``block`` that are not k distinct candidate ids."""
    distinct = (np.diff(np.sort(block, axis=1), axis=1) != 0).all(axis=1)
    valid = np.isin(block, candidates).all(axis=1)
    return int(np.count_nonzero(~(distinct & valid)))


def run(state, seconds: float, outcome: Outcome) -> float:
    """One segment of the closed loop; returns the seconds it ran."""
    from repro.utils.rng import derive_rng

    frontend = state.frontend
    session = state.serve_session
    rng = derive_rng(session.seed, 4, session.segments)
    session.segments += 1
    hits, misses = frontend.cache.hits, frontend.cache.misses
    block = np.empty((BLOCK, K), dtype=np.int64)
    served = 0
    with obs.span(ROOT):
        start = done = time.perf_counter()
        deadline = start + seconds
        while done < deadline:
            users = _users(state.workload.zipf_a, session, rng)
            took = []
            filled = 0
            while filled < BLOCK and done < deadline:
                t0 = time.perf_counter()
                slates = frontend.serve(users[filled : filled + BATCH], K)
                done = time.perf_counter()
                took.append(done - t0)
                for slate in slates:
                    # A short slate becomes a row the check below rejects.
                    block[filled] = slate if len(slate) == K else -1
                    filled += 1
            session.bad_slates += _bad_rows(block[:filled], state.candidates)
            session.latency_s.append(np.asarray(took))
            served += filled
    session.requests += served
    session.loop_s += done - start
    session.hits += frontend.cache.hits - hits
    session.lookups += frontend.cache.hits + frontend.cache.misses - hits - misses
    outcome.ops(served)
    return done - start


def report(state, outcome: Outcome) -> None:
    """Metrics and checks over every segment of the run."""
    session = state.serve_session
    outcome.metric(
        "serve_requests_per_s",
        session.requests / session.loop_s,
        "1/s",
        session.requests,
    )
    _check(state, outcome)
    outcome.properties.update(
        {
            "requests": session.requests,
            "cache_hit_ratio": round(_hit_ratio(session), 4),
        }
    )


def _hit_ratio(session: Session) -> float:
    return session.hits / session.lookups if session.lookups else 0.0


def _check(state, outcome: Outcome) -> None:
    """Slates hold k distinct candidates; served embeddings are exact."""
    from repro.streaming import StreamingEmbedder

    session = state.serve_session
    outcome.check(
        session.bad_slates == 0,
        f"{session.bad_slates} of {session.requests} slates are not "
        f"{K} distinct candidates",
    )
    fresh = StreamingEmbedder(
        model(state.seed), sample_seed=state.seed, batch_size=CHUNK
    ).full_embed(state.frontend.graph.graph, workers=1)
    outcome.check(
        bitwise_equal(state.embedder.embeddings, fresh),
        "served embeddings differ from a fresh full_embed",
    )


def layer_metrics(times: LayerTimes, registry, state) -> dict:
    """Serving numbers over every segment of the closed loop."""
    from layers import histogram_percentile

    session = state.serve_session
    latency_ms = np.concatenate(session.latency_s) * 1e3
    return {
        "serving.serve_s": (times.total(ROOT, "serving.serve"), "s"),
        "serving.batch_ms": (
            histogram_percentile(registry, "serving.batch_ms", 50) or 0.0,
            "ms",
        ),
        "serving.cache_hit_ratio": (_hit_ratio(session), "frac"),
        "serving.call_p50_ms": (percentile(latency_ms, 50), "ms"),
        "serving.call_p99_ms": (percentile(latency_ms, 99), "ms"),
    }
