"""Test-only oracle: the per-point K-means update loops.

``repro.clustering.kmeans`` moves centres a chunk (single-pass) or a
batch (mini-batch) at a time with one vectorised running-mean update.
This module keeps the per-point loops those updates replaced, so the
equivalence tests can compare them: ``_single_pass`` with
``chunk_size=1`` must match :func:`single_pass_loop` bit for bit, and
``_minibatch`` must match :func:`minibatch_loop` to rounding.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import KMeansResult, assign_to_centers, kmeans_plus_plus
from repro.utils.config import KMeansConfig


def minibatch_loop(
    points: np.ndarray,
    n_clusters: int,
    config: KMeansConfig,
    rng: np.random.Generator,
) -> KMeansResult:
    """Mini-batch K-means folding each batch in point by point."""
    centers = kmeans_plus_plus(points, n_clusters, rng)
    counts = np.zeros(n_clusters)
    n_batches = max(1, config.max_iter)
    for _ in range(n_batches):
        batch_idx = rng.integers(len(points), size=min(config.batch_size, len(points)))
        batch = points[batch_idx]
        labels, _ = assign_to_centers(batch, centers)
        for label, point in zip(labels, batch):
            counts[label] += 1.0
            eta = 1.0 / counts[label]
            centers[label] = (1.0 - eta) * centers[label] + eta * point
    labels, inertia = assign_to_centers(points, centers)
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=n_batches)


def single_pass_loop(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> KMeansResult:
    """Single-pass K-means assigning and updating one point at a time."""
    centers = kmeans_plus_plus(points, n_clusters, rng)
    counts = np.ones(n_clusters)  # seeds count as one observation
    order = rng.permutation(len(points))
    for idx in order:
        point = points[idx]
        label = int(sq_dist_to_many(point, centers).argmin())
        counts[label] += 1.0
        centers[label] += (point - centers[label]) / counts[label]
    labels, inertia = assign_to_centers(points, centers)
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=1)


def sq_dist_to_many(point: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = centers - point
    return np.einsum("ij,ij->i", diff, diff)
