"""Synthetic planted-partition graphs with class-correlated sparse features.

Used by the gradient-check command and by tests that need a citation-like
dataset without shipping one: communities map to classes, within-class edges
are denser than across, and each class activates a preferred block of
feature dimensions.
"""

from __future__ import annotations

import numpy as np

from .data import GraphDataset
from .errors import DataError
from .sparse import SparseAdjacency


def random_dataset(
    n: int,
    num_classes: int = 3,
    num_features: int = 12,
    p_in: float = 0.15,
    p_out: float = 0.02,
    feature_signal: float = 0.3,
    feature_noise: float = 0.05,
    seed: int = 0,
    name: str = "synthetic",
) -> GraphDataset:
    """Planted-partition graph; features are sparse binary with a per-class
    preferred dimension block activated at `feature_signal` and the rest at
    `feature_noise`."""
    if n < max(num_classes, 2):  # a lone node could attach only to itself
        raise DataError(f"need at least {max(num_classes, 2)} nodes, got n={n}")
    rng = np.random.default_rng(seed)
    classes = np.arange(n) % num_classes
    rng.shuffle(classes)

    # one draw per pair i < j, in row-major order
    src, dst = np.triu_indices(n, 1)
    p = np.where(classes[src] == classes[dst], p_in, p_out)
    hit = rng.random(len(src)) < p
    src, dst = src[hit], dst[hit]
    edges = list(zip(src.tolist(), dst.tolist()))
    # keep every node attached so degrees stay positive
    attached = np.zeros(n, dtype=bool)
    attached[src] = attached[dst] = True
    for i in np.flatnonzero(~attached):
        peers = np.flatnonzero(classes == classes[i])
        peers = peers[peers != i]
        j = int(rng.choice(peers)) if len(peers) else (i + 1) % n
        edges.append((min(i, j), max(i, j)))

    block = max(1, num_features // num_classes)
    probs = np.full((n, num_features), feature_noise)
    for i in range(n):
        lo = classes[i] * block
        probs[i, lo:min(lo + block, num_features)] = feature_signal
    features = (rng.random((n, num_features)) < probs).astype(np.float64)
    empty = np.flatnonzero(features.sum(axis=1) == 0)
    features[empty, (classes[empty] * block) % num_features] = 1.0

    return GraphDataset(
        adj=SparseAdjacency.from_edges(n, edges),
        features=features,
        labels=classes,
        class_count=num_classes,
        name=name,
    )
