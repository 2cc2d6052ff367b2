"""Stochastic graph augmentation: feature masking and edge dropping.

Each training step draws a fresh weak view and strong view, distinguished
only by their masking/dropping probabilities (the `weak_*` and `strong_*`
fields of `TrainConfig`). Dropping acts on the raw adjacency, masking one
cached A + I (`sparse.drop_and_normalize`), and normalization follows, so
degrees reflect the thinned graph (an isolated node keeps its self-loop).
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseAdjacency, drop_and_normalize, normalize_adjacency
from .sparse_features import SparseFeatures


def mask_features(x: np.ndarray | SparseFeatures, p: float, rng: np.random.Generator):
    """Zero each feature dimension (column) with probability p, for every node
    at once: one draw per column, so dense and sparse inputs agree."""
    if p == 0.0:
        return x
    keep = (rng.random(x.shape[1]) >= p).astype(np.float64)
    if isinstance(x, SparseFeatures):
        return x.scale_columns(keep)
    return x * keep[None, :]


def drop_edges(adj: SparseAdjacency, p: float, rng: np.random.Generator) -> SparseAdjacency:
    """Renormalized adjacency after dropping each undirected edge with
    probability p; both CSR directions go together. p = 0 draws nothing."""
    if p == 0.0:
        return normalize_adjacency(adj)
    return drop_and_normalize(adj, p, rng)


def augment_view(
    adj: SparseAdjacency,
    x: np.ndarray | SparseFeatures,
    p_feature_mask: float,
    p_edge_drop: float,
    rng: np.random.Generator,
) -> tuple[SparseAdjacency, np.ndarray | SparseFeatures]:
    """One stochastic view of the raw adjacency and the prepared features
    (`GraphDataset.prepared_features`): masked features plus the renormalized
    adjacency of the edge-dropped graph. The mask is drawn before the edge drop.
    """
    x_view = mask_features(x, p_feature_mask, rng)
    return drop_edges(adj, p_edge_drop, rng), x_view
