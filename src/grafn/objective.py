"""Training losses: node-wise consistency, soft-nearest-neighbor class
assignment, confidence-filtered label-guided consistency, supervised
cross-entropy, and their weighted combination.

The prediction distribution comes from the strongly augmented view, the
target distribution from the weakly augmented one, each comparing a view's
anchors with that same view's supports. `label_consistency_loss`
rejects a target that is not tape-detached, so gradients only flow through
the prediction branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitSpec
from .errors import NumericsError
from .tape import Tape, Tensor


@dataclass
class SupportSet:
    """b labeled nodes per class, resampled each step; b is the labeled
    count of the scarcest class."""

    indices: np.ndarray   # (b*C,) node ids, class-major order
    y_support: np.ndarray  # (b*C, C) one-hot rows


def sample_support(split: SplitSpec, label_ids: np.ndarray, num_classes: int,
                   rng: np.random.Generator) -> SupportSet:
    labeled_by_class = [
        split.labeled[label_ids[split.labeled] == k] for k in range(num_classes)
    ]
    b = min(len(v) for v in labeled_by_class)
    picks = [rng.choice(members, size=b, replace=False) for members in labeled_by_class]
    indices = np.concatenate(picks)
    y_support = np.zeros((b * num_classes, num_classes))
    y_support[np.arange(b * num_classes), np.repeat(np.arange(num_classes), b)] = 1.0
    return SupportSet(indices=indices, y_support=y_support)


def node_consistency_loss(tape: Tape, u: Tensor, u_prime: Tensor) -> Tensor:
    """Negative mean per-node cosine similarity between the two views, as the
    row dot of their normalized embeddings; gradients flow into both.

    Every row of `u` and `u_prime` is a unit row or a zero row
    (`tape.normalize_rows` of a view). A zero row (a node isolated by edge
    dropping whose features were fully masked) contributes similarity 0.
    """
    return tape.scale(tape.mean(tape.row_dot(u, u_prime)), -1.0)


def snn_distribution(tape: Tape, u: Tensor, support: SupportSet, tau: float) -> Tensor:
    """Soft-nearest-neighbor class distribution per node of a view.

    Every row of `u` is a unit row or a zero row (`tape.normalize_rows` of
    the view's embedding) and is an anchor; the supports are the rows
    `support.indices` of the same `u`. Softmax over supports of
    cosine(anchor, support)/tau, folded with the support one-hot labels;
    each output row is a distribution over classes.
    """
    sims = tape.matmul(u, tape.transpose(tape.gather_rows(u, support.indices)))
    weights = tape.softmax_rows(tape.scale(sims, 1.0 / tau))
    return tape.matmul(weights, support.y_support)


def confident_set(p_target: np.ndarray, nu: float, unlabeled: np.ndarray) -> np.ndarray:
    """Unlabeled nodes whose target row-max strictly exceeds nu."""
    row_max = p_target[unlabeled].max(axis=1)
    return unlabeled[row_max > nu]


def label_consistency_loss(
    tape: Tape,
    p_pred: Tensor,
    p_target: Tensor,
    labels: np.ndarray,
    labeled: np.ndarray,
    v_conf: np.ndarray,
) -> Tensor:
    """Mean H(target, prediction) over the confident unlabeled nodes plus
    mean H(one-hot, prediction) over the labeled nodes.

    The target must already be detached; labeled nodes always use their
    one-hot label rows as targets, never the SNN row.
    """
    if p_target.requires_grad:
        raise NumericsError("label consistency target must be tape-detached")
    labeled_term = tape.cross_entropy_rows(
        labels[labeled], tape.gather_rows(p_pred, labeled)
    )
    if len(v_conf) == 0:
        return labeled_term
    conf_term = tape.cross_entropy_rows(
        Tensor(p_target.data[v_conf]), tape.gather_rows(p_pred, v_conf)
    )
    return tape.add(conf_term, labeled_term)


def supervised_loss(tape: Tape, logits: Tensor, labels: np.ndarray,
                    labeled: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the labeled nodes."""
    return tape.softmax_cross_entropy(tape.gather_rows(logits, labeled), labels[labeled])


def total_loss(tape: Tape, l_nc: Tensor, l_lc: Tensor, l_sup: Tensor,
               lambda1: float, lambda2: float) -> Tensor:
    """lambda1 * L_NC + lambda2 * L_LC + L_sup."""
    return tape.add(
        tape.add(tape.scale(l_nc, lambda1), tape.scale(l_lc, lambda2)), l_sup
    )
