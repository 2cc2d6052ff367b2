"""Full-batch training loop with Adam and best-validation model selection.

One optimization step per epoch: both datasets of interest fit in memory,
so "epoch" and "step" coincide. Every source of randomness flows from the
config seed, which makes (config, split, seed) -> RunResult reproducible
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .augment import augment_view
from .config import TrainConfig
from .data import GraphDataset, SplitSpec
from .errors import DivergenceError, NumericsError
from .model import GcnEncoder, LinearHead, init_params, predict
from .objective import (
    confident_set,
    label_consistency_loss,
    node_consistency_loss,
    sample_support,
    snn_distribution,
    supervised_loss,
    total_loss,
)
from .sparse import normalize_adjacency
from .sparse_features import SparseFeatures
from .tape import Tape, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class RunResult:
    best_val_accuracy: float
    test_accuracy_at_best_val: float
    epoch_of_best: int
    loss_history: list[tuple[float, float, float, float]]  # (nc, lc, sup, total)
    val_accuracy_history: list[float]
    params: dict[str, np.ndarray]
    seed: int

    def to_dict(self) -> dict:
        return {
            "best_val_accuracy": self.best_val_accuracy,
            "test_accuracy_at_best_val": self.test_accuracy_at_best_val,
            "epoch_of_best": self.epoch_of_best,
            "seed": self.seed,
            "loss_history": [list(row) for row in self.loss_history],
            "val_accuracy_history": self.val_accuracy_history,
        }


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second moment accumulators per parameter name."""

    def __init__(self, params):
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}


def adam_update(params, state: AdamState, lr: float, weight_decay: float,
                step: int) -> None:
    """Adam with decoupled weight decay (applied before the moment update)."""
    if step < 1:
        raise NumericsError(f"adam step must be >= 1, got {step}")
    for p in params:
        g = p.grad
        if g is None or g.shape != p.data.shape:
            raise NumericsError(f"parameter {p.name}: missing or mis-shaped gradient")
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
        m = state.m[p.name] = ADAM_BETA1 * state.m[p.name] + (1 - ADAM_BETA1) * g
        v = state.v[p.name] = ADAM_BETA2 * state.v[p.name] + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** step)
        v_hat = v / (1 - ADAM_BETA2 ** step)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# one optimization step


@dataclass
class StepLosses:
    nc: float
    lc: float
    sup: float
    total: float


def build_step_loss(
    tape: Tape,
    ds: GraphDataset,
    split: SplitSpec,
    encoder: GcnEncoder,
    head: LinearHead,
    cfg: TrainConfig,
    rng: np.random.Generator,
    features=None,
    unlabeled: np.ndarray | None = None,
    target: Callable[[Tape, Tensor], Tensor] | None = None,
) -> tuple[Tensor, StepLosses]:
    """Assemble the full objective for one step on a fresh tape graph.

    Draw order (fixed so that coefficient-only config changes see identical
    randomness): weak view, strong view, weak encode, strong encode, support
    sample.

    `target(tape, p)` maps the live weak-view SNN distribution `p` to the
    L_LC target; the default is `tape.detach(p)`. Gradient checks pass a
    hook that records the target and then returns it frozen, because finite
    differences of the step objective must hold the stop-gradient branch
    constant, exactly as the optimizer sees it.
    """
    label_ids = ds.label_ids()
    if unlabeled is None:
        unlabeled = np.setdiff1d(np.arange(ds.num_nodes), split.labeled)
    tape.new_step()

    adj_w, x_w = augment_view(ds, cfg.weak_feature_mask, cfg.weak_edge_drop, rng,
                              features=features)
    adj_s, x_s = augment_view(ds, cfg.strong_feature_mask, cfg.strong_edge_drop, rng,
                              features=features)
    z_w = encoder.encode(tape, adj_w, x_w, training=True, rng=rng)
    z_s = encoder.encode(tape, adj_s, x_s, training=True, rng=rng)

    u_s, u_w = tape.normalize_rows(z_s), tape.normalize_rows(z_w)
    l_nc = node_consistency_loss(tape, u_s, u_w)

    support = sample_support(split, label_ids, ds.class_count, rng)
    p_pred = snn_distribution(tape, u_s, support, cfg.tau)
    p_live = snn_distribution(tape, u_w, support, cfg.tau)
    p_target = tape.detach(p_live) if target is None else target(tape, p_live)
    v_conf = confident_set(p_target.data, cfg.nu, unlabeled)
    l_lc = label_consistency_loss(tape, p_pred, p_target, ds.labels, split.labeled, v_conf)

    logits = head.classify(tape, z_s)
    l_sup = supervised_loss(tape, logits, ds.labels, split.labeled)

    total = total_loss(tape, l_nc, l_lc, l_sup, cfg.lambda1, cfg.lambda2)
    parts = StepLosses(nc=l_nc.item(), lc=l_lc.item(), sup=l_sup.item(),
                       total=total.item())
    return total, parts


def train_step(
    tape: Tape,
    ds: GraphDataset,
    split: SplitSpec,
    encoder: GcnEncoder,
    head: LinearHead,
    cfg: TrainConfig,
    adam: AdamState,
    rng: np.random.Generator,
    step_index: int,
    features=None,
    unlabeled: np.ndarray | None = None,
) -> StepLosses:
    """Forward, backward, Adam update; returns the step's loss components."""
    total, parts = build_step_loss(
        tape, ds, split, encoder, head, cfg, rng,
        features=features, unlabeled=unlabeled,
    )
    tape.backward(total)
    adam_update(
        list(tape.parameters.values()), adam, cfg.learning_rate,
        cfg.weight_decay, step_index,
    )
    return parts


# ---------------------------------------------------------------------------
# feature preprocessing


def row_normalize(features: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return features / norms


def prepare_features(ds: GraphDataset, cfg: TrainConfig):
    """Optional row normalization, then CSR when at most 5% of entries are nonzero."""
    x = row_normalize(ds.features) if cfg.feature_row_normalize else ds.features
    nonzero = np.flatnonzero(x)
    return SparseFeatures.from_dense(x, nonzero) if nonzero.size / x.size <= 0.05 else x


# ---------------------------------------------------------------------------
# the training loop


def fit(ds: GraphDataset, split: SplitSpec, cfg: TrainConfig) -> RunResult:
    """Train up to max_epochs steps; report test accuracy at the epoch of
    highest validation accuracy (ties keep the earlier epoch).

    Raises DataError, before any draw, on a split that `SplitSpec.validate`
    rejects, and DivergenceError (carrying the partial history) on a
    non-finite total loss.
    """
    split.validate(ds)
    rng = np.random.default_rng(cfg.seed)
    tape = Tape()
    encoder, head = init_params(
        tape, ds.num_features, cfg.hidden_dim, cfg.embed_dim, ds.class_count,
        cfg.dropout, rng,
    )
    adam = AdamState(tape.parameters.values())
    features = prepare_features(ds, cfg)
    adj_clean = normalize_adjacency(ds.adj)
    label_ids = ds.label_ids()
    unlabeled = np.setdiff1d(np.arange(ds.num_nodes), split.labeled)

    history: list[tuple[float, float, float, float]] = []
    val_history: list[float] = []
    best_val = -1.0
    best_epoch = 0
    best_params: dict[str, np.ndarray] = {}

    for epoch in range(1, cfg.max_epochs + 1):
        parts = train_step(
            tape, ds, split, encoder, head, cfg, adam, rng, epoch,
            features=features, unlabeled=unlabeled,
        )
        history.append((parts.nc, parts.lc, parts.sup, parts.total))
        if not np.isfinite(parts.total):
            raise DivergenceError(
                f"non-finite total loss at epoch {epoch}", history=history
            )
        pred = predict(encoder, head, adj_clean, features, cfg, split.labeled, label_ids)
        val_acc = float(np.mean(pred[split.val] == label_ids[split.val]))
        val_history.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_params = {name: p.data.copy() for name, p in tape.parameters.items()}

    for name, p in tape.parameters.items():
        p.data = best_params[name]
    pred = predict(encoder, head, adj_clean, features, cfg, split.labeled, label_ids)
    test_acc = float(np.mean(pred[split.test] == label_ids[split.test]))
    return RunResult(
        best_val_accuracy=best_val,
        test_accuracy_at_best_val=test_acc,
        epoch_of_best=best_epoch,
        loss_history=history,
        val_accuracy_history=val_history,
        params=best_params,
        seed=cfg.seed,
    )
