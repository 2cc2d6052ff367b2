"""Full-batch training loop with Adam and best-validation model selection.

One optimization step per epoch: both datasets of interest fit in memory,
so "epoch" and "step" coincide. Every source of randomness flows from the
config seed, which makes (config, split, seed) -> RunResult reproducible
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .augment import augment_view
from .config import TrainConfig
from .data import GraphDataset, SplitSpec
from .errors import DivergenceError
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
# perfbench times this name; ROADMAP item 1 deletes it
from .sparse import normalize_adjacency  # noqa: F401
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


def adam_update(params: dict[str, Tensor], moments: dict[str, tuple[np.ndarray, np.ndarray]],
                lr: float, weight_decay: float, step: int) -> None:
    """Adam with decoupled weight decay (applied before the moment update),
    at `step` >= 1 on the gradients `Tape.backward` left on `params`.
    `moments` maps each name to its (m, v); a missing name starts at zero."""
    for name, p in params.items():
        g = p.grad
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
        m, v = moments.get(name, (0.0, 0.0))
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        moments[name] = (m, v)
        m_hat = m / (1 - ADAM_BETA1 ** step)
        v_hat = v / (1 - ADAM_BETA2 ** step)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# one optimization step


def build_step_loss(
    tape: Tape,
    ds: GraphDataset,
    split: SplitSpec,
    encoder: GcnEncoder,
    head: LinearHead,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[Tensor, tuple[float, float, float, float]]:
    """Assemble the full objective for one step on a fresh tape graph, from
    the dataset's raw adjacency, prepared features and labels; the confident
    set is drawn from the nodes outside `split.labeled`.

    Draw order (fixed so that coefficient-only config changes see identical
    randomness): weak view, strong view, weak encode, strong encode, support
    sample.
    """
    tape.new_step()

    x = ds.prepared_features
    adj_w, x_w = augment_view(ds.adj, x, cfg.weak_feature_mask, cfg.weak_edge_drop, rng)
    adj_s, x_s = augment_view(ds.adj, x, cfg.strong_feature_mask, cfg.strong_edge_drop, rng)
    # z_w is not kept: normalize_rows' backward does not read it
    u_w = tape.normalize_rows(encoder.encode(tape, adj_w, x_w, training=True, rng=rng))
    z_s = encoder.encode(tape, adj_s, x_s, training=True, rng=rng)
    u_s = tape.normalize_rows(z_s)
    l_nc = node_consistency_loss(tape, u_s, u_w)

    support = sample_support(split, ds.labels, ds.class_count, rng)
    p_pred = snn_distribution(tape, u_s, support, cfg.tau)
    p_target = snn_distribution(tape, tape.detach(u_w), support, cfg.tau)
    unlabeled = np.ones(ds.num_nodes, dtype=bool)
    unlabeled[split.labeled] = False
    v_conf = confident_set(p_target.data, cfg.nu, np.flatnonzero(unlabeled))
    l_lc = label_consistency_loss(tape, p_pred, p_target, ds.labels, split.labeled, v_conf)

    logits = head.classify(tape, z_s)
    l_sup = supervised_loss(tape, logits, ds.labels, split.labeled)

    total = total_loss(tape, l_nc, l_lc, l_sup, cfg.lambda1, cfg.lambda2)
    return total, (l_nc.item(), l_lc.item(), l_sup.item(), total.item())


def train_step(
    tape: Tape,
    ds: GraphDataset,
    split: SplitSpec,
    encoder: GcnEncoder,
    head: LinearHead,
    cfg: TrainConfig,
    moments: dict[str, tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    step_index: int,
) -> tuple[float, float, float, float]:
    """Forward, backward, Adam update; returns the step's (nc, lc, sup, total)."""
    total, row = build_step_loss(tape, ds, split, encoder, head, cfg, rng)
    tape.backward(total)
    adam_update(tape.parameters, moments, cfg.learning_rate, cfg.weight_decay, step_index)
    return row


# perfbench calls and times this name; ROADMAP item 1 deletes it
def prepare_features(ds: GraphDataset, cfg: TrainConfig):
    """`ds.prepared_features`, which grafn itself reads directly. `cfg` is
    unused; it is kept for perfbench's two-argument call."""
    return ds.prepared_features


# ---------------------------------------------------------------------------
# the training loop


@cache
def _keep_freed_heap(nbytes: int) -> None:
    """Free one block of `nbytes`, at most 31 MiB, once per process and size.

    glibc's malloc raises its mmap threshold to the size of a mapped block
    that is freed (up to 32 MiB) and its trim threshold to twice that. In a
    fresh process nothing that large has been freed yet: each step's arrays
    are mapped or come from a heap that the step's end trims, and the next
    step faults them in again (about 10k page faults per cora-shape epoch).
    The block is never written, so it holds no memory."""
    np.empty(min(nbytes, 31 << 20), np.uint8)


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
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    # a step frees about ten arrays of N rows at its end; the trim threshold
    # becomes twice the block
    _keep_freed_heap(6 * 8 * ds.num_nodes * max(cfg.hidden_dim, cfg.embed_dim, ds.num_features))

    history: list[tuple[float, float, float, float]] = []
    val_history: list[float] = []
    best_val = -1.0
    best_epoch = 0
    best_params: dict[str, np.ndarray] = {}
    test_acc = 0.0

    for epoch in range(1, cfg.max_epochs + 1):
        history.append(train_step(tape, ds, split, encoder, head, cfg, moments, rng, epoch))
        if not np.isfinite(history[-1][3]):
            raise DivergenceError(
                f"non-finite total loss at epoch {epoch}", history=history
            )
        pred = predict(encoder, head, ds, cfg, split.labeled)
        val_acc = float(np.mean(pred[split.val] == ds.labels[split.val]))
        val_history.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_params = {name: p.data.copy() for name, p in tape.parameters.items()}
            test_acc = float(np.mean(pred[split.test] == ds.labels[split.test]))

    return RunResult(
        best_val_accuracy=best_val,
        test_accuracy_at_best_val=test_acc,
        epoch_of_best=best_epoch,
        loss_history=history,
        val_accuracy_history=val_history,
        params=best_params,
        seed=cfg.seed,
    )
