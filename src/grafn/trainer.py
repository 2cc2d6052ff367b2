"""Full-batch training loop with Adam and best-validation model selection.

One optimization step per epoch: both datasets of interest fit in memory,
so "epoch" and "step" coincide. Every source of randomness flows from the
config seed, which makes (config, split, seed) -> RunResult reproducible
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .augment import augment_view
from .data import GraphDataset, SplitSpec
from .errors import ConfigError, DivergenceError, NumericsError
from .model import GcnEncoder, LinearHead, init_params, predict
from .objective import (
    LossConfig,
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


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 128
    embed_dim: int = 128
    learning_rate: float = 0.001
    weight_decay: float = 5e-4
    dropout: float = 0.5
    max_epochs: int = 500
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 1
    feature_row_normalize: bool = True
    snn_inference: bool = False      # classify by clean-graph SNN argmax
    sparse_features: str = "auto"    # "auto" | "on" | "off"

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("hidden_dim and embed_dim must be >= 1")
        if self.sparse_features not in ("auto", "on", "off"):
            raise ConfigError(f"sparse_features must be auto/on/off, got {self.sparse_features}")


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
    loss_cfg: LossConfig,
    rng: np.random.Generator,
    features=None,
    unlabeled: np.ndarray | None = None,
    detach_target: bool = True,
    target_override: np.ndarray | None = None,
    capture: dict | None = None,
) -> tuple[Tensor, StepLosses]:
    """Assemble the full objective for one step on a fresh tape graph.

    Draw order (fixed so that coefficient-only config changes see identical
    randomness): weak view, strong view, weak encode, strong encode, support
    sample.

    `detach_target=False` exists only for stop-gradient verification.
    `target_override` substitutes a frozen target distribution: finite
    differences of the step objective must hold the stop-gradient branch
    constant, exactly as the optimizer sees it. Pass a dict as `capture` to
    receive the computed target and confident set.
    """
    label_ids = ds.label_ids()
    if unlabeled is None:
        unlabeled = np.setdiff1d(np.arange(ds.num_nodes), split.labeled)
    tape.new_step()

    adj_w, x_w = augment_view(ds, loss_cfg.weak_aug, rng, features=features)
    adj_s, x_s = augment_view(ds, loss_cfg.strong_aug, rng, features=features)
    z_w = encoder.encode(tape, adj_w, x_w, training=True, rng=rng)
    z_s = encoder.encode(tape, adj_s, x_s, training=True, rng=rng)

    l_nc = node_consistency_loss(tape, z_s, z_w)

    support = sample_support(split, label_ids, ds.class_count, rng)
    pred_source, target_source = (z_w, z_s) if loss_cfg.cross_view_supports else (z_s, z_w)
    p_pred = snn_distribution(tape, z_s, pred_source, support, loss_cfg.tau)
    p_target_live = snn_distribution(tape, z_w, target_source, support, loss_cfg.tau)
    if target_override is not None:
        p_target = Tensor(target_override)
    elif detach_target:
        p_target = tape.detach(p_target_live)
    else:
        p_target = p_target_live
    v_conf = confident_set(p_target.data, loss_cfg.nu, unlabeled)
    if capture is not None:
        capture["p_target"] = p_target.data.copy()
        capture["v_conf"] = v_conf.copy()
    if detach_target:
        l_lc = label_consistency_loss(
            tape, p_pred, p_target, ds.labels, split.labeled, v_conf
        )
    else:
        l_lc = tape.cross_entropy_rows(
            ds.labels[split.labeled], tape.gather_rows(p_pred, split.labeled)
        )
        if len(v_conf):
            l_lc = tape.add(
                tape.cross_entropy_rows(
                    tape.gather_rows(p_target, v_conf), tape.gather_rows(p_pred, v_conf)
                ),
                l_lc,
            )

    logits = head.classify(tape, z_s)
    l_sup = supervised_loss(tape, logits, ds.labels, split.labeled)

    total = total_loss(tape, l_nc, l_lc, l_sup, loss_cfg)
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
        tape, ds, split, encoder, head, cfg.loss, rng,
        features=features, unlabeled=unlabeled,
    )
    tape.backward(total)
    adam_update(
        list(tape.parameters.values()), adam, cfg.learning_rate,
        cfg.weight_decay, step_index,
    )
    return parts


# ---------------------------------------------------------------------------
# evaluation helpers


def row_normalize(features: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return features / norms


def prepare_features(ds: GraphDataset, cfg: TrainConfig):
    """Optional row normalization plus the dense/sparse representation choice."""
    x = row_normalize(ds.features) if cfg.feature_row_normalize else ds.features
    use_sparse = cfg.sparse_features == "on"
    if cfg.sparse_features == "auto":
        density = np.count_nonzero(x) / x.size
        use_sparse = density <= 0.05
    return SparseFeatures.from_dense(x) if use_sparse else x


def snn_predict(z: np.ndarray, labeled: np.ndarray, label_ids: np.ndarray,
                num_classes: int, tau: float) -> np.ndarray:
    """Deterministic SNN inference: every labeled node acts as a support."""
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    zs = zn[labeled]
    logits = zn @ zs.T / tau
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    y_s = np.zeros((len(labeled), num_classes))
    y_s[np.arange(len(labeled)), label_ids[labeled]] = 1.0
    return np.argmax(w @ y_s, axis=1)


def _predict_classes(adj_norm, features, encoder, head, cfg, split, label_ids,
                     num_classes) -> np.ndarray:
    tape = Tape()
    z = encoder.encode(tape, adj_norm, features, training=False)
    if cfg.snn_inference:
        return snn_predict(z.data, split.labeled, label_ids, num_classes, cfg.loss.tau)
    logits = head.classify(tape, z)
    return np.argmax(logits.data, axis=1)


def evaluate_accuracy(ds: GraphDataset, encoder: GcnEncoder, head: LinearHead,
                      index_set: np.ndarray) -> float:
    """Fraction of nodes in the set whose clean-graph prediction matches."""
    if len(index_set) == 0:
        raise NumericsError("evaluate_accuracy over an empty index set")
    pred = predict(ds, encoder, head)
    return float(np.mean(pred[index_set] == ds.label_ids()[index_set]))


# ---------------------------------------------------------------------------
# the training loop


def fit(ds: GraphDataset, split: SplitSpec, cfg: TrainConfig) -> RunResult:
    """Train up to max_epochs steps; report test accuracy at the epoch of
    highest validation accuracy (ties keep the earlier epoch).

    Raises DivergenceError (carrying the partial history) on a non-finite
    total loss.
    """
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
        pred = _predict_classes(
            adj_clean, features, encoder, head, cfg, split, label_ids, ds.class_count
        )
        val_acc = float(np.mean(pred[split.val] == label_ids[split.val]))
        val_history.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_params = {name: p.data.copy() for name, p in tape.parameters.items()}

    for name, p in tape.parameters.items():
        p.data = best_params[name]
    pred = _predict_classes(
        adj_clean, features, encoder, head, cfg, split, label_ids, ds.class_count
    )
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
