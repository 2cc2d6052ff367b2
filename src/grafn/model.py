"""Shared two-layer GCN encoder (both augmented views pass through the same
parameters; there is no target network), linear classification head,
`embed`, the one clean-graph encode (dropout off, nothing recorded for
backward), and `predict`, the one node-classification path, built on it.

Checkpoint format: magic "GRAFN1", then per parameter: name length,
name bytes, rows, cols (little-endian uint32), row-major float64 values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .errors import DataError, NumericsError
from .objective import SupportSet, snn_distribution
from .sparse import SparseAdjacency
from .sparse_features import SparseFeatures
from .tape import Tape, Tensor

CHECKPOINT_MAGIC = b"GRAFN1"


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class GcnEncoder:
    w1: Tensor  # F x H
    w2: Tensor  # H x D
    dropout: float

    def encode(
        self,
        tape: Tape,
        adj_norm: SparseAdjacency,
        x: np.ndarray | SparseFeatures | Tensor,
        training: bool,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Z = A_hat . ReLU(A_hat . dropout(X) . W1) . W2, with dropout between
        layers while training."""
        if isinstance(x, SparseFeatures):
            if training and self.dropout > 0.0:
                x = x.drop_entries(self.dropout, rng)
            h = tape.matmul(x, self.w1)
        else:
            h = tape.dropout(x, self.dropout, rng) if training else x
            h = tape.matmul(h, self.w1)
        h = tape.relu(tape.spmm(adj_norm, h))
        if training:
            h = tape.dropout(h, self.dropout, rng)
        return tape.spmm(adj_norm, tape.matmul(h, self.w2))


@dataclass
class LinearHead:
    w: Tensor  # D x C
    b: Tensor  # 1 x C

    def classify(self, tape: Tape, z: Tensor) -> Tensor:
        return tape.add(tape.matmul(z, self.w), self.b)


PARAM_NAMES = ("enc.w1", "enc.w2", "head.w", "head.b")  # checkpoint order


def _assemble(tape: Tape, arrays: list[np.ndarray],
              dropout: float) -> tuple[GcnEncoder, LinearHead]:
    """Encoder and head over tape parameters of `arrays`, in PARAM_NAMES order."""
    w1, w2, w, b = (tape.parameter(a, name) for a, name in zip(arrays, PARAM_NAMES))
    return GcnEncoder(w1, w2, dropout), LinearHead(w, b)


def init_params(
    tape: Tape,
    num_features: int,
    hidden_dim: int,
    embed_dim: int,
    num_classes: int,
    dropout: float,
    rng: np.random.Generator,
) -> tuple[GcnEncoder, LinearHead]:
    """Glorot-uniform weights, zero biases; deterministic given the rng state."""
    return _assemble(tape, [glorot(rng, num_features, hidden_dim),
                            glorot(rng, hidden_dim, embed_dim),
                            glorot(rng, embed_dim, num_classes),
                            np.zeros((1, num_classes))], dropout)


def embed(encoder: GcnEncoder, adj_norm: SparseAdjacency,
          x: np.ndarray | SparseFeatures) -> Tensor:
    """Clean-graph embedding of `x`, dropout off; detached weights record nothing."""
    tape = Tape()
    frozen = GcnEncoder(tape.detach(encoder.w1), tape.detach(encoder.w2), encoder.dropout)
    return frozen.encode(tape, adj_norm, x, training=False)


def predict(encoder: GcnEncoder, head: LinearHead, adj_norm: SparseAdjacency,
            x: np.ndarray | SparseFeatures, cfg: TrainConfig, labeled: np.ndarray,
            label_ids: np.ndarray) -> np.ndarray:
    """Class per node from `embed` of `x` (features prepared as in
    training): the head's argmax or, with `cfg.snn_inference`, the argmax of
    the soft-nearest-neighbour distribution over every labeled node. Ties go
    to the lower class. A zero embedding row stays zero, as in training, so
    its cosines are 0."""
    tape = Tape()
    z = embed(encoder, adj_norm, x)
    if not cfg.snn_inference:
        return np.argmax(head.classify(tape, z).data, axis=1)
    support = SupportSet(labeled, np.eye(head.w.data.shape[1])[label_ids[labeled]])
    p = snn_distribution(tape, tape.normalize_rows(z), support, cfg.tau)
    return np.argmax(p.data, axis=1)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, params: dict[str, np.ndarray]) -> None:
    """Every parameter is checked before the file is opened, so a
    NumericsError leaves no partial checkpoint."""
    for name, value in params.items():
        if value.ndim != 2:
            raise NumericsError(f"checkpoint parameter {name!r} must be 2-d")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, value in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", value.shape[0], value.shape[1]))
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Parameters by name; any malformed content, a non-finite value
    included, raises DataError."""
    try:
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    magic = bytes(blob[:len(CHECKPOINT_MAGIC)])
    if magic != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic {magic!r})")
    pos = len(magic)

    def take(size: int) -> memoryview:
        # sizes are read from the file, so check them against what is left
        nonlocal pos
        if size > len(blob) - pos:
            raise DataError(f"{path}: truncated checkpoint at byte {pos}")
        pos += size
        return blob[pos - size:pos]

    params: dict[str, np.ndarray] = {}
    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: parameter name is not UTF-8") from exc
        rows, cols = struct.unpack("<II", take(8))
        value = np.frombuffer(take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
        if not np.isfinite(value).all():
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(value))[0])
            raise DataError(f"{path}: parameter {name!r} holds {value[bad]} at {bad}")
        params[name] = value.copy()
    return params


def build_from_checkpoint(params: dict[str, np.ndarray]) -> tuple[Tape, GcnEncoder, LinearHead]:
    """Reconstruct encoder and head on a fresh tape from checkpoint arrays;
    shapes that do not chain (F x H, H x D, D x C, 1 x C) raise DataError."""
    for key in PARAM_NAMES:
        if key not in params:
            raise DataError(f"checkpoint missing parameter {key!r}")
    w1, w2, w, b = (params[k].shape for k in PARAM_NAMES)
    if w1[1] != w2[0] or w2[1] != w[0] or b != (1, w[1]):
        raise DataError(
            f"checkpoint parameter shapes do not chain: enc.w1 {w1}, enc.w2 {w2}, "
            f"head.w {w}, head.b {b}"
        )
    tape = Tape()
    return (tape, *_assemble(tape, [params[k] for k in PARAM_NAMES], 0.0))
