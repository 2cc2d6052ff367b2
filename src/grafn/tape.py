"""Reverse-mode differentiation over float64 matrices.

A Tape records primitive operations in execution order (a Wengert list);
backward() replays them in reverse, accumulating gradients into every
tensor that needs one. Only the kernels the training objective composes
are provided; this is not a general autodiff system.

Conventions:
  - all data is float64; scalars are 0-d arrays;
  - ReLU uses subgradient 0 at exactly 0;
  - detach() cuts gradient flow (stop-gradient boundary);
  - ops never mutate input arrays, so aliasing values is safe.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from .errors import NumericsError
from .sparse import SparseAdjacency

CE_FLOOR = 1e-12  # numerical floor inside log() for cross-entropy on probabilities


class Tensor:
    """A value on the tape: float64 ndarray plus a gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_origin")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        # (weakref to tape, step) for op outputs, None for leaves; a strong ref
        # would form a cycle with the tape's records that only the GC frees
        self._origin = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a name; always participates in gradients."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class Tape:
    """Operation recorder and parameter registry for one training run."""

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._step = 0
        self.parameters: dict[str, Parameter] = {}

    # -- parameter registry -------------------------------------------------

    def parameter(self, data, name: str) -> Parameter:
        if name in self.parameters:
            raise NumericsError(f"parameter {name!r} registered twice")
        p = Parameter(data, name)
        self.parameters[name] = p
        return p

    def zero_grad(self) -> None:
        for p in self.parameters.values():
            p.grad = None

    def new_step(self) -> None:
        """Discard the recorded graph; parameters persist."""
        self._records.clear()
        self._step += 1

    # -- recording / backward ----------------------------------------------

    def _emit(self, out_data, inputs: tuple[Tensor, ...], backprop) -> Tensor:
        out = Tensor(out_data)
        if any(t.requires_grad for t in inputs):
            out.requires_grad = True
            out._origin = (weakref.ref(self), self._step)
            self._records.append((out, backprop))
        return out

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every registered parameter.

        Gradients of previous steps are cleared first; parameters that the
        loss does not reach end up with zero gradients.
        """
        if loss.data.size != 1:
            raise NumericsError(f"loss must be scalar, got shape {loss.data.shape}")
        if loss._origin is not None and (
            loss._origin[0]() is not self or loss._origin[1] != self._step
        ):
            raise NumericsError("loss was not produced on this tape's current step")
        for out, _ in self._records:
            out.grad = None
        self.zero_grad()
        loss.grad = np.ones_like(loss.data)
        for out, backprop in reversed(self._records):
            if out.grad is not None:
                backprop(out.grad)
        for p in self.parameters.values():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)

    # -- primitive kernels ---------------------------------------------------

    def detach(self, x: Tensor) -> Tensor:
        """Stop-gradient boundary: same value, no lineage."""
        return Tensor(x.data)

    def matmul(self, a, b) -> Tensor:
        """Dense product a @ b; `a` may be a SparseFeatures constant."""
        from .sparse_features import SparseFeatures

        b = _wrap(b)
        if isinstance(a, SparseFeatures):
            if a.shape[1] != b.data.shape[0]:
                raise NumericsError(
                    f"matmul shape mismatch: {a.shape} @ {b.data.shape}"
                )
            out_data = a.matmul(b.data)

            def backprop(g, a=a, b=b):
                _accumulate(b, a.grad_right(g))

            return self._emit(out_data, (b,), backprop)

        a = _wrap(a)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise NumericsError(
                f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
            )
        out_data = a.data @ b.data

        def backprop(g, a=a, b=b):  # _accumulate would drop a constant's product
            if a.requires_grad:
                _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g)

        return self._emit(out_data, (a, b), backprop)

    def spmm(self, adj: SparseAdjacency, x) -> Tensor:
        """Sparse @ dense; differentiable w.r.t. the dense side only. Backward uses
        A for A.T: a SparseAdjacency is exactly symmetric (see normalize_adjacency)."""
        x = _wrap(x)
        if x.data.ndim != 2 or adj.n != x.data.shape[0]:
            raise NumericsError(
                f"spmm shape mismatch: sparse ({adj.n},{adj.n}) @ dense {x.data.shape}"
            )
        mat = adj.csr
        out_data = mat @ x.data

        def backprop(g, mat=mat, x=x):
            _accumulate(x, mat @ g)

        return self._emit(out_data, (x,), backprop)

    def relu(self, x) -> Tensor:
        x = _wrap(x)
        out_data = np.maximum(x.data, 0.0)

        def backprop(g, x=x):
            _accumulate(x, g * (x.data > 0.0))

        return self._emit(out_data, (x,), backprop)

    def dropout(self, x, p: float, rng: np.random.Generator) -> Tensor:
        x = _wrap(x)
        if p == 0.0:
            return x
        scale = (rng.random(x.data.shape) >= p) / (1.0 - p)
        out_data = x.data * scale

        def backprop(g, x=x, scale=scale):
            _accumulate(x, g * scale)

        return self._emit(out_data, (x,), backprop)

    def row_dot(self, x, y) -> Tensor:
        """Per-row inner product; returns a length-N vector."""
        x, y = _wrap(x), _wrap(y)
        if x.data.ndim != 2 or x.data.shape != y.data.shape:
            raise NumericsError(f"row_dot shape mismatch: {x.data.shape} vs {y.data.shape}")

        def backprop(g, x=x, y=y):
            _accumulate(x, g[:, None] * y.data)
            _accumulate(y, g[:, None] * x.data)

        return self._emit(np.einsum("ij,ij->i", x.data, y.data), (x, y), backprop)

    def normalize_rows(self, x) -> Tensor:
        """Rows scaled to unit L2 norm; a zero-norm row stays zero and passes
        no gradient."""
        x = _wrap(x)
        norms = np.linalg.norm(x.data, axis=1, keepdims=True)
        live = norms[:, 0] > 0.0
        safe = np.where(norms > 0.0, norms, 1.0)
        u = x.data / safe

        def backprop(g, x=x, safe=safe, u=u, live=live):
            gx = (g - np.sum(g * u, axis=1, keepdims=True) * u) / safe
            _accumulate(x, gx * live[:, None])

        return self._emit(u, (x,), backprop)

    def transpose(self, x) -> Tensor:
        x = _wrap(x)
        out_data = np.ascontiguousarray(x.data.T)

        def backprop(g, x=x):
            _accumulate(x, g.T)

        return self._emit(out_data, (x,), backprop)

    def gather_rows(self, x, idx) -> Tensor:
        x = _wrap(x)
        idx = np.asarray(idx, dtype=np.int64)
        out_data = x.data[idx]

        def backprop(g, x=x, idx=idx):
            buf = np.zeros_like(x.data)
            np.add.at(buf, idx, g)
            _accumulate(x, buf)

        return self._emit(out_data, (x,), backprop)

    def softmax_rows(self, x) -> Tensor:
        x = _wrap(x)
        shifted = x.data - x.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=1, keepdims=True)

        def backprop(g, x=x, s=s):
            _accumulate(x, s * (g - np.sum(g * s, axis=1, keepdims=True)))

        return self._emit(s, (x,), backprop)

    def scale(self, x, c: float) -> Tensor:
        x = _wrap(x)

        def backprop(g, x=x, c=c):
            _accumulate(x, g * c)

        return self._emit(x.data * c, (x,), backprop)

    def add(self, a, b) -> Tensor:
        a, b = _wrap(a), _wrap(b)
        if a.data.shape != b.data.shape:
            raise NumericsError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

        def backprop(g, a=a, b=b):
            _accumulate(a, g)
            _accumulate(b, g)

        return self._emit(a.data + b.data, (a, b), backprop)

    def add_bias(self, x, b) -> Tensor:
        """x + row-broadcast bias of shape (1, C)."""
        x, b = _wrap(x), _wrap(b)
        if b.data.shape != (1, x.data.shape[1]):
            raise NumericsError(
                f"add_bias shape mismatch: {x.data.shape} + {b.data.shape}"
            )

        def backprop(g, x=x, b=b):
            _accumulate(x, g)
            _accumulate(b, g.sum(axis=0, keepdims=True))

        return self._emit(x.data + b.data, (x, b), backprop)

    def mean(self, x) -> Tensor:
        x = _wrap(x)
        n = x.data.size

        def backprop(g, x=x, n=n):
            _accumulate(x, np.full_like(x.data, float(g) / n))

        return self._emit(np.asarray(x.data.mean()), (x,), backprop)

    def cross_entropy_rows(self, target, pred) -> Tensor:
        """Mean over rows of H(target, pred) = -sum_c t log max(p, floor).

        Both operands are probability rows; either side may carry gradient
        (the target side only does when stop-gradient is deliberately off).
        """
        target, pred = _wrap(target), _wrap(pred)
        if target.data.shape != pred.data.shape:
            raise NumericsError(
                f"cross_entropy shape mismatch: {target.data.shape} vs {pred.data.shape}"
            )
        m = target.data.shape[0]
        if m == 0:
            raise NumericsError("cross_entropy over zero rows")
        clipped = np.maximum(pred.data, CE_FLOOR)
        logs = np.log(clipped)
        out = np.asarray(-(target.data * logs).sum() / m)

        def backprop(g, target=target, pred=pred, logs=logs, clipped=clipped, m=m):
            gm = float(g) / m
            live = pred.data > CE_FLOOR
            _accumulate(pred, -gm * target.data * live / clipped)
            _accumulate(target, -gm * logs)

        return self._emit(out, (target, pred), backprop)

    def softmax_cross_entropy(self, logits, onehot) -> Tensor:
        """Mean softmax cross-entropy against constant one-hot targets."""
        logits = _wrap(logits)
        y = np.asarray(onehot, dtype=np.float64)
        if logits.data.shape != y.shape:
            raise NumericsError(
                f"softmax_cross_entropy shape mismatch: {logits.data.shape} vs {y.shape}"
            )
        m = y.shape[0]
        if m == 0:
            raise NumericsError("softmax_cross_entropy over zero rows")
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - lse
        out = np.asarray(-(y * log_probs).sum() / m)

        def backprop(g, logits=logits, y=y, log_probs=log_probs, m=m):
            _accumulate(logits, float(g) / m * (np.exp(log_probs) - y))

        return self._emit(out, (logits,), backprop)
