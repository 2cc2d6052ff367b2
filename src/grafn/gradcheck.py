"""Finite-difference check of tape gradients along seeded unit directions v.

As in JAX's check_grads, the central difference of the loss along v is
compared with <grad, v>: one direction per parameter tensor, so a large
tensor cannot dilute a small one's fault, then DIRECTIONS over all of them.
Each `tape.detach` value is recorded at the base parameters and replayed at
every perturbed point, since stop-gradient means a constant of the step. A
direction whose estimate moves between steps EPS and EPS/2 crosses a kink
(ReLU corner, confidence-set flip) and is skipped; skipping all of them fails.
A fault in one entry shows at about 1/sqrt(its tensor's size) of its size:
the W1 entry of median gradient, sign-flipped, read 1.0e-3 and 2.9e-4 (nu = 0,
0.9) at 600 nodes (W1 300 x 128), 9.7e-3 and 0.24 at 20 nodes (W1 12 x 6).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericsError
from .tape import Tape, Tensor

EPS = 1e-5  # central-difference step; EPS / 2 is the consistency step
DIRECTIONS = 4  # seeded directions over all parameters, after one per tensor
NONDETERMINISTIC = "loss function is not deterministic across evaluations"


def finite_diff_check(tape: Tape, build_loss: Callable[[], Tensor]) -> float:
    """Max error of <grad, v> against central differences along v, relative to
    the larger of the two (only an exact tie reads 0). `build_loss` rebuilds
    the forward pass from the current parameters and fixes every seed it uses."""
    held: list[np.ndarray] = []
    replay = [None]  # the next held value's index, once the base point is recorded

    def detach(x: Tensor) -> Tensor:
        i = replay[0]
        if i is None:
            held.append(x.data)  # parameters are rebound, never written, below
            return Tensor(x.data)
        if i == len(held) or held[i].shape != x.data.shape:
            raise NumericsError(NONDETERMINISTIC)
        replay[0] = i + 1
        return Tensor(held[i])

    def evaluate(v: dict[str, np.ndarray] | None = None, step: float = 0.0) -> Tensor:
        for name, p in params.items():
            p.data = base[name] + step * v[name] if v and name in v else base[name]
        tape.new_step()
        loss = build_loss()
        if replay[0] not in (None, len(held)):
            raise NumericsError(NONDETERMINISTIC)
        replay[0] = 0
        return loss

    params = tape.parameters
    base = {name: p.data for name, p in params.items()}
    rng = np.random.default_rng(0)
    units = [{name: rng.standard_normal(a.shape)} for name, a in base.items()] + [
        {name: rng.standard_normal(a.shape) for name, a in base.items()} for _ in range(DIRECTIONS)]
    errors = []
    tape.detach = detach
    try:
        if float(evaluate().data) != float(evaluate().data):
            raise NumericsError(NONDETERMINISTIC)
        tape.backward(evaluate())
        for v in units:
            norm = np.sqrt(sum(np.vdot(d, d) for d in v.values()))
            v = {name: d / norm for name, d in v.items()}
            d1, d2 = ((evaluate(v, h).item() - evaluate(v, -h).item()) / (2.0 * h)
                      for h in (EPS, EPS / 2.0))
            if abs(d1 - d2) > max(1e-3 * max(abs(d1), abs(d2)), 1e-7):
                continue  # kink within EPS: finite differences unreliable here
            dot = float(sum(np.vdot(params[name].grad, d) for name, d in v.items()))
            errors.append(0.0 if d1 == dot else abs(d1 - dot) / max(abs(d1), abs(dot)))
    finally:
        del tape.detach
        for name, p in params.items():
            p.data = base[name]
    if not errors:
        raise NumericsError(f"all {len(units)} directions cross a kink within EPS = {EPS:g}")
    return max(errors)
