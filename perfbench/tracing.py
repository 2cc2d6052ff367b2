"""Spans recorded around grafn's layers from outside the package.

`Tracer.install` wraps each layer function at the attribute its caller
looks up: a module-level name is patched in the module that imported it
(`grafn.trainer.augment_view`, since trainer imports it by name), and a
method is patched on its class (`Tape.spmm`, `GcnEncoder.encode`).
`uninstall` puts every original back. Spans (name, start, end, parent) stay
in memory; `export` hands them over as arrays, and `layer_metrics` turns
span tables into the per-layer metrics.

A forked worker inherits the wrappers. When a traced `fit` returns inside a
worker, the wrapper writes that fit's spans to `child_dir`, because the
worker's memory goes away with it.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

STEP = "trainer.step"
FIT = "trainer.fit"
FIT_SEED = "trainer.fit_seed"
CONF_FRAC = "objective.conf_frac"
SETUP_PARTS = ("trainer.prepare_features", "trainer.normalize_adjacency", "trainer.init_params")
# Tape methods that are not kernels: the parameter registry and the backward pass.
TAPE_NON_KERNELS = frozenset({"parameter", "zero_grad", "new_step", "backward"})

# Per-layer metrics summed over the spans inside one training step, reported
# as the median over steps. Keys are span names.
PER_STEP = (
    "augment.view", "augment.drop_edges", "augment.normalize_adjacency",
    "augment.mask_features", "sparse.from_edges",
    "sparse_features.matmul", "sparse_features.grad_right",
    "sparse_features.drop_entries", "sparse_features.scale_columns",
    "tape.matmul", "tape.spmm", "tape.dropout", "tape.relu", "tape.row_cosine",
    "tape.normalize_rows", "tape.softmax_rows", "tape.gather_rows",
    "tape.cross_entropy_rows", "tape.softmax_cross_entropy", "tape.backward",
    "model.encode_train", "model.classify",
    "objective.snn_distribution", "objective.sample_support", "trainer.adam",
)
# Per-layer metrics reported as the median duration of one call.
PER_CALL = (
    "data.load_dataset", "model.encode_eval", "model.load_checkpoint",
    "evaluation.sim_at_k",
)


class Tracer:
    def __init__(self, child_dir: str | None = None):
        self.pid = os.getpid()
        self.child_dir = child_dir
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.values: list[tuple[int, str, float]] = []  # (span, name, value)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._exports = 0

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, value: float) -> None:
        """Attach a value to the innermost open span."""
        self.values.append((self._stack[-1] if self._stack else -1, name, float(value)))

    def wrap(self, fn, name, after=None):
        """`fn` inside a span. `name` is a string or a function of the call's
        arguments; `after(result, args, kwargs)` runs inside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                tracer.close(i)

        return traced

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, attr: str, name, after=None) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, after))
        else:
            new = self.wrap(raw, name, after)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        from grafn import augment, data, evaluation, model, tape, trainer
        from grafn.model import GcnEncoder, LinearHead
        from grafn.sparse import SparseAdjacency
        from grafn.sparse_features import SparseFeatures

        if self._undo:
            raise RuntimeError("tracer already installed")
        self.patch(data, "load_dataset", "data.load_dataset")
        self.patch(SparseAdjacency, "from_edges", "sparse.from_edges")
        self.patch(trainer, "augment_view", "augment.view")
        for fn in ("drop_edges", "normalize_adjacency", "mask_features"):
            self.patch(augment, fn, f"augment.{fn}")
        for fn in ("matmul", "grad_right", "drop_entries", "scale_columns"):
            self.patch(SparseFeatures, fn, f"sparse_features.{fn}")
        for attr, raw in list(vars(tape.Tape).items()):
            if callable(raw) and not attr.startswith("_"):
                self.patch(tape.Tape, attr, f"tape.{attr}")
        self.patch(GcnEncoder, "encode", _encode_name)
        self.patch(LinearHead, "classify", "model.classify")
        self.patch(model, "load_checkpoint", "model.load_checkpoint")
        self.patch(evaluation, "sim_at_k", "evaluation.sim_at_k")
        for fn in ("snn_distribution", "sample_support"):
            self.patch(trainer, fn, f"objective.{fn}")
        self.patch(trainer, "confident_set", "objective.confident_set", self._conf_frac)
        self.patch(trainer, "train_step", STEP)
        self.patch(trainer, "adam_update", "trainer.adam")
        for part in SETUP_PARTS:
            self.patch(trainer, part.split(".", 1)[1], part)
        self.patch(trainer, "fit", FIT, self._fit_done)
        self.patch(evaluation, "fit", FIT, self._fit_done)
        self.patch(evaluation, "run_benchmark", "evaluation.run_benchmark")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _conf_frac(self, v_conf, args, kwargs) -> None:
        unlabeled = kwargs["unlabeled"] if "unlabeled" in kwargs else args[2]
        self.record(CONF_FRAC, len(v_conf) / max(len(unlabeled), 1))

    def _fit_done(self, result, args, kwargs) -> None:
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
        self.record(FIT_SEED, cfg.seed)
        if os.getpid() != self.pid and self.child_dir is not None:
            # In a forked worker: hand this fit's spans to the parent.
            fit_span = self._stack[-1]
            tables = self.export(fit_span)
            self._exports += 1
            np.savez(os.path.join(self.child_dir, f"{os.getpid()}-{self._exports}.npz"),
                     **tables)

    # -- handing spans over --------------------------------------------------

    def export(self, first: int = 0) -> dict[str, np.ndarray]:
        """Spans from index `first` on, as arrays; parents before `first`
        become -1. Open spans get the current time as their end."""
        now = time.perf_counter()
        names = sorted(set(self.names[first:]) | {v[1] for v in self.values})
        index = {name: k for k, name in enumerate(names)}
        parents = np.asarray(self.parents[first:], dtype=np.int64) - first
        values = [v for v in self.values if v[0] >= first]
        ends = np.asarray(self.ends[first:], dtype=np.float64)
        return {
            "names": np.asarray(names, dtype=str),
            "name": np.asarray([index[n] for n in self.names[first:]], dtype=np.int32),
            "start": np.asarray(self.starts[first:], dtype=np.float64),
            "end": np.where(np.isnan(ends), now, ends),
            "parent": np.where(parents < 0, -1, parents),
            "value_span": np.asarray([v[0] - first for v in values], dtype=np.int64),
            "value_name": np.asarray([index[v[1]] for v in values], dtype=np.int32),
            "value": np.asarray([v[2] for v in values], dtype=np.float64),
        }


def _encode_name(args, kwargs) -> str:
    training = kwargs["training"] if "training" in kwargs else args[4]
    return "model.encode_train" if training else "model.encode_eval"


def load_table(path: str) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as npz:
        return {key: npz[key] for key in npz.files}


def save_tables(path: str, tables: list[dict[str, np.ndarray]]) -> None:
    """All span tables of a run in one file, keys suffixed by table number."""
    np.savez_compressed(path, **{f"{key}_{t}": arr
                                 for t, table in enumerate(tables)
                                 for key, arr in table.items()})


def _enclosing(names: list[str], name_ids: np.ndarray, parent: np.ndarray,
               target: str) -> np.ndarray:
    """Index of the innermost enclosing span named `target` (itself
    included), or -1."""
    target_id = names.index(target) if target in names else -2
    out = np.full(len(name_ids), -1, dtype=np.int64)
    for i in range(len(name_ids)):
        if name_ids[i] == target_id:
            out[i] = i
        elif parent[i] >= 0:
            out[i] = out[parent[i]]
    return out


def layer_metrics(tables: list[dict[str, np.ndarray]]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics from span tables: name -> (value, unit, samples).
    A layer that never ran reads 0 with 0 samples."""
    per_step: dict[str, list[float]] = {name: [] for name in PER_STEP}
    per_call: dict[str, list[float]] = {name: [] for name in PER_CALL}
    step_ms: list[float] = []
    setup_ms: list[float] = []
    conf: list[float] = []
    kernel_calls: tuple[float, float] | None = None  # (fit seed, calls per step)

    for table in tables:
        names = [str(n) for n in table["names"]]
        ids, parent = table["name"], table["parent"]
        dur_ms = (table["end"] - table["start"]) * 1e3
        step = _enclosing(names, ids, parent, STEP)
        fit = _enclosing(names, ids, parent, FIT)
        step_ids = np.flatnonzero(ids == (names.index(STEP) if STEP in names else -2))
        step_ms.extend(dur_ms[step_ids])
        slot = {s: k for k, s in enumerate(step_ids)}
        for name in PER_STEP:
            sums = np.zeros(len(step_ids))
            if name in names:
                sel = np.flatnonzero((ids == names.index(name)) & (step >= 0))
                np.add.at(sums, [slot[s] for s in step[sel]], dur_ms[sel])
            per_step[name].extend(sums)
        for name in PER_CALL:
            if name in names:
                per_call[name].extend(dur_ms[ids == names.index(name)])

        fit_ids = np.flatnonzero(ids == (names.index(FIT) if FIT in names else -2))
        setup_id = [names.index(p) for p in SETUP_PARTS if p in names]
        for f in fit_ids:
            setup_ms.append(float(dur_ms[np.isin(ids, setup_id) & (parent == f)].sum()))

        vname = [names[k] for k in table["value_name"]]
        conf.extend(v for n, v in zip(vname, table["value"]) if n == CONF_FRAC)
        kernels = np.asarray([n.startswith("tape.") and n[5:] not in TAPE_NON_KERNELS
                              for n in names])
        for f in fit_ids:
            seeds = [v for n, s, v in zip(vname, table["value_span"], table["value"])
                     if n == FIT_SEED and s == f]
            steps_in_fit = np.count_nonzero((fit[step_ids] == f))
            if not seeds or not steps_in_fit:
                continue
            calls = np.count_nonzero(kernels[ids] & (fit == f) & (step >= 0))
            if kernel_calls is None or seeds[0] < kernel_calls[0]:
                kernel_calls = (seeds[0], calls / steps_in_fit)

    def median(xs) -> float:
        return float(statistics.median(xs)) if len(xs) else 0.0

    out = {f"{name}_ms": (median(xs), "ms", len(xs)) for name, xs in per_step.items()}
    out.update({f"{name}_ms": (median(xs), "ms", len(xs)) for name, xs in per_call.items()})
    out["trainer.step_ms_p50"] = (median(step_ms), "ms", len(step_ms))
    out["trainer.step_ms_p95"] = (
        float(np.percentile(step_ms, 95)) if step_ms else 0.0, "ms", len(step_ms))
    out["trainer.setup_ms"] = (median(setup_ms), "ms", len(setup_ms))
    out[CONF_FRAC] = (float(np.mean(conf)) if conf else 0.0, "ratio", len(conf))
    out["tape.kernel_calls_per_step"] = (
        kernel_calls[1] if kernel_calls else 0.0, "count", 1 if kernel_calls else 0)
    return out
