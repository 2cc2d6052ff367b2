"""The benchmark's workloads: their inputs, the measured loop, the checks on
every output, and the metrics.

Every run of a workload has the same inputs: one graph and one set of
splits, drawn from the fixed seeds below, so test accuracy is the same on
every run of the same code. The run's seed only rotates the order in which
`synth300-fit` visits its splits.

Each run is a closed loop in one process: set-up, an untimed warm-up fit,
then operations back to back until the next one would end past the run's
time. An operation is one `fit` followed by inference from its checkpoint,
or one `run_benchmark` sweep followed by inference from the warm-up's. In
a traced run every operation runs twice on the same inputs, untraced then
traced; end-to-end times come from the untraced copies, layer times from
the traced ones, and their ratio is the tracing overhead.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from grafn import data, evaluation, model, trainer
from grafn.config import apply_overrides, build_train_config, load_config_file
from grafn.synthetic import random_dataset
from grafn.tape import Tape

import graphs
from tracing import Tracer, layer_metrics, load_table

# The input seeds of every workload: the graph seed and the split seed of
# the test suite's synthetic300 fixtures (tests/conftest.py).
GRAPH_SEED = 7
SPLIT_SEED = 11
# The test suite's planted-partition graph and training config
# (SYNTH_KW and synth_train_config in tests/conftest.py).
SYNTH_KW = dict(n=300, num_classes=3, num_features=48, p_in=0.04, p_out=0.008,
                feature_signal=0.25, feature_noise=0.06, name="synthetic300")
SYNTH_TRAIN = dict(hidden_dim=32, embed_dim=32, max_epochs=300, dropout=0.2,
                   learning_rate=0.01, seed=3)
# configs/cora.cfg with fewer epochs. On this graph, 40 epochs reach the
# same test accuracy at the best validation epoch as 60, and leave room for
# three fits in a run.
CORA_OVERRIDES = ["max_epochs=40", "learning_rate=0.01"]
SIM_KS = (5, 10)

END_TO_END = {"setup_s": "s", "fit_s": "s", "infer_s": "s", "test_acc": "ratio",
              "peak_rss_mb": "MB"}
# Per-layer metrics every workload reports. sparse_features.* (cora-shape
# only) and evaluation.worker_cpu_frac (the sweep only) are printed but left
# out here, since elsewhere they are constant zeros.
PER_LAYER = {
    "data.load_dataset_ms": "ms", "sparse.from_edges_ms": "ms",
    "augment.view_ms": "ms", "augment.drop_edges_ms": "ms",
    "augment.normalize_adjacency_ms": "ms", "augment.mask_features_ms": "ms",
    "tape.matmul_ms": "ms", "tape.spmm_ms": "ms", "tape.dropout_ms": "ms",
    "tape.relu_ms": "ms", "tape.row_cosine_ms": "ms", "tape.normalize_rows_ms": "ms",
    "tape.softmax_rows_ms": "ms", "tape.gather_rows_ms": "ms",
    "tape.cross_entropy_rows_ms": "ms", "tape.softmax_cross_entropy_ms": "ms",
    "tape.backward_ms": "ms", "tape.kernel_calls_per_step": "count",
    "model.encode_train_ms": "ms", "model.encode_eval_ms": "ms",
    "model.classify_ms": "ms", "model.load_checkpoint_ms": "ms",
    "evaluation.sim_at_k_ms": "ms",
    "objective.snn_distribution_ms": "ms", "objective.sample_support_ms": "ms",
    "objective.conf_frac": "ratio",
    "trainer.step_ms_p50": "ms", "trainer.step_ms_p95": "ms", "trainer.adam_ms": "ms",
    "trainer.setup_ms": "ms", "process.cpu_ratio": "ratio", "trace.overhead": "ratio",
}


def _synth300(seed: int) -> graphs.Graph:
    return graphs.from_dataset(random_dataset(**SYNTH_KW, seed=seed), "synthetic300")


def _synth_config(root: str):
    return trainer.TrainConfig(**SYNTH_TRAIN)


def _cora_config(root: str):
    values = load_config_file(os.path.join(root, "configs", "cora.cfg"))
    return build_train_config(apply_overrides(values, CORA_OVERRIDES))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: Callable[[int], graphs.Graph]
    config: Callable[[str], trainer.TrainConfig]
    label_rate: float
    splits: int       # split i trains with config seed + i, as run_benchmark does
    jobs: int         # 0: an operation is one fit; else one run_benchmark(jobs=...)
    acc_floor: float  # lowest test accuracy a single fit may reach
    infer_reps: int   # inferences per operation
    min_ops: int      # at least one split runs twice, so its digests can be compared
    setup_procs: int  # fresh processes that time set-up


WORKLOADS = {w.name: w for w in (
    Workload("synth300-fit",
             "test-suite graph: per-step Python overhead dominates, BLAS is idle and "
             "sparse features are bypassed",
             _synth300, _synth_config, 0.02, 8, 0, 0.5, 10, 9, 12),
    Workload("cora-shape",
             "Cora-sized graph: kernel-bound (sparse X.W1, spmm, backward), with a costly "
             "load and a read-only inference path",
             graphs.planted_partition, _cora_config, 0.01, 1, 0, 0.6, 2, 2, 4),
    Workload("synth300-sweep-j2",
             "four-split run_benchmark with two worker processes on two cores: shows the "
             "cost of any change that takes both cores for one fit",
             _synth300, _synth_config, 0.02, 4, 2, 0.5, 30, 2, 6),
)}


def setup(data_dir: str, split_paths: list[str]):
    """What the CLI does before `fit`: load the dataset, parse the splits."""
    ds = data.load_dataset(data_dir)
    splits = []
    for path in split_paths:
        with open(path, encoding="utf-8") as fh:
            splits.append(data.SplitSpec.from_json(fh.read()))
    return ds, splits


def time_setup(data_dir: str, split_paths: list[str], reps: int, seconds: float) -> list[float]:
    """Wall times of set-up, run at least `reps` times and for at least
    `seconds`."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < reps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        setup(data_dir, split_paths)
        times.append(time.perf_counter() - t0)
    return times


# Set-up time depends on where a process's memory lands: the same
# synthetic300 load took 6 ms in some processes and 10 ms in others, and
# always 10.8 ms with address randomization off. So set-up is timed in the
# workload's number of fresh processes, SETUP_PROCS_FIRST of them before the
# operations and the rest spread over the workload's minimum number of
# operations, and setup_s is the mean over processes of each one's median: a
# median over processes would jump from one mode to the other as their mix
# changes from run to run.
SETUP_PROCS_FIRST = 2
SETUP_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")


# ---------------------------------------------------------------------------
# checks: each returns the problems found, empty when the output is right


def loss_digest(history) -> str:
    return hashlib.sha256(np.asarray(history, dtype="<f8").tobytes()).hexdigest()[:16]


def check_fit(result, floor: float, expected_digest: str | None) -> list[str]:
    problems = []
    if not np.all(np.isfinite(np.asarray(result.loss_history, dtype=np.float64))):
        problems.append("non-finite loss")
    if not floor <= result.test_accuracy_at_best_val <= 1.0:
        problems.append(f"test accuracy {result.test_accuracy_at_best_val:.4f} "
                        f"outside [{floor}, 1]")
    digest = loss_digest(result.loss_history)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"loss-history digest {digest} != {expected_digest} for the same seed")
    return problems


def sim_chance(label_ids: np.ndarray) -> float:
    """Expected Sim@K of random neighbours: the chance that another node
    shares the query's label, averaged over queries."""
    counts = np.bincount(label_ids)
    return float(np.mean((counts[label_ids] - 1) / (len(label_ids) - 1)))


def check_inference(test_acc: float, fit_test_acc: float, sims: dict[int, float],
                    chance: float) -> list[str]:
    problems = []
    if test_acc != fit_test_acc:
        problems.append(f"checkpoint test accuracy {test_acc!r} != fit's {fit_test_acc!r}")
    for k, sim in sims.items():
        if not (0.0 <= sim <= 1.0 and sim > chance):
            problems.append(f"Sim@{k} = {sim!r} outside ({chance:.4f}, 1]")
    return problems


def check_sweep(rows: list[tuple], reference: list[tuple | None], floor: float) -> list[int]:
    """Indices of bad splits in a sweep's (test, val, epoch) rows: accuracy
    below `floor`, or a row that differs from its `reference` row (None:
    no reference yet)."""
    return [i for i, (row, ref) in enumerate(zip(rows, reference))
            if not floor <= row[0] <= 1.0 or (ref is not None and row != ref)]


# ---------------------------------------------------------------------------
# one run


# Calibration: fixed work that grafn never runs, timed between operations.
# The host's speed drifts by up to a third over tens of seconds, and an
# operation and the calibration next to it slow down together. End-to-end
# times are reported at a reference speed: wall time x CAL_REF_S /
# calibration time. The calibration mixes Cora-shaped sparse and dense
# products with interpreter and small-array numpy work, the two kinds of
# work that bind the workloads.
CAL_REF_S = 0.12


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = sp.random(2708, 1433, density=0.0127, format="csr", random_state=rng)
        self.adj = sp.random(2708, 2708, density=0.0015, format="csr", random_state=rng)
        self.w1 = rng.random((1433, 128))
        self.w2 = rng.random((128, 128))
        self.small = np.linspace(0.0, 1.0, 300 * 64).reshape(300, 64)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            h = np.maximum(self.adj @ (self.x @ self.w1), 0.0) @ self.w2
            self.x.T @ h
            self.adj.T @ h
        x = 0
        for i in range(400_000):
            x += i
        a = self.small
        for _ in range(400):
            a = np.maximum(a * 0.5 + 0.1, 0.0)
            a = a / (np.linalg.norm(a, axis=1, keepdims=True) + 1.0)
        return time.perf_counter() - t0


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Run:
    wl: Workload
    seed: int
    seconds: float
    trace: bool
    root: str
    workdir: str
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    times: dict[str, list[float]] = field(default_factory=dict)
    ends: dict[str, list[float]] = field(default_factory=dict)
    calibration: Calibration = field(default_factory=Calibration, repr=False)
    calibrations: list[tuple[float, float]] = field(default_factory=list)  # (when, s)
    digests: dict[int, str] = field(default_factory=dict)   # config seed -> digest
    test_accs: dict[int, float] = field(default_factory=dict)
    sweep_rows: list[tuple | None] = field(default_factory=list)
    setup_procs: int = 0
    setup_proc_of: list[int] = field(default_factory=list)  # set-up sample -> its process
    tables: list[dict] = field(default_factory=list)
    cpu: list[tuple[float, float]] = field(default_factory=list)  # (cpu s, wall s)
    worker_cpu: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.failures.append(problem)

    def timed(self, key: str, seconds: float) -> None:
        """Keep a wall time that ended just now."""
        self.times.setdefault(key, []).append(seconds)
        self.ends.setdefault(key, []).append(time.perf_counter())

    def calibrate(self, seconds: float) -> None:
        """Repeat the calibration for about `seconds`; keep the median."""
        start = time.perf_counter()
        units = [self.calibration()]
        while time.perf_counter() - start < seconds:
            units.append(self.calibration())
        self.calibrations.append((start, statistics.median(units)))

    def scaled(self, key: str) -> list[float]:
        """The wall times under `key` at the reference speed, each scaled by
        the mean of the calibrations just before and just after it."""
        when = [c[0] for c in self.calibrations]
        out = []
        for wall, end in zip(self.times.get(key, []), self.ends.get(key, [])):
            k = bisect.bisect_left(when, end - wall)
            near = [c for _, c in self.calibrations[max(k - 1, 0):k + 1]]
            out.append(wall * CAL_REF_S / statistics.mean(near))
        return out

    # -- set-up ----------------------------------------------------------------

    def prepare(self) -> None:
        """Write the dataset and split files, then time load + split parsing."""
        self.data_dir = os.path.join(self.workdir, "data")
        graphs.write_dataset_dir(self.wl.graph(GRAPH_SEED), self.data_dir)
        ds = data.load_dataset(self.data_dir)
        self.split_paths = []
        for i, split in enumerate(data.generate_splits(ds, self.wl.label_rate,
                                                       self.wl.splits, SPLIT_SEED)):
            self.split_paths.append(os.path.join(self.workdir, f"split_{i:03d}.json"))
            with open(self.split_paths[-1], "w", encoding="utf-8") as fh:
                fh.write(split.to_json())

        self.ds, self.splits = setup(self.data_dir, self.split_paths)
        self.calibrate(0.2)
        start = time.perf_counter()
        for _ in range(SETUP_PROCS_FIRST):
            self.time_setup_in_child()
        self.calibrate(0.1 * (time.perf_counter() - start))
        if self.trace:
            self.traced(lambda: setup(self.data_dir, self.split_paths))
        self.cfg = self.wl.config(self.root)
        self.label_ids = self.ds.label_ids()
        self.chance = sim_chance(self.label_ids)

    def time_setup_in_child(self) -> None:
        """Time set-up in a fresh process, at least once and for 0.2 s."""
        self.setup_procs += 1
        proc = subprocess.run(
            [sys.executable, SETUP_CHILD, "1", "0.2", self.data_dir, *self.split_paths],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"timing set-up failed:\n{proc.stderr}")
        for wall in json.loads(proc.stdout.splitlines()[-1]):
            self.timed("setup_s", wall)
            self.setup_proc_of.append(self.setup_procs)

    def traced(self, fn) -> tuple[object, float]:
        """fn() with the tracer installed; returns its result and wall time.
        The spans, the workers' too, go to self.tables."""
        tracer = Tracer(child_dir=os.path.join(self.workdir, "spans"))
        os.makedirs(tracer.child_dir, exist_ok=True)
        tracer.install()
        try:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0
        finally:
            tracer.uninstall()
            self.tables.append(tracer.export())
            for name in sorted(os.listdir(tracer.child_dir)):
                path = os.path.join(tracer.child_dir, name)
                self.tables.append(load_table(path))
                os.remove(path)

    # -- operations ------------------------------------------------------------

    def fit(self, i: int, key: str | None, trace: bool = False):
        """One fit on split i, its time kept under `key`; returns the
        result, or None when it failed."""
        cfg = dataclasses.replace(self.cfg, seed=self.cfg.seed + i)
        self.attempted += 1
        try:
            t0, c0 = time.perf_counter(), _cpu()
            # trainer.fit is looked up at call time, so that a traced call
            # goes through the installed wrapper.
            def call():
                return trainer.fit(self.ds, self.splits[i], cfg)

            result, wall = self.traced(call) if trace else (call(), None)
            wall = wall or time.perf_counter() - t0
        except Exception as exc:  # counted, reported, and the run goes on
            self.fail(1, f"fit split {i}: {type(exc).__name__}: {exc}")
            return None
        if key:
            self.timed(key, wall)
            if not trace:
                self.cpu.append((_cpu() - c0, wall))
        problems = check_fit(result, self.wl.acc_floor, self.digests.get(cfg.seed))
        self.digests.setdefault(cfg.seed, loss_digest(result.loss_history))
        self.test_accs.setdefault(i, result.test_accuracy_at_best_val)
        if problems:
            self.fail(1, f"fit split {i}: " + "; ".join(problems))
            return None
        return result

    def infer(self, i: int, result, trace: bool = False) -> None:
        """Checkpoint round trip, clean-graph embed and predict, Sim@K."""
        path = os.path.join(self.workdir, "checkpoint.bin")
        model.save_checkpoint(path, result.params)
        split = self.splits[i]

        def once():
            params = model.load_checkpoint(path)
            _, encoder, head = model.build_from_checkpoint(params)
            x = trainer.prepare_features(self.ds, self.cfg)
            tape = Tape()
            z = encoder.encode(tape, data.normalize_adjacency(self.ds.adj), x, training=False)
            pred = np.argmax(head.classify(tape, z).data, axis=1)
            acc = float(np.mean(pred[split.test] == self.label_ids[split.test]))
            return acc, {k: evaluation.sim_at_k(z.data, self.label_ids, k) for k in SIM_KS}

        for rep in range(self.wl.infer_reps + (1 if trace else 0)):
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                acc, sims = self.traced(once)[0] if rep == self.wl.infer_reps else once()
                wall = time.perf_counter() - t0
            except Exception as exc:  # counted, reported, and the run goes on
                self.fail(1, f"inference split {i}: {type(exc).__name__}: {exc}")
                continue
            if rep < self.wl.infer_reps:
                self.timed("infer_s", wall)
            problems = check_inference(acc, result.test_accuracy_at_best_val, sims, self.chance)
            if problems:
                self.fail(1, f"inference split {i}: " + "; ".join(problems))

    def sweep(self, trace: bool = False) -> None:
        n = self.wl.splits
        self.attempted += n

        def call():
            return evaluation.run_benchmark(self.ds, self.wl.label_rate, n, self.cfg,
                                            SPLIT_SEED, jobs=self.wl.jobs)

        try:
            t0 = time.perf_counter()
            c0, w0 = _cpu(), os.times().children_user + os.times().children_system
            report, wall = self.traced(call) if trace else (call(), None)
            wall = wall or time.perf_counter() - t0
        except Exception as exc:  # counted, reported, and the run goes on
            self.fail(n, f"sweep: {type(exc).__name__}: {exc}")
            return
        self.timed("sweep_traced_s" if trace else "sweep_s", wall)
        if not trace:
            self.cpu.append((_cpu() - c0, wall))
            children = os.times().children_user + os.times().children_system - w0
            self.worker_cpu.append(children / (self.wl.jobs * wall))
        rows = list(zip(report.accuracies, report.val_accuracies, report.best_epochs))
        bad = check_sweep(rows, self.sweep_rows, self.wl.acc_floor)
        self.sweep_rows = [ref if ref is not None else row
                           for ref, row in zip(self.sweep_rows, rows)]
        if bad:
            self.fail(len(bad), f"sweep splits {bad}: accuracy below "
                      f"{self.wl.acc_floor} or result differs from the first sweep")

    # -- the loop --------------------------------------------------------------

    def warm_up(self) -> None:
        """A short untimed fit: the first fit in a process runs about 20%
        slower."""
        cfg = dataclasses.replace(self.cfg, max_epochs=min(self.cfg.max_epochs, 10))
        self.attempted += 1
        try:
            trainer.fit(self.ds, self.splits[0], cfg)
        except Exception as exc:  # counted, reported, and the run goes on
            self.fail(1, f"warm-up fit: {type(exc).__name__}: {exc}")

    def measure(self) -> None:
        self.sweep_rows = [None] * self.wl.splits
        warm = None
        if self.wl.jobs:
            # The untimed full fit of split 0 warms up, gives the checkpoint
            # for inference, and is the row that the sweep's split 0 must
            # match; later sweeps must match the first.
            warm = self.fit(0, None)
            if warm is not None:
                self.sweep_rows[0] = (warm.test_accuracy_at_best_val,
                                      warm.best_val_accuracy, warm.epoch_of_best)
        else:
            self.warm_up()
        start = time.perf_counter()
        ops = 0
        while True:
            # About a tenth of an operation's time goes to calibration, so
            # the longer an operation, the steadier the calibration beside it.
            self.calibrate(0.1 * (time.perf_counter() - start) / ops if ops else 0.2)
            # The set-up processes still to come, spread over the workload's
            # minimum number of operations.
            left = max(self.wl.setup_procs - self.setup_procs, 0)
            for _ in range(math.ceil(left / max(self.wl.min_ops - ops, 1))):
                self.time_setup_in_child()
            op_start = time.perf_counter()
            if self.wl.jobs:
                self.sweep()
                if self.trace:
                    self.sweep(trace=True)
                if warm is not None:
                    self.infer(0, warm, trace=self.trace)
            else:
                i = (self.seed + ops) % self.wl.splits
                result = self.fit(i, "fit_s")
                if self.trace:
                    self.fit(i, "fit_traced_s", trace=True)
                if result is not None:
                    self.infer(i, result, trace=self.trace)
            ops += 1
            if ops == self.wl.min_ops:
                # Taken after a fixed amount of work: the peak creeps up with
                # every further fit, and their number depends on machine speed.
                self.peak_rss_mb = self.rss_mb()
            now = time.perf_counter()
            elapsed = now - start
            # Stop when one more operation like this one, with its share of
            # calibration, would end past the run's time.
            if ops >= self.wl.min_ops and elapsed + 1.1 * (now - op_start) > self.seconds:
                break
        self.calibrate(0.1 * elapsed / ops)

    # -- results ---------------------------------------------------------------

    def rss_mb(self) -> float:
        """Peak resident memory so far; on the sweep, plus the largest worker's."""
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.wl.jobs:
            kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return kb / 1024.0

    def metrics(self) -> dict[str, tuple[float, str, int]]:
        """Every metric: name -> (value, unit, samples)."""
        t = self.times
        out = {}
        for name, times in (("setup_s", self.scaled("setup_s")),
                            ("setup_wall_s", t.get("setup_s", []))):
            by_proc: dict[int, list[float]] = {}
            for proc, x in zip(self.setup_proc_of, times):
                by_proc.setdefault(proc, []).append(x)
            out[name] = (statistics.mean(_median(xs) for xs in by_proc.values())
                         if by_proc else 0.0, "s", len(by_proc))
        keys = ["sweep_s" if self.wl.jobs else "fit_s", "infer_s"]
        for key in keys:
            out[key] = (_median(self.scaled(key)), "s", len(t.get(key, [])))
        for key in keys:
            out[key.replace("_s", "_wall_s")] = (_median(t.get(key, [])), "s", len(t.get(key, [])))
        if self.wl.jobs:
            sweep = out["sweep_s"]
            out["fit_s"] = (sweep[0] / self.wl.splits, "s", sweep[2])
            accs = [r[0] for r in self.sweep_rows if r is not None]
        else:
            accs = [self.test_accs[i] for i in sorted(self.test_accs)]
        out["calibration_s"] = (_median([c for _, c in self.calibrations]), "s",
                                len(self.calibrations))
        out["test_acc"] = (float(np.mean(accs)) if accs else 0.0, "ratio", len(accs))
        out["peak_rss_mb"] = (self.peak_rss_mb, "MB", 1)
        out["failed_frac"] = (self.failed / max(self.attempted, 1), "ratio", self.attempted)
        if self.trace:
            out.update(layer_metrics(self.tables))
            cpu, wall = (sum(x) for x in zip(*self.cpu)) if self.cpu else (0.0, 1.0)
            out["process.cpu_ratio"] = (cpu / wall, "ratio", len(self.cpu))
            key = "sweep" if self.wl.jobs else "fit"
            plain, traced = t.get(f"{key}_s", []), t.get(f"{key}_traced_s", [])
            out["trace.overhead"] = (
                _median(traced) / _median(plain) if plain and traced else 0.0,
                "ratio", len(traced))
            if self.wl.jobs:
                out["evaluation.worker_cpu_frac"] = (
                    _median(self.worker_cpu), "ratio", len(self.worker_cpu))
        return out


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: str,
        workdir: str) -> Run:
    r = Run(wl, seed, seconds, trace, root, workdir)
    r.prepare()
    r.measure()
    return r
