"""Aggregate metrics: multi-split benchmarks, similarity search, degree
breakdown, and the loss-ablation table."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .data import GraphDataset, SplitSpec, degree_buckets, generate_splits
from .errors import ConfigError, GrafnError, NumericsError
from .config import TrainConfig
from .trainer import fit

QUERY_BLOCK = 512  # sim_at_k's queries per similarity block


def config_fingerprint(cfg: TrainConfig) -> str:
    """First 16 hex digits of the SHA-256 of the flat record as sorted-key
    JSON: readers can recompute it from an artifact's `effective_config`."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class BenchReport:
    dataset: str
    label_rate: float
    split_seeds: list[int]
    accuracies: list[float]
    val_accuracies: list[float]
    best_epochs: list[int]
    fingerprint: str

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))  # population std: stable for n=1

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "label_rate": self.label_rate,
            "n_splits": len(self.accuracies),
            "mean_test_accuracy": self.mean,
            "std_test_accuracy": self.std,
            "split_seeds": self.split_seeds,
            "test_accuracies": self.accuracies,
            "val_accuracies": self.val_accuracies,
            "best_epochs": self.best_epochs,
            "config_fingerprint": self.fingerprint,
        }

    def csv_lines(self) -> list[str]:
        lines = ["split_index,split_seed,test_accuracy,best_val_accuracy,epoch_of_best"]
        for i, (seed, acc, val, ep) in enumerate(
            zip(self.split_seeds, self.accuracies, self.val_accuracies, self.best_epochs)
        ):
            lines.append(f"{i},{seed},{acc!r},{val!r},{ep}")
        return lines


def _fit_split(ds: GraphDataset, cfg: TrainConfig, i: int,
               split: SplitSpec) -> tuple[float, float, int]:
    """Run i of a benchmark: fit() with seed cfg.seed + i; an error names
    the split seed."""
    try:
        result = fit(ds, split, dataclasses.replace(cfg, seed=cfg.seed + i))
    except GrafnError as exc:  # the same exception: a DivergenceError keeps its history
        exc.args = (f"split seed {split.seed}: {exc}",)
        raise
    return result.test_accuracy_at_best_val, result.best_val_accuracy, result.epoch_of_best


# set once per pool worker, so the dataset is not pickled once per task
_WORKER_CTX: dict = {}


def _worker_init(ds):
    _WORKER_CTX["ds"] = ds


def _worker_fit(task):
    return _fit_split(_WORKER_CTX["ds"], *task)


def _sweep(ds: GraphDataset, label_rate: float, n_splits: int, cfgs: list[TrainConfig],
           base_seed: int, jobs: int) -> list[BenchReport]:
    """One report per config: fit() once per generated split, run i with seed
    cfg.seed + i. The splits are drawn once, and jobs > 1 maps every fit,
    config-major, over one pool of min(jobs, fits) processes."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    splits = generate_splits(ds, label_rate, n_splits, base_seed)
    tasks = [(cfg, i, split) for cfg in cfgs for i, split in enumerate(splits)]
    if jobs > 1:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        with ctx.Pool(min(jobs, len(tasks)), initializer=_worker_init,
                      initargs=(ds,)) as pool:
            rows = pool.map(_worker_fit, tasks)
    else:
        rows = [_fit_split(ds, *task) for task in tasks]
    columns = [list(column) for column in zip(*rows)]  # accuracies, val_accuracies, best_epochs
    return [BenchReport(ds.name, label_rate, [split.seed for split in splits],
                        *(column[k * n_splits:(k + 1) * n_splits] for column in columns),
                        config_fingerprint(cfg)) for k, cfg in enumerate(cfgs)]


def run_benchmark(
    ds: GraphDataset,
    label_rate: float,
    n_splits: int,
    cfg: TrainConfig,
    base_seed: int,
    jobs: int = 1,
) -> BenchReport:
    """fit() once per generated split; run i trains with seed cfg.seed + i.
    jobs > 1 fits the splits over one pool of min(jobs, n_splits) processes;
    the aggregate is identical to the sequential result."""
    return _sweep(ds, label_rate, n_splits, [cfg], base_seed, jobs)[0]


def sim_at_k(
    z: np.ndarray,
    label_ids: np.ndarray,
    k: int,
    query_nodes: np.ndarray | None = None,
) -> float:
    """Mean fraction of each query's k cosine-nearest neighbors (self
    excluded, ties toward the lower index) sharing the query's label.

    The neighbours are selected, not sorted, for QUERY_BLOCK queries at a
    time. A row of n entries is split into g = max(k, min(128, n // 8)) column
    groups of about 8 entries below n = 1024 (column c in group c mod g), so
    k <= g < n; the k-th largest of the g group maxima bounds the row's k-th
    largest similarity from below, and `np.partition` finds it exactly among
    the entries at or above the bound. Only the entries at or above the k-th
    value are ranked, those above it first and then its ties, in index order.
    """
    n = z.shape[0]
    if not 1 <= k < n:
        raise ConfigError(f"k={k} must be at least 1 and smaller than the node count {n}")
    if query_nodes is None:
        query_nodes = np.arange(n)
    if len(query_nodes) == 0:
        raise NumericsError("sim_at_k: the query set is empty")
    if np.min(query_nodes) < 0 or np.max(query_nodes) >= n:
        raise NumericsError(f"sim_at_k: a query node is outside [0, {n})")
    norms = np.linalg.norm(z, axis=1)
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if bad.size:
        raise NumericsError(
            f"sim_at_k: embedding row {bad[0]} has zero or non-finite norm {norms[bad[0]]}"
        )
    zn = z / norms[:, None]
    g = max(k, min(128, n // 8))
    full = n - n % g
    buf = np.empty((min(QUERY_BLOCK, len(query_nodes)), n), dtype=zn.dtype)
    fractions = np.empty(len(query_nodes))
    for start in range(0, len(query_nodes), QUERY_BLOCK):
        q = query_nodes[start:start + QUERY_BLOCK]
        b = len(q)
        sims = np.matmul(zn[q], zn.T, out=buf[:b])
        sims[np.arange(b), q] = -np.inf
        flat = sims.ravel()
        top = sims[:, :full].reshape(b, -1, g).max(axis=1)
        np.maximum(top[:, :n - full], sims[:, full:], out=top[:, :n - full])
        bound = np.partition(top, g - k, axis=1)[:, g - k]
        # row-major candidates, at least k per row; pad to the widest with -inf
        idx = np.flatnonzero(sims >= bound[:, None])
        rows = idx // n
        first = np.searchsorted(rows, np.arange(b + 1))
        width = np.diff(first).max()
        cand = np.full((b, width), -np.inf)
        cand[rows, np.arange(len(idx)) - first[rows]] = flat[idx]
        kth = np.partition(cand, width - k, axis=1)[:, width - k]
        idx = idx[flat[idx] >= kth[rows]]
        # row-major; per row at least k entries, fewer than k above kth
        rows = idx // n
        idx = idx[np.argsort(2 * rows + (flat[idx] == kth[rows]), kind="stable")]
        first = np.searchsorted(rows, np.arange(b))
        nbrs = idx[first[:, None] + np.arange(k)] % n
        same = label_ids[nbrs] == label_ids[q][:, None]
        fractions[start:start + b] = np.count_nonzero(same, axis=1) / k
    return float(np.mean(fractions))


def degree_accuracy_report(
    ds: GraphDataset,
    pred: np.ndarray,
    test_set: np.ndarray,
    boundaries: list[int],
) -> dict:
    """Accuracy of the per-node predictions `pred` in each raw-degree bucket
    of the test set; empty buckets get null accuracy rather than zero."""
    buckets = degree_buckets(ds, boundaries)
    rows = []
    n_buckets = len(boundaries) + 1
    labels_txt = (
        [f"<{boundaries[0]}"]
        + [f"[{a},{b})" for a, b in zip(boundaries, boundaries[1:])]
        + [f">={boundaries[-1]}"]
    )
    for bucket in range(n_buckets):
        members = test_set[buckets[test_set] == bucket]
        acc = (
            float(np.mean(pred[members] == ds.labels[members])) if len(members) else None
        )
        rows.append({
            "bucket": bucket,
            "degree_range": labels_txt[bucket],
            "population": int(len(members)),
            "accuracy": acc,
        })
    return {"boundaries": list(boundaries), "buckets": rows}


ABLATION_VARIANTS = {
    "full": {},
    "no_label_consistency": dict(lambda2=0.0),
    "no_node_consistency": dict(lambda1=0.0),
    "supervised_only": dict(lambda1=0.0, lambda2=0.0),
}


def ablation_suite(
    ds: GraphDataset,
    label_rate: float,
    n_splits: int,
    base_cfg: TrainConfig,
    base_seed: int,
    jobs: int = 1,
) -> dict:
    """Benchmark the loss-coefficient ablations over splits and training seeds drawn
    once: row v is run_benchmark of v's config, and jobs > 1 starts one pool in all."""
    cfgs = [dataclasses.replace(base_cfg, **lambdas) for lambdas in ABLATION_VARIANTS.values()]
    reports = _sweep(ds, label_rate, n_splits, cfgs, base_seed, jobs)
    return {
        "dataset": ds.name,
        "label_rate": label_rate,
        "base_seed": base_seed,
        "variants": {name: r.to_dict() for name, r in zip(ABLATION_VARIANTS, reports)},
    }
