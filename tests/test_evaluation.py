import numpy as np
import pytest

from grafn import (
    ConfigError,
    DivergenceError,
    NumericsError,
    TrainConfig,
    run_benchmark,
    sim_at_k,
)
from grafn import evaluation, trainer
from grafn.evaluation import (
    ABLATION_VARIANTS,
    BenchReport,
    ablation_suite,
    config_fingerprint,
    degree_accuracy_report,
)
from tests.conftest import make_dataset


# ---------------------------------------------------------------------------
# sim@k


def test_sim_at_k_single_label_is_one():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((12, 5))
    assert sim_at_k(z, np.zeros(12, dtype=int), 4) == 1.0


def test_sim_at_k_two_orthogonal_clusters():
    rng = np.random.default_rng(1)
    z = np.zeros((10, 6))
    z[:5, :3] = np.abs(rng.random((5, 3))) + 0.5   # cluster A in first coords
    z[5:, 3:] = np.abs(rng.random((5, 3))) + 0.5   # cluster B orthogonal
    labels = np.array([0] * 5 + [1] * 5)
    assert sim_at_k(z, labels, 4) == 1.0


def test_sim_at_k_k_too_large():
    # k must lie in [1, n): k=0 would average nothing, a negative k would
    # keep n+k neighbours
    for k in (5, 6, 0, -3):
        with pytest.raises(ConfigError, match=f"k={k}"):
            sim_at_k(np.ones((5, 2)), np.zeros(5, dtype=int), k)


def test_sim_at_k_rejects_empty_query_set():
    with pytest.raises(NumericsError, match="query set is empty"):
        sim_at_k(np.ones((5, 2)), np.zeros(5, dtype=int), 2, query_nodes=np.array([], int))


@pytest.mark.parametrize("query", [[-1], [5], [0, 5]])
def test_sim_at_k_rejects_query_outside_node_range(query):
    with pytest.raises(NumericsError, match=r"outside \[0, 5\)"):
        sim_at_k(np.eye(5, 2) + 1.0, np.zeros(5, dtype=int), 2, query_nodes=np.array(query))


@pytest.mark.parametrize("row, shown", [
    ([0.0, 0.0, 0.0, 0.0], "0.0"),
    ([1.0, np.nan, 0.0, 0.0], "nan"),
    ([1.0, np.inf, 0.0, 0.0], "inf"),
])
def test_sim_at_k_rejects_zero_or_non_finite_row(row, shown):
    z = np.random.default_rng(4).standard_normal((20, 4))
    z[3] = row
    with pytest.raises(NumericsError, match=f"row 3 has zero or non-finite norm {shown}"):
        sim_at_k(z, np.arange(20) % 3, 5)


def test_sim_at_k_scale_invariance():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((15, 4))
    labels = rng.integers(0, 3, 15)
    base = sim_at_k(z, labels, 5)
    scaled = z * rng.uniform(0.1, 10.0, size=(15, 1))
    assert sim_at_k(scaled, labels, 5) == pytest.approx(base, abs=1e-10)


def test_sim_at_k_excludes_self_and_breaks_ties_low():
    # identical embeddings: every similarity ties; low indices win
    z = np.ones((6, 3))
    labels = np.array([0, 0, 1, 1, 1, 1])
    # node 0's 2-NN under tie-break: nodes 1, 2 -> half share label 0
    out = sim_at_k(z, labels, 2, query_nodes=np.array([0]))
    assert out == pytest.approx(0.5)


def test_sim_at_k_query_subset_and_blocking(monkeypatch):
    rng = np.random.default_rng(3)
    z = rng.standard_normal((40, 6))
    labels = rng.integers(0, 2, 40)
    again = sim_at_k(z, labels, 3)
    monkeypatch.setattr(evaluation, "QUERY_BLOCK", 7)
    full = sim_at_k(z, labels, 3)
    assert full == pytest.approx(again, abs=1e-12)


# ---------------------------------------------------------------------------
# degree report


def test_degree_report_star_hub_only_correct():
    # star: hub degree 9 (bucket >=7), leaves degree 1; predictor always says 0
    labels = [0] + [1] * 9
    ds = make_dataset(10, [(0, i) for i in range(1, 10)], labels, 2)
    report = degree_accuracy_report(ds, np.zeros(10, dtype=int), np.arange(10), [7])
    assert report["buckets"][1]["accuracy"] == 1.0
    assert report["buckets"][0]["accuracy"] == 0.0
    assert report["buckets"][1]["population"] == 1


def test_degree_report_perfect_predictor_and_empty_bucket():
    ds = make_dataset(6, [], [0, 1, 2, 0, 1, 2], 3)
    report = degree_accuracy_report(ds, ds.labels, np.arange(6), [2, 5])
    assert report["buckets"][0]["accuracy"] == 1.0       # all nodes: degree 0
    assert report["buckets"][1]["accuracy"] is None      # empty -> null
    assert report["buckets"][2]["accuracy"] is None


# ---------------------------------------------------------------------------
# benchmark aggregation


@pytest.fixture(scope="module")
def bench_ds():
    from grafn import random_dataset

    return random_dataset(60, num_classes=3, num_features=24, p_in=0.2,
                          p_out=0.03, feature_signal=0.5, seed=6)


def bench_cfg(**kw):
    defaults = dict(hidden_dim=16, embed_dim=16, max_epochs=10, dropout=0.1,
                    learning_rate=0.01, seed=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_benchmark_single_split_mean_is_run(bench_ds):
    report = run_benchmark(bench_ds, 0.1, 1, bench_cfg(), base_seed=5)
    assert report.mean == report.accuracies[0]
    assert report.std == 0.0
    assert len(report.split_seeds) == 1 and report.split_seeds[0] == 5


def test_benchmark_mean_recomputable(bench_ds):
    report = run_benchmark(bench_ds, 0.1, 3, bench_cfg(), base_seed=1)
    assert report.mean == pytest.approx(float(np.mean(report.accuracies)), abs=1e-12)
    assert len(report.accuracies) == 3
    lines = report.csv_lines()
    assert lines[0].startswith("split_index,")
    assert len(lines) == 4


def test_benchmark_fingerprint_tracks_config(bench_ds):
    a = config_fingerprint(bench_cfg())
    b = config_fingerprint(bench_cfg())
    c = config_fingerprint(bench_cfg(learning_rate=0.02))
    assert a == b and a != c


def test_benchmark_parallel_matches_sequential(bench_ds):
    cfg = bench_cfg(max_epochs=6)
    seq = run_benchmark(bench_ds, 0.1, 2, cfg, base_seed=3)
    par = run_benchmark(bench_ds, 0.1, 2, cfg, base_seed=3, jobs=2)
    assert seq.accuracies == par.accuracies
    assert seq.to_dict() == par.to_dict()


@pytest.mark.parametrize("sweep, jobs, n_splits, workers", [
    pytest.param("bench", 64, 2, 2, id="64-2-2"),
    pytest.param("bench", 2, 3, 2, id="2-3-2"),
    pytest.param("ablate", 64, 2, 8, id="ablate-64-2-8"),
    pytest.param("ablate", 2, 3, 2, id="ablate-2-3-2"),
])
def test_benchmark_starts_at_most_one_worker_per_split(bench_ds, monkeypatch, sweep, jobs,
                                                       n_splits, workers):
    """One pool and one split draw per call, the pool sized min(jobs, fits):
    n_splits fits for a benchmark, four per split for the ablation. The
    recording pool maps in this process, so no worker starts."""
    import multiprocessing.context

    sizes = []

    class RecordingPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool",
                        lambda ctx, *args, **kw: RecordingPool(*args, **kw))
    monkeypatch.setattr(evaluation, "_WORKER_CTX", {})
    draws = []
    generate_splits = evaluation.generate_splits
    monkeypatch.setattr(evaluation, "generate_splits",
                        lambda *args: draws.append(args) or generate_splits(*args))
    cfg = bench_cfg(max_epochs=4)

    def run(**kw):
        if sweep == "bench":
            return run_benchmark(bench_ds, 0.1, n_splits, cfg, base_seed=3, **kw).to_dict()
        return ablation_suite(bench_ds, 0.1, n_splits, cfg, base_seed=3, **kw)

    par = run(jobs=jobs)
    assert sizes == [workers] and len(draws) == 1
    assert par == run()


@pytest.mark.parametrize("jobs", [1, 2])
def test_benchmark_error_names_split_seed(bench_ds, monkeypatch, jobs):
    supervised_loss = trainer.supervised_loss
    monkeypatch.setattr(trainer, "supervised_loss",
                        lambda tape, *args: tape.scale(supervised_loss(tape, *args), np.nan))
    message = "^split seed 3: non-finite total loss at epoch 1$"
    with pytest.raises(DivergenceError, match=message) as err:
        run_benchmark(bench_ds, 0.1, 1, bench_cfg(max_epochs=2), base_seed=3, jobs=jobs)
    assert err.value.history  # the partial loss history survives, across the pool too


def test_ablation_rows_share_splits_and_reduce_correctly(bench_ds):
    import dataclasses

    cfg = bench_cfg(max_epochs=6)
    table = ablation_suite(bench_ds, 0.1, 2, cfg, base_seed=4)
    variants = table["variants"]
    assert list(variants) == list(ABLATION_VARIANTS)
    seeds = {name: tuple(v["split_seeds"]) for name, v in variants.items()}
    assert len(set(seeds.values())) == 1
    # each row is, on every key, the benchmark of its variant's config
    for name, lambdas in ABLATION_VARIANTS.items():
        direct = run_benchmark(bench_ds, 0.1, 2, dataclasses.replace(cfg, **lambdas), base_seed=4)
        assert variants[name] == direct.to_dict(), name


def test_bench_report_roundtrip_dict():
    report = BenchReport(
        dataset="x", label_rate=0.1, split_seeds=[1, 2],
        accuracies=[0.5, 0.7], val_accuracies=[0.6, 0.8],
        best_epochs=[3, 4], fingerprint="abc",
    )
    d = report.to_dict()
    assert d["mean_test_accuracy"] == pytest.approx(0.6)
    assert d["n_splits"] == 2
