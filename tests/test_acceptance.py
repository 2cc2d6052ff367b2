"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria that need the real citation datasets (4-8, 10) skip with an
explanation when the converted directories are absent; set GRAFN_DATA_DIR
(or populate ./data) after running `grafn convert` on the raw files. The
synthetic analogs at the bottom exercise the same pipelines end-to-end at
desk scale and run unconditionally.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from grafn import (
    TrainConfig,
    fit,
    generate_splits,
    load_dataset,
    random_dataset,
    sim_at_k,
    write_dataset,
)
from grafn import trainer
from grafn.cli import main as cli_main
from grafn.config import build_train_config, load_config_file
from grafn.evaluation import ablation_suite, degree_accuracy_report, run_benchmark
from grafn.model import build_from_checkpoint, embed, init_params, predict
from grafn.objective import SupportSet, sample_support, snn_distribution
from grafn.sparse import normalize_adjacency
from grafn.tape import Tape
from grafn.trainer import build_step_loss, prepare_features

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_ROOT = os.environ.get("GRAFN_DATA_DIR", os.path.join(ROOT, "data"))
TEST_JOBS = int(os.environ.get("GRAFN_TEST_JOBS", "1"))


def dataset_dir(name):
    path = os.path.join(DATA_ROOT, name)
    if os.path.isfile(os.path.join(path, "meta.json")):
        return path
    return None


CORA = dataset_dir("cora")
CITESEER = dataset_dir("citeseer")

needs_cora = pytest.mark.skipif(
    CORA is None,
    reason=f"converted Cora dataset not found under {DATA_ROOT}; "
    "run `grafn convert cora.content cora.cites <dir>` and set GRAFN_DATA_DIR",
)
needs_citeseer = pytest.mark.skipif(
    CITESEER is None,
    reason=f"converted Citeseer dataset not found under {DATA_ROOT}; "
    "run `grafn convert citeseer.content citeseer.cites <dir>` and set GRAFN_DATA_DIR",
)


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def shipped_config(name) -> TrainConfig:
    return build_train_config(load_config_file(os.path.join(ROOT, "configs", name)))


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_01_gradient_correctness(capsys):
    start = time.time()
    rc = cli_main(["gradcheck", "--size", "20", "--seed", "0"])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    print(out)
    report(
        1,
        "gradcheck, 20-node graph, full objective, nu in {0, 0.9}, rel err < 1e-4",
        rc == 0 and elapsed < 10.0,
        f"exit {rc}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: SNN oracle equivalence


def _snn_brute_force(z, support_idx, y_support, tau):
    """Two-loop evaluation straight from the class-assignment formula."""
    n, c = z.shape[0], y_support.shape[1]
    out = np.zeros((n, c))
    for i in range(n):
        weights = np.zeros(len(support_idx))
        for pos, j in enumerate(support_idx):
            cos = z[i] @ z[j] / (np.linalg.norm(z[i]) * np.linalg.norm(z[j]))
            weights[pos] = np.exp(cos / tau)
        weights /= weights.sum()
        for pos in range(len(support_idx)):
            out[i] += weights[pos] * y_support[pos]
    return out


def test_criterion_02_snn_matches_brute_force():
    worst = 0.0
    worst_sum = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        c = int(rng.integers(2, min(n, 5)))
        d = int(rng.integers(2, 7))
        b = int(rng.integers(1, max(2, n // c)))
        z = rng.standard_normal((n, d))
        idx = rng.choice(n, size=b * c, replace=False)
        y = np.zeros((b * c, c))
        y[np.arange(b * c), np.repeat(np.arange(c), b)] = 1.0
        tau = float(rng.uniform(0.05, 1.0))
        support = SupportSet(indices=idx, y_support=y)
        tape = Tape()
        p = snn_distribution(tape, tape.normalize_rows(z), support, tau).data
        oracle = _snn_brute_force(z, idx, y, tau)
        worst = max(worst, np.abs(p - oracle).max())
        worst_sum = max(worst_sum, np.abs(p.sum(axis=1) - 1.0).max())
        assert np.all(p >= 0.0)
    report(
        2,
        "SNN equals two-loop brute force on 100 random instances",
        worst < 1e-12 and worst_sum < 1e-10,
        f"max dev {worst:.2e}, max row-sum dev {worst_sum:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 3: stop-gradient semantics


def undetached_label_consistency(tape, p_pred, p_target, labels, labeled, v_conf):
    """Reference L_LC whose SNN target rows stay on the tape: the terms of
    `label_consistency_loss`, without its stop-gradient guard."""
    l_lc = tape.cross_entropy_rows(labels[labeled], tape.gather_rows(p_pred, labeled))
    if len(v_conf):
        l_lc = tape.add(
            tape.cross_entropy_rows(
                tape.gather_rows(p_target, v_conf), tape.gather_rows(p_pred, v_conf)
            ),
            l_lc,
        )
    return l_lc


def test_criterion_03_stop_gradient_semantics(monkeypatch):
    ds = random_dataset(20, num_classes=3, num_features=12, p_in=0.3, p_out=0.1, seed=2)
    split = generate_splits(ds, 0.15, 1, 2)[0]

    # (a) a loss reached only through the detached target moves no parameter
    tape = Tape()
    encoder, _ = init_params(tape, ds.num_features, 6, 6, ds.class_count, 0.0,
                             np.random.default_rng(3))
    adj_norm = normalize_adjacency(ds.adj)
    z = encoder.encode(tape, adj_norm, ds.features, training=False)
    support = sample_support(split, ds.labels, ds.class_count,
                             np.random.default_rng(4))
    p_live = snn_distribution(tape, tape.normalize_rows(z), support, tau=0.1)
    # non-uniform constant prediction: a uniform one would make the target
    # gradient vanish through the softmax regardless of detachment
    const_pred = np.tile(
        np.array([[0.7, 0.2, 0.1]]), (p_live.data.shape[0], 1)
    )

    loss_detached = tape.cross_entropy_rows(tape.detach(p_live), const_pred)
    tape.backward(loss_detached)
    zero_through_detach = all(
        np.all(p.grad == 0.0) for p in tape.parameters.values()
    )

    tape.new_step()
    z = encoder.encode(tape, adj_norm, ds.features, training=False)
    p_live = snn_distribution(tape, tape.normalize_rows(z), support, tau=0.1)
    loss_live = tape.cross_entropy_rows(p_live, const_pred)
    tape.backward(loss_live)
    nonzero_when_undetached = any(
        np.abs(p.grad).max() > 1e-12 for p in tape.parameters.values()
    )
    assert loss_detached.item() == loss_live.item()

    # (b) regression on the full step objective: removing the detachment
    # changes the parameter gradients
    grads = {}
    unlabeled = np.setdiff1d(np.arange(ds.num_nodes), split.labeled)
    for variant in ("detached", "live"):
        t2 = Tape()
        enc2, head2 = init_params(t2, ds.num_features, 6, 6, ds.class_count, 0.1,
                                  np.random.default_rng(5))
        with monkeypatch.context() as m:
            if variant == "live":
                m.setattr(trainer, "label_consistency_loss", undetached_label_consistency)
                m.setattr(Tape, "detach", lambda tape, x: x)
            total, _ = build_step_loss(
                t2, ds, split, enc2, head2, TrainConfig(nu=0.0), np.random.default_rng(6),
                prepare_features(ds, TrainConfig()), unlabeled,
            )
        t2.backward(total)
        grads[variant] = {n: p.grad.copy() for n, p in t2.parameters.items()}
    max_diff = max(
        np.abs(grads["detached"][n] - grads["live"][n]).max() for n in grads["detached"]
    )
    report(
        3,
        "stop-gradient blocks the target branch; removing it changes gradients",
        zero_through_detach and nonzero_when_undetached and max_diff > 1e-8,
        f"grad diff {max_diff:.2e}",
    )


# ---------------------------------------------------------------------------
# criteria 4-8, 10: real citation datasets (skip without data)


@pytest.fixture(scope="module")
def cora_ds():
    return load_dataset(CORA)


@pytest.fixture(scope="module")
def citeseer_ds():
    return load_dataset(CITESEER)


@pytest.fixture(scope="module")
def cora_benchmarks(cora_ds):
    cfg = shipped_config("cora.cfg")
    start = time.time()
    full = run_benchmark(cora_ds, 0.005, 20, cfg, base_seed=0, jobs=TEST_JOBS)
    sup_cfg = dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0)
    sup = run_benchmark(cora_ds, 0.005, 20, sup_cfg, base_seed=0, jobs=TEST_JOBS)
    return full, sup, time.time() - start


@needs_cora
def test_criterion_04_cora_half_percent(cora_benchmarks):
    full, sup, elapsed = cora_benchmarks
    gap = full.mean - sup.mean
    report(
        4,
        "Cora 0.5%, 20 splits: mean >= 0.62 and >= baseline + 0.05",
        full.mean >= 0.62 and gap >= 0.05 and elapsed < 900.0,
        f"mean {full.mean:.4f}, baseline {sup.mean:.4f}, gap {gap:+.4f}, {elapsed:.0f}s",
    )


@needs_citeseer
def test_criterion_05_citeseer_one_percent(citeseer_ds):
    cfg = shipped_config("citeseer.cfg")
    full = run_benchmark(citeseer_ds, 0.01, 20, cfg, base_seed=0, jobs=TEST_JOBS)
    sup_cfg = dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0)
    sup = run_benchmark(citeseer_ds, 0.01, 20, sup_cfg, base_seed=0, jobs=TEST_JOBS)
    gap = full.mean - sup.mean
    report(
        5,
        "Citeseer 1%, 20 splits: mean >= 0.61 and >= baseline + 0.06",
        full.mean >= 0.61 and gap >= 0.06,
        f"mean {full.mean:.4f}, baseline {sup.mean:.4f}, gap {gap:+.4f}",
    )


@needs_cora
def test_criterion_06_cora_ablation_ordering(cora_ds, cora_benchmarks):
    cfg = shipped_config("cora.cfg")
    full, _, _ = cora_benchmarks
    means = {}
    for name, lam in (("no_label_consistency", dict(lambda2=0.0)),
                      ("no_node_consistency", dict(lambda1=0.0))):
        variant = dataclasses.replace(cfg, **lam)
        means[name] = run_benchmark(cora_ds, 0.005, 20, variant, base_seed=0,
                                    jobs=TEST_JOBS).mean
    ok = all(full.mean >= m + 0.01 for m in means.values())
    report(
        6,
        "Cora ablations: full beats each single-loss variant by >= 0.01",
        ok,
        f"full {full.mean:.4f} vs {means}",
    )


@needs_cora
def test_criterion_07_cora_similarity_search(cora_ds):
    cfg = shipped_config("cora.cfg")
    split = generate_splits(cora_ds, 0.005, 1, base_seed=0)[0]
    result = fit(cora_ds, split, cfg)
    _, encoder, _ = build_from_checkpoint(result.params)
    z = embed(encoder, normalize_adjacency(cora_ds.adj), prepare_features(cora_ds, cfg))
    s5 = sim_at_k(z.data, cora_ds.labels, 5)
    s10 = sim_at_k(z.data, cora_ds.labels, 10)
    report(
        7,
        "Cora embeddings: Sim@5 >= 0.80 and Sim@10 >= 0.77",
        s5 >= 0.80 and s10 >= 0.77,
        f"Sim@5 {s5:.4f}, Sim@10 {s10:.4f}",
    )


@needs_cora
def test_criterion_08_cora_low_degree_gap(cora_ds):
    cfg = shipped_config("cora.cfg")
    split = generate_splits(cora_ds, 0.005, 1, base_seed=0)[0]
    accs = {}
    for name, lam in (("grafn", {}), ("supervised", dict(lambda1=0.0, lambda2=0.0))):
        variant = dataclasses.replace(cfg, **lam)
        result = fit(cora_ds, split, variant)
        _, encoder, head = build_from_checkpoint(result.params)
        pred = predict(encoder, head, normalize_adjacency(cora_ds.adj),
                       prepare_features(cora_ds, cfg), variant, split.labeled,
                       cora_ds.labels)
        rep = degree_accuracy_report(cora_ds, pred, split.test, [2, 4, 7])
        accs[name] = rep["buckets"][0]["accuracy"]
    gap = accs["grafn"] - accs["supervised"]
    report(
        8,
        "Cora lowest-degree bucket: >= baseline + 0.03 (seed-paired)",
        gap >= 0.03,
        f"grafn {accs['grafn']:.4f} vs supervised {accs['supervised']:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 9: benchmark determinism


def test_criterion_09_bench_byte_determinism(tmp_path):
    ds = random_dataset(60, num_classes=3, num_features=24, p_in=0.2, p_out=0.03,
                        feature_signal=0.5, seed=6, name="synth60")
    ds_dir = tmp_path / "synth60"
    write_dataset(ds, str(ds_dir))
    flags = ["--set", "hidden_dim=16", "--set", "embed_dim=16",
             "--set", "max_epochs=8", "--set", "dropout=0.1",
             "--set", "learning_rate=0.01"]
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(["bench", str(ds_dir), "--rate", "0.1", "--n", "2",
                       "--bench-seed", "5", "--out", str(out), *flags])
        assert rc == 0
        blobs.append((out / "bench.csv").read_bytes())
    report(
        9,
        "two identical bench invocations produce byte-identical CSV",
        blobs[0] == blobs[1],
        f"{len(blobs[0])} bytes",
    )


# ---------------------------------------------------------------------------
# criterion 10: dataset integrity


TABLE2 = {
    "cora": dict(nodes=2708, features=1433, classes=7, edges=5429),
    "citeseer": dict(nodes=3327, features=3703, classes=6, edges=4732),
}


def _check_table2(name, ds_dir):
    ds = load_dataset(ds_dir)
    want = TABLE2[name]
    ok = (
        ds.num_nodes == want["nodes"]
        and ds.num_features == want["features"]
        and ds.class_count == want["classes"]
    )
    detail = (
        f"N={ds.num_nodes} F={ds.num_features} C={ds.class_count}, "
        f"symmetrized undirected edges {ds.adj.num_undirected_edges}"
    )
    with open(os.path.join(ds_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    conv = meta.get("converter")
    if conv is not None:
        ok = ok and conv["raw_edge_lines"] == want["edges"]
        detail += f", raw edge lines {conv['raw_edge_lines']} (expected {want['edges']})"
    return ok, detail


@needs_cora
def test_criterion_10a_cora_table_statistics():
    ok, detail = _check_table2("cora", CORA)
    report(10, "converted Cora reproduces the published statistics", ok, detail)


@needs_citeseer
def test_criterion_10b_citeseer_table_statistics():
    ok, detail = _check_table2("citeseer", CITESEER)
    report(10, "converted Citeseer reproduces the published statistics", ok, detail)


# ---------------------------------------------------------------------------
# desk-scale synthetic analogs of the data-bound criteria (not the criteria
# themselves; they demonstrate the same qualitative behavior end-to-end)


@pytest.fixture(scope="module")
def synthetic_ablation(synthetic_ds):
    from tests.conftest import SYNTH_RATE, SYNTH_SPLIT_SEED, synth_train_config

    # two worker processes; the table does not depend on jobs
    return ablation_suite(
        synthetic_ds, SYNTH_RATE, 5, synth_train_config(), base_seed=SYNTH_SPLIT_SEED, jobs=2
    )


def test_analog_benchmark_gap_on_synthetic(synthetic_ablation):
    variants = synthetic_ablation["variants"]
    full = variants["full"]["mean_test_accuracy"]
    sup = variants["supervised_only"]["mean_test_accuracy"]
    print(f"ANALOG (criteria 4/5) synthetic: full {full:.4f}, supervised {sup:.4f}")
    assert full >= 0.80
    assert full >= sup + 0.015


def test_analog_ablation_ordering_on_synthetic(synthetic_ablation):
    variants = synthetic_ablation["variants"]
    full = variants["full"]["mean_test_accuracy"]
    no_lc = variants["no_label_consistency"]["mean_test_accuracy"]
    no_nc = variants["no_node_consistency"]["mean_test_accuracy"]
    sup = variants["supervised_only"]["mean_test_accuracy"]
    print(f"ANALOG (criterion 6) synthetic: full {full:.4f}, "
          f"no_lc {no_lc:.4f}, no_nc {no_nc:.4f}, sup {sup:.4f}")
    assert full >= sup + 0.02
    assert no_lc >= sup and no_nc >= sup
    assert full >= no_lc - 0.01 and full >= no_nc - 0.01


@pytest.fixture(scope="module")
def synthetic_supervised_run(synthetic_ds, synthetic_split):
    from tests.conftest import synth_train_config

    cfg = synth_train_config()
    sup_cfg = dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0)
    return sup_cfg, fit(synthetic_ds, synthetic_split, sup_cfg)


def _clean_embeddings(ds, cfg, result):
    _, encoder, head = build_from_checkpoint(result.params)
    z = embed(encoder, normalize_adjacency(ds.adj), prepare_features(ds, cfg))
    return z.data, encoder, head


def test_analog_similarity_search_on_synthetic(
    synthetic_ds, trained_synthetic, synthetic_supervised_run
):
    cfg, result = trained_synthetic
    sup_cfg, sup_result = synthetic_supervised_run
    z_full, _, _ = _clean_embeddings(synthetic_ds, cfg, result)
    z_sup, _, _ = _clean_embeddings(synthetic_ds, sup_cfg, sup_result)
    labels = synthetic_ds.labels
    s5, s10 = sim_at_k(z_full, labels, 5), sim_at_k(z_full, labels, 10)
    sup5 = sim_at_k(z_sup, labels, 5)
    print(f"ANALOG (criterion 7) synthetic: Sim@5 {s5:.4f}, Sim@10 {s10:.4f}, "
          f"supervised Sim@5 {sup5:.4f}")
    assert s5 >= 0.85 and s10 >= 0.85
    assert s5 >= sup5


def test_analog_low_degree_gap_on_synthetic(
    synthetic_ds, synthetic_split, trained_synthetic, synthetic_supervised_run
):
    cfg, result = trained_synthetic
    sup_cfg, sup_result = synthetic_supervised_run
    accs = {}
    for tag, (c, r) in (("grafn", (cfg, result)), ("sup", (sup_cfg, sup_result))):
        _, encoder, head = _clean_embeddings(synthetic_ds, c, r)
        pred = predict(encoder, head, normalize_adjacency(synthetic_ds.adj),
                       prepare_features(synthetic_ds, c), c, synthetic_split.labeled,
                       synthetic_ds.labels)
        rep = degree_accuracy_report(synthetic_ds, pred, synthetic_split.test, [4, 7])
        accs[tag] = rep["buckets"][0]["accuracy"]
    print(f"ANALOG (criterion 8) synthetic low-degree bucket: "
          f"grafn {accs['grafn']:.4f} vs supervised {accs['sup']:.4f}")
    assert accs["grafn"] >= accs["sup"] + 0.03
