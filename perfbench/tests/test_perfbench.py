"""Tests of the benchmark itself: the graph generator, the metric names in
BENCHMARK.json, the output checks and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import graphs
import tracing
import workloads
from conftest import BENCH, ROOT
from grafn import data, trainer
from grafn.model import GcnEncoder
from grafn.sparse import SparseAdjacency
from grafn.synthetic import random_dataset
from grafn.tape import Tape

SMALL = graphs.ShapeTarget(num_nodes=200, num_features=120, num_classes=4, num_edges=400,
                           feature_density=0.05)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- generator -----------------------------------------------------------------


def test_cora_shape_meets_its_target_and_is_deterministic():
    g = graphs.planted_partition(workloads.GRAPH_SEED)
    assert g.features.shape == (2708, 1433) and g.num_classes == 7
    graphs.check_shape(g, graphs.CORA_SHAPE)
    again = graphs.planted_partition(workloads.GRAPH_SEED)
    other = graphs.planted_partition(workloads.GRAPH_SEED + 1)
    for field in ("features", "labels", "edges"):
        assert np.array_equal(getattr(g, field), getattr(again, field))
    assert not np.array_equal(g.edges, other.edges)
    same_class = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
    assert 0.7 < same_class.mean() < 0.9


def test_check_shape_rejects_a_graph_off_target():
    g = graphs.planted_partition(0, target=SMALL)
    thin = dataclasses.replace(g, edges=g.edges[: len(g.edges) // 2])
    with pytest.raises(ValueError, match="edges"):
        graphs.check_shape(thin, SMALL)
    dense = dataclasses.replace(g, features=np.ones_like(g.features))
    with pytest.raises(ValueError, match="density"):
        graphs.check_shape(dense, SMALL)


def test_run_inputs_do_not_depend_on_the_run_seed(tmp_path):
    wl = workloads.WORKLOADS["synth300-fit"]
    runs = []
    for seed in (1, 2):
        r = workloads.Run(wl, seed, 1.0, False, ROOT, str(tmp_path / str(seed)))
        r.prepare()
        runs.append(r)
    a, b = runs
    assert np.array_equal(a.ds.features, b.ds.features)
    assert [s.to_json() for s in a.splits] == [s.to_json() for s in b.splits]
    assert a.setup_procs == workloads.SETUP_PROCS_FIRST and len(a.times["setup_s"]) >= 2


def test_written_dataset_loads_back_unchanged(tmp_path):
    g = graphs.planted_partition(1, target=SMALL)
    graphs.write_dataset_dir(g, str(tmp_path))
    ds = data.load_dataset(str(tmp_path))
    assert np.array_equal(ds.features, g.features.astype(np.float64))
    assert np.array_equal(ds.label_ids(), g.labels)
    assert np.array_equal(ds.adj.undirected_edge_list(), g.edges)
    back = graphs.from_dataset(ds, g.name)
    assert np.array_equal(back.edges, g.edges)


# -- metric names ----------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_match_what_the_benchmark_prints():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    produced = set(tracing.layer_metrics([])) | {"process.cpu_ratio", "trace.overhead"}
    assert set(workloads.PER_LAYER) <= produced


def test_benchmark_json_follows_the_naming_rules():
    spec = _benchmark_json()
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in spec[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["paths"] == ["perfbench"] and spec["command"][1] == "perfbench/run.py"
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


# -- output checks ---------------------------------------------------------------


def _result(acc=0.8, history=((0.1, 0.2, 0.3, 0.6), (0.1, 0.1, 0.2, 0.4))):
    return SimpleNamespace(test_accuracy_at_best_val=acc, loss_history=list(history))


def test_fit_check_passes_a_right_result_and_fires_on_wrong_ones():
    good = _result()
    digest = workloads.loss_digest(good.loss_history)
    assert workloads.check_fit(good, 0.5, digest) == []
    assert workloads.check_fit(good, 0.5, None) == []
    nan = _result(history=((0.1, 0.2, 0.3, float("nan")),))
    assert any("non-finite" in p for p in workloads.check_fit(nan, 0.5, None))
    assert any("accuracy" in p for p in workloads.check_fit(_result(acc=0.3), 0.5, None))
    other = _result(history=((0.1, 0.2, 0.3, 0.6), (0.1, 0.1, 0.2, 0.41)))
    assert any("digest" in p for p in workloads.check_fit(other, 0.5, digest))


def test_inference_check_fires_on_mismatch_and_bad_sim():
    chance = workloads.sim_chance(np.array([0, 0, 1, 1, 2, 2]))
    assert chance == pytest.approx(0.2)
    assert workloads.check_inference(0.8, 0.8, {5: 0.7, 10: 0.6}, chance) == []
    assert len(workloads.check_inference(0.79, 0.8, {5: 0.7}, chance)) == 1
    assert len(workloads.check_inference(0.8, 0.8, {5: chance, 10: 1.5}, chance)) == 2


def test_sweep_check_flags_low_and_changed_splits():
    rows = [(0.8, 0.9, 10), (0.7, 0.8, 12), (0.4, 0.5, 3)]
    assert workloads.check_sweep(rows, [None] * 3, 0.3) == []
    assert workloads.check_sweep(rows, [None] * 3, 0.5) == [2]
    assert workloads.check_sweep(rows, [(0.8, 0.9, 10), (0.7, 0.8, 11), None], 0.3) == [1]


# -- tracer ----------------------------------------------------------------------


def test_tracer_restores_every_attribute():
    before = (trainer.augment_view, vars(Tape)["spmm"], vars(SparseAdjacency)["from_edges"],
              vars(GcnEncoder)["encode"], trainer.fit)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trainer.augment_view is not before[0] and vars(Tape)["spmm"] is not before[1]
    finally:
        tracer.uninstall()
    after = (trainer.augment_view, vars(Tape)["spmm"], vars(SparseAdjacency)["from_edges"],
             vars(GcnEncoder)["encode"], trainer.fit)
    assert all(a is b for a, b in zip(before, after))


def test_traced_fit_gives_the_same_result_and_layer_metrics():
    ds = random_dataset(n=40, num_classes=2, num_features=8, seed=0)
    split = data.generate_splits(ds, 0.2, 1, base_seed=0)[0]
    cfg = trainer.TrainConfig(hidden_dim=8, embed_dim=8, max_epochs=4, seed=0)
    plain = trainer.fit(ds, split, cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = trainer.fit(ds, split, cfg)
    finally:
        tracer.uninstall()
    assert traced.loss_history == plain.loss_history
    metrics = tracing.layer_metrics([tracer.export()])
    assert metrics["trainer.step_ms_p50"][2] == 4
    assert metrics["tape.backward_ms"][0] > 0 and metrics["augment.view_ms"][0] > 0
    assert metrics["trainer.setup_ms"][2] == 1
    assert metrics["tape.kernel_calls_per_step"][0] > 10
    assert metrics["sparse_features.matmul_ms"][0] == 0  # dense features bypass it


# -- the command -----------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth300-fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
