"""Smoke tests for the helper scripts under scripts/."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np

from grafn import load_dataset, random_dataset

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_make_synthetic_writes_random_dataset(tmp_path):
    """The written directory loads back to `random_dataset`'s graph."""
    out = tmp_path / "synth40"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_synthetic.py"), str(out),
         "--nodes", "40", "--classes", "4", "--features", "16", "--seed", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = random_dataset(40, num_classes=4, num_features=16, p_in=0.04, p_out=0.008,
                              feature_signal=0.25, feature_noise=0.06, seed=3,
                              name="synthetic40")
    back = load_dataset(str(out))
    assert back.name == expected.name and back.class_count == 4
    assert back.labels.dtype == np.int64
    np.testing.assert_array_equal(back.labels, expected.labels)
    assert back.features.tobytes() == expected.features.tobytes()
    np.testing.assert_array_equal(back.adj.undirected_edge_list(),
                                  expected.adj.undirected_edge_list())
    assert proc.stdout == (f"wrote synthetic40: 40 nodes, {expected.adj.num_undirected_edges} "
                           f"edges, 4 classes -> {out}\n")


def run_reproduce(data_root, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_benchmarks.py"),
         "--data-root", str(data_root), "--out", str(tmp_path / "results")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_reproduce_benchmarks_skips_missing_datasets(tmp_path):
    """With neither converted nor raw data, each dataset is skipped and
    nothing is trained."""
    root = tmp_path / "data"
    root.mkdir()
    proc = run_reproduce(root, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "".join(
        f"skipping {name}: no converted dataset at {root / name} and no raw files "
        f"under {root}/raw/\n" for name in ("cora", "citeseer"))
    assert not (tmp_path / "results").exists()


def test_reproduce_benchmarks_passes_convert_exit_code_through(tmp_path):
    """A raw content file without its cites file fails `convert` with exit 3,
    and the script exits 3 too, before any benchmark."""
    raw = tmp_path / "data" / "raw"
    raw.mkdir(parents=True)
    (raw / "cora.content").write_text("p1 1 0 ai\np2 0 1 db\n")
    proc = run_reproduce(tmp_path / "data", tmp_path)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        f"+ convert {raw / 'cora.content'} {raw / 'cora.cites'} {tmp_path / 'data' / 'cora'}"]
    assert "cora.cites" in proc.stderr and not (tmp_path / "data" / "cora").exists()


def test_reproduce_benchmarks_runs_one_sweep_per_dataset(tmp_path, monkeypatch):
    """With converted datasets present, each dataset gets one `ablate` sweep
    (its `full` row is the benchmark) and the single-split steps; no `bench`
    refits the same runs. `sh` is replaced, so nothing runs."""
    spec = importlib.util.spec_from_file_location(
        "reproduce_benchmarks", ROOT / "scripts" / "reproduce_benchmarks.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    monkeypatch.setattr(script, "sh", calls.append)
    root = tmp_path / "data"
    for name in ("cora", "citeseer"):
        (root / name).mkdir(parents=True)
    monkeypatch.setattr(sys, "argv", ["reproduce_benchmarks.py", "--data-root", str(root),
                                      "--out", str(tmp_path / "results")])
    script.main()
    steps = ["ablate", "split", "train", "simsearch", "degree-report"]
    assert [args[0] for args in calls] == steps * 2
    for name, ablate in zip(("cora", "citeseer"), (calls[0], calls[5])):
        assert ablate[1] == str(root / name)
        assert ablate[ablate.index("--out") + 1] == str(tmp_path / "results" / name
                                                         / "ablation.json")
    assert not (tmp_path / "results").exists()
