import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from grafn import (
    load_checkpoint,
    load_dataset,
    random_dataset,
    save_checkpoint,
    write_dataset,
)
from grafn import cli, evaluation, trainer
from grafn.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = random_dataset(60, num_classes=3, num_features=24, p_in=0.2, p_out=0.03,
                        feature_signal=0.5, seed=6, name="synth60")
    path = root / "synth60"
    write_dataset(ds, str(path))
    return str(path)


FAST = [
    "--set", "hidden_dim=16", "--set", "embed_dim=16", "--set", "max_epochs=8",
    "--set", "dropout=0.1", "--set", "learning_rate=0.01",
]


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# convert


def test_convert_roundtrip(tmp_path, capsys):
    content = tmp_path / "raw.content"
    cites = tmp_path / "raw.cites"
    content.write_text("p1 1 0 1 ai\np2 0 1 0 db\np3 1 1 0 ai\n")
    cites.write_text("p1 p2\np2 p3\np9 p1\n")
    out = tmp_path / "converted"
    assert run(["convert", str(content), str(cites), str(out)]) == 0
    captured = capsys.readouterr().out
    assert "3 nodes" in captured and "1 dangling" in captured
    meta = json.loads((out / "meta.json").read_text())
    assert meta["num_nodes"] == 3 and meta["converter"]["raw_edge_lines"] == 3
    # refuses to clobber without --force, succeeds with it
    assert run(["convert", str(content), str(cites), str(out)]) == 2
    assert run(["convert", str(content), str(cites), str(out), "--force"]) == 0


def test_convert_missing_file_exits_3(tmp_path):
    assert run(["convert", str(tmp_path / "no.content"),
                str(tmp_path / "no.cites"), str(tmp_path / "o")]) == 3


# ---------------------------------------------------------------------------
# split


def test_split_writes_n_files_deterministically(data_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["split", data_dir, "--rate", "0.1", "--n", "4",
                    "--seed", "3", "--out", str(out)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == [f"split_{i:03d}.json" for i in range(4)]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_split_rate_too_small_exits_3(data_dir, tmp_path):
    assert run(["split", data_dir, "--rate", "0.01", "--n", "1",
                "--out", str(tmp_path / "s")]) == 3


# ---------------------------------------------------------------------------
# train


@pytest.fixture(scope="module")
def one_split(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("splits")
    run(["split", data_dir, "--rate", "0.1", "--n", "1", "--seed", "0",
         "--out", str(out)])
    return str(out / "split_000.json")


@pytest.fixture(scope="module")
def trained_dir(data_dir, one_split, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run(["train", data_dir, one_split, "--out", str(out), *FAST])
    assert rc == 0
    return str(out)


def test_train_outputs(trained_dir):
    with open(os.path.join(trained_dir, "run.json"), encoding="utf-8") as fh:
        run_obj = json.load(fh)
    assert 0.0 <= run_obj["test_accuracy_at_best_val"] <= 1.0
    assert run_obj["effective_config"]["hidden_dim"] == 16
    with open(os.path.join(trained_dir, "checkpoint.bin"), "rb") as fh:
        assert run_obj["checkpoint_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    params = load_checkpoint(os.path.join(trained_dir, "checkpoint.bin"))
    assert set(params) == {"enc.w1", "enc.w2", "head.w", "head.b"}


def test_train_lambda_flags_override_config(data_dir, one_split, tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("lambda1 = 2.0\nlambda2 = 2.0\nmax_epochs = 2\n"
                        "hidden_dim = 8\nembed_dim = 8\n")
    out = tmp_path / "run"
    rc = run(["train", data_dir, one_split, "--out", str(out),
              "--config", str(cfg_file), "--set", "lambda1=0.25"])
    assert rc == 0
    eff = json.loads((out / "run.json").read_text())["effective_config"]
    assert eff["lambda1"] == 0.25 and eff["lambda2"] == 2.0


def test_train_unknown_config_key_exits_2(data_dir, one_split, tmp_path):
    assert run(["train", data_dir, one_split, "--out", str(tmp_path / "r"),
                "--set", "warp_speed=9"]) == 2


@pytest.mark.parametrize("setting", [
    "learning_rate=nan", "tau=nan", "lambda1=nan", "weight_decay=nan",
    "learning_rate=inf", "weight_decay=-5",
])
def test_train_bad_float_setting_exits_2_before_training(data_dir, one_split, tmp_path,
                                                         capsys, setting):
    out = tmp_path / "r"
    assert run(["train", data_dir, one_split, "--out", str(out), *FAST,
                "--set", setting]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_train_missing_dataset_exits_3(one_split, tmp_path):
    assert run(["train", str(tmp_path / "nowhere"), one_split,
                "--out", str(tmp_path / "r")]) == 3


@pytest.mark.parametrize("edit", [{"num_nodes": "abc"}, {"num_nodes": None},
                                  {"num_features": 24.5}, None],
                         ids=["string", "null", "float", "list"])
def test_split_malformed_meta_exits_3(data_dir, tmp_path, capsys, edit):
    bad = tmp_path / "bad"
    write_dataset(load_dataset(data_dir), str(bad))
    meta = json.loads((bad / "meta.json").read_text())
    (bad / "meta.json").write_text(json.dumps(list(meta.values()) if edit is None
                                              else {**meta, **edit}))
    assert run(["split", str(bad), "--rate", "0.1", "--n", "1",
                "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad / 'meta.json'}: ") and err.count("\n") == 1


def _diverged(record):
    # what train writes when the loss goes non-finite; it saves no checkpoint,
    # so the one beside this record is from an earlier run
    for key in set(record) - {"effective_config"}:
        del record[key]
    record.update(error="non-finite total loss at epoch 3", loss_history=[])


# run.json beside a checkpoint: None deletes it, a string replaces its text,
# and a function edits the parsed record in place
RUN_RECORD_EDITS = {
    "run.json missing": None,
    "run.json is not JSON": "{",
    "run.json has no effective_config": lambda record: record.pop("effective_config"),
    "run.json records a diverged run": _diverged,
    "effective_config lacks tau": lambda record: record["effective_config"].pop("tau"),
    "effective_config has an unknown key": lambda record: record["effective_config"].update(
        colour=1),
    # a record from before row normalization became fixed behaviour
    "effective_config names feature_row_normalize": lambda record: record[
        "effective_config"].update(feature_row_normalize=True),
    "effective_config tau is a string": lambda record: record["effective_config"].update(
        tau="x"),
    "effective_config hidden_dim is a bool": lambda record: record["effective_config"].update(
        hidden_dim=True),
    "effective_config tau is -1": lambda record: record["effective_config"].update(tau=-1),
    "digest differs": lambda record: record.update(checkpoint_sha256="0" * 64),
    "lacks checkpoint_sha256": lambda record: record.pop("checkpoint_sha256"),
    "run.json is a JSON string": '"no error here"',
    "run.json is a JSON list": '["checkpoint_sha256"]',
    "run.json is a JSON number": "42",
}


@pytest.mark.parametrize("case,code", [
    ("labels.txt ends in ff fe", 3),
    ("features.tsv missing", 3),
    ("config holds byte ff", 2),
    ("config is a directory", 2),
    ("raw.content holds byte ff", 3),
    *((case, 2) for case in RUN_RECORD_EDITS),
])
def test_unreadable_input_exits_with_one_line_naming_the_file(data_dir, one_split, trained_dir,
                                                              tmp_path, capsys, case, code):
    bad = tmp_path / "bad"
    write_dataset(load_dataset(data_dir), str(bad))
    argv = ["split", str(bad), "--rate", "0.1", "--n", "1", "--out", str(tmp_path / "s")]
    argvs = None
    if case in RUN_RECORD_EDITS:
        run_dir, edit = tmp_path / "run", RUN_RECORD_EDITS[case]
        run_dir.mkdir()
        for name in ("checkpoint.bin", "run.json"):
            shutil.copy(os.path.join(trained_dir, name), run_dir)
        culprit = run_dir / "run.json"
        record = json.loads(culprit.read_text())
        if edit is None:
            culprit.unlink()
        elif isinstance(edit, str):
            culprit.write_text(edit)
        else:
            edit(record)
            culprit.write_text(json.dumps(record))
        ckpt = str(run_dir / "checkpoint.bin")
        argvs = [["simsearch", ckpt, data_dir, "--k", "5"],
                 ["degree-report", ckpt, data_dir, one_split]]
    elif case == "labels.txt ends in ff fe":
        culprit = bad / "labels.txt"
        culprit.write_bytes(culprit.read_bytes() + b"\xff\xfe")
    elif case == "features.tsv missing":
        culprit = bad / "features.tsv"
        culprit.unlink()
    elif case == "raw.content holds byte ff":
        culprit, cites = tmp_path / "raw.content", tmp_path / "raw.cites"
        culprit.write_bytes(b"a 1 0 x\nb 0 1 y\xff\n")
        cites.write_text("a b\n")
        argv = ["convert", str(culprit), str(cites), str(tmp_path / "conv")]
    else:
        culprit = tmp_path / "c.cfg"
        if case == "config holds byte ff":
            culprit.write_bytes(b"tau = 0.2\n\xff\n")
        else:
            culprit.mkdir()
        argv = ["train", str(bad), one_split, "--out", str(tmp_path / "r"),
                "--config", str(culprit)]
    for argv in argvs or [argv]:
        assert run(argv) == code
        err = capsys.readouterr().err
        prefix = {2: "config error: ", 3: "data error: "}[code]
        assert err.startswith(prefix) and str(culprit) in err and err.count("\n") == 1
        if case.startswith("run.json is a JSON "):
            assert err.endswith(f"{culprit}: expected a JSON object\n")


SPLIT_EDITS = {
    "test index 10**6": lambda obj, labels: obj["test"].append(10**6),
    "empty val": lambda obj, labels: obj.update(val=[]),
    "labeled index -1": lambda obj, labels: obj["labeled"].append(-1),
    "test entry 0.5": lambda obj, labels: obj["test"].append(0.5),
    "seed 1.7": lambda obj, labels: obj.update(seed=1.7),
    "seed true": lambda obj, labels: obj.update(seed=True),
    "seed '7'": lambda obj, labels: obj.update(seed="7"),
    "label_rate 'nan'": lambda obj, labels: obj.update(label_rate="nan"),
    "node in two sets": lambda obj, labels: obj["test"].append(obj["labeled"][0]),
    "labeled misses class 2": lambda obj, labels: obj.update(
        labeled=[i for i in obj["labeled"] if labels[i] != 2]),
}


@pytest.mark.parametrize("command,case", [
    *(("train", case) for case in SPLIT_EDITS),
    ("train", "missing split"),
    ("simsearch", "empty val"),
    ("simsearch", "missing checkpoint"),
    ("simsearch", "nan checkpoint"),
    ("degree-report", "labeled index -1"),
    ("degree-report", "nan checkpoint"),
    ("split", "rate 0.995"),
    ("bench", "rate 0.995"),
    ("ablate", "rate 0.995"),
])
def test_bad_split_or_checkpoint_exits_3(data_dir, one_split, trained_dir, tmp_path,
                                         capsys, command, case):
    split = tmp_path / "split.json"
    if case in SPLIT_EDITS:
        with open(one_split, encoding="utf-8") as fh:
            obj = json.load(fh)
        SPLIT_EDITS[case](obj, load_dataset(data_dir).labels)
        split.write_text(json.dumps(obj))
    ckpt = os.path.join(trained_dir, "checkpoint.bin")
    if case == "missing checkpoint":
        split, ckpt = one_split, str(tmp_path / "absent.bin")
    if case == "nan checkpoint":
        params = load_checkpoint(ckpt)
        params["enc.w2"][0, 0] = np.nan
        split, ckpt = one_split, str(tmp_path / "nan.bin")
        save_checkpoint(ckpt, params)
    out = tmp_path / "r"
    # at rate 0.995 all 60 nodes are labeled, which leaves val and test empty
    rate = ["--rate", "0.995", "--n", "1"]
    argv = {
        "train": ["train", data_dir, str(split), "--out", str(out), *FAST],
        "simsearch": ["simsearch", ckpt, data_dir, "--k", "5", "--split", str(split)],
        "degree-report": ["degree-report", ckpt, data_dir, str(split)],
        "split": ["split", data_dir, *rate, "--out", str(out)],
        "bench": ["bench", data_dir, *rate, "--out", str(out), *FAST],
        "ablate": ["ablate", data_dir, *rate, "--out", str(out / "ablate.json"), *FAST],
    }[command]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()
    if case in SPLIT_EDITS or case == "missing split":
        assert str(split) in err
    if case == "rate 0.995":
        assert "split set 'val' is empty" in err
    if case == "labeled misses class 2":
        assert "class 2" in err
    if case == "nan checkpoint":
        assert "'enc.w2' holds nan at (0, 0)" in err


@pytest.mark.parametrize("argv", [
    ["train", "{data}", "{split}", "--out", "{out}", "--lambda1", "0.5"],
    ["bench", "{data}", "--rate", "0.1", "--n", "1", "--out", "{out}", "--lambda2", "0.5"],
    ["train", "{data}", "{split}", "--out", "{out}", "--seed", "3"],
    ["ablate", "{data}", "--rate", "0.1", "--n", "1", "--seed", "3"],
    ["simsearch", "{ckpt}", "{data}", "--k", "5", "--seed", "3"],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--seed", "3"],
    ["simsearch", "{ckpt}", "{data}", "--k", "5", "--config", "configs/cora.cfg"],
    ["simsearch", "{ckpt}", "{data}", "--k", "5", "--set", "tau=0.2"],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--config", "configs/cora.cfg"],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--set", "tau=0.2"],
], ids=lambda argv: " ".join(argv))
def test_config_values_have_no_flag_but_set(data_dir, one_split, trained_dir, tmp_path,
                                            capsys, argv):
    out = tmp_path / "out"
    slots = dict(data=data_dir, split=one_split, out=str(out),
                 ckpt=os.path.join(trained_dir, "checkpoint.bin"))
    with pytest.raises(SystemExit) as exc:
        run([arg.format(**slots) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bench", "{data}", "--rate", "0.1", "--n", "1", "--out", "{out}", "--set", "seed=-1"],
    ["train", "{data}", "{split}", "--out", "{out}", "--set", "seed=-1"],
    ["split", "{data}", "--rate", "0.1", "--n", "0", "--out", "{out}"],
    ["split", "{data}", "--rate", "0.1", "--seed", "-1", "--out", "{out}"],
    ["bench", "{data}", "--rate", "0.1", "--n", "0", "--out", "{out}"],
    ["bench", "{data}", "--rate", "0.1", "--n", "1", "--bench-seed", "-1", "--out", "{out}"],
    ["ablate", "{data}", "--rate", "0.1", "--n", "0"],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--boundaries", "x,2"],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--boundaries", ""],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--boundaries", "4,2"],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--boundaries", "2,2"],
    ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--size", "3"],
    ["gradcheck", "--size", "7"],
    ["gradcheck", "--size", "2001"],
    ["bench", "{data}", "--rate", "0.1", "--n", "1", "--jobs", "0", "--out", "{out}"],
    ["bench", "{data}", "--rate", "0.1", "--n", "1", "--jobs", "-3", "--out", "{out}"],
    ["ablate", "{data}", "--rate", "0.1", "--n", "1", "--jobs", "0"],
    ["split", "{data}", "--rate", "0", "--n", "1", "--out", "{out}"],
    ["bench", "{data}", "--rate", "1.5", "--n", "1", "--out", "{out}"],
    ["ablate", "{data}", "--rate", "nan", "--n", "1"],
    ["simsearch", "{ckpt}", "{data}", "--k", "0"],
    ["simsearch", "{ckpt}", "{data}", "--k", "60"],
    ["simsearch", "{ckpt}", "{data}", "--k", "-1"],
    ["simsearch", "{ckpt}", "{data}", "--k", "100000", "--out", "{out}"],
], ids=lambda argv: " ".join(argv))
def test_negative_seed_zero_count_or_bad_boundaries_exits_2(data_dir, one_split, trained_dir,
                                                            tmp_path, capsys, argv):
    out = tmp_path / "out"
    slots = dict(data=data_dir, split=one_split, out=str(out),
                 ckpt=os.path.join(trained_dir, "checkpoint.bin"))
    assert run([arg.format(**slots) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["convert", "{data}/features.tsv", "{data}/labels.txt", "{file}"],
    ["split", "{data}", "--rate", "0.1", "--n", "1", "--out", "{file}"],
    ["train", "{data}", "{split}", "--out", "{file}", *FAST],
    ["bench", "{data}", "--rate", "0.1", "--n", "2", "--out", "{file}", *FAST],
    ["simsearch", "{ckpt}", "{data}", "--k", "5", "--out", "{file}/sim.json"],
    ["simsearch", "{ckpt}", "{data}", "--k", "5", "--out", "{tmp}"],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--out", "{file}/report.json"],
    ["ablate", "{data}", "--rate", "0.1", "--n", "2", "--out", "{file}/ablate.json", *FAST],
    ["convert", "{data}/features.tsv", "{data}/labels.txt", ""],
    ["split", "{data}", "--rate", "0.1", "--n", "1", "--out", ""],
    ["train", "{data}", "{split}", "--out", "", *FAST],
    ["bench", "{data}", "--rate", "0.1", "--n", "2", "--out", "", *FAST],
    ["simsearch", "{ckpt}", "{data}", "--k", "5", "--out", ""],
    ["degree-report", "{ckpt}", "{data}", "{split}", "--out", ""],
    ["ablate", "{data}", "--rate", "0.1", "--n", "2", "--out", "", *FAST],
], ids=["convert", "split", "train", "bench", "simsearch", "simsearch-to-directory",
        "degree-report", "ablate", "convert-empty", "split-empty", "train-empty",
        "bench-empty", "simsearch-empty", "degree-report-empty", "ablate-empty"])
def test_unwritable_out_exits_2_before_any_work(data_dir, one_split, trained_dir, tmp_path,
                                                capsys, monkeypatch, argv):
    """An output path under a regular file, a directory where a file goes, or
    an empty path is refused before any dataset is read or split trained."""
    def no_fit(*args):
        raise AssertionError("fit ran before the output path was checked")

    monkeypatch.setattr(cli, "fit", no_fit)
    monkeypatch.setattr(evaluation, "fit", no_fit)
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    slots = dict(data=data_dir, split=one_split, file=str(blocker), tmp=str(tmp_path),
                 ckpt=os.path.join(trained_dir, "checkpoint.bin"))
    argv = [arg.format(**slots) for arg in argv]
    out = argv[3] if argv[0] == "convert" else argv[argv.index("--out") + 1]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1
    assert blocker.read_text() == "keep"


def test_train_nan_divergence_exits_4_with_partial_history(data_dir, one_split, tmp_path,
                                                           monkeypatch):
    supervised_loss = trainer.supervised_loss
    calls = []

    def diverging(tape, *args):
        # finite for two steps, then NaN
        calls.append(None)
        loss = supervised_loss(tape, *args)
        return tape.scale(loss, np.nan) if len(calls) > 2 else loss

    monkeypatch.setattr(trainer, "supervised_loss", diverging)
    out = tmp_path / "run"
    assert run(["train", data_dir, one_split, "--out", str(out), *FAST]) == 4
    partial = json.loads((out / "run.json").read_text())
    assert "error" in partial and len(partial["loss_history"]) >= 1
    assert len(partial["loss_history"]) == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_non_finite_feature_exits_3(data_dir, one_split, tmp_path, capsys, value):
    bad = tmp_path / "bad"
    ds = load_dataset(data_dir)
    write_dataset(ds, str(bad))
    rows = (bad / "features.tsv").read_text().split("\n")
    cells = rows[4].split("\t")
    cells[7] = value
    rows[4] = "\t".join(cells)
    (bad / "features.tsv").write_text("\n".join(rows))
    out = tmp_path / "run"
    assert run(["train", str(bad), one_split, "--out", str(out), *FAST]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: node 4 feature 7 is not finite: {float(value)}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench


def test_bench_csv_shape_and_determinism(data_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = run(["bench", data_dir, "--rate", "0.1", "--n", "3",
                  "--bench-seed", "5", "--out", str(out), *FAST])
        assert rc == 0
    csv_a = (out_a / "bench.csv").read_bytes()
    csv_b = (out_b / "bench.csv").read_bytes()
    assert csv_a == csv_b
    lines = csv_a.decode().strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    report = json.loads((out_a / "bench.json").read_text())
    assert report["mean_test_accuracy"] == pytest.approx(
        float(np.mean(report["test_accuracies"])), abs=1e-12
    )


def test_bench_fingerprint_is_hash_of_effective_config(data_dir, tmp_path):
    out = tmp_path / "b"
    assert run(["bench", data_dir, "--rate", "0.1", "--n", "1", "--out", str(out),
                *FAST]) == 0
    report = json.loads((out / "bench.json").read_text())
    blob = json.dumps(report["effective_config"], sort_keys=True)
    assert report["config_fingerprint"] == hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# simsearch


def test_simsearch_reports_requested_ks(data_dir, trained_dir, tmp_path, capsys):
    ckpt = os.path.join(trained_dir, "checkpoint.bin")
    out = tmp_path / "sim.json"
    rc = run(["simsearch", ckpt, data_dir, "--k", "5", "--k", "10",
              "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Sim@5" in text and "Sim@10" in text
    payload = json.loads(out.read_text())
    assert set(payload["results"]) == {"sim@5", "sim@10"}
    with open(os.path.join(trained_dir, "run.json"), encoding="utf-8") as fh:
        assert payload["effective_config"] == json.load(fh)["effective_config"]
    for v in payload["results"].values():
        assert 0.0 <= v <= 1.0


def test_simsearch_non_finite_embedding_exits_4(data_dir, trained_dir, tmp_path, capsys):
    # a zero second layer gives zero-norm embedding rows, which have no cosine
    params = load_checkpoint(os.path.join(trained_dir, "checkpoint.bin"))
    params["enc.w2"][:] = 0.0
    ckpt = tmp_path / "zero.bin"
    save_checkpoint(str(ckpt), params)
    with open(os.path.join(trained_dir, "run.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    record["checkpoint_sha256"] = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    (tmp_path / "run.json").write_text(json.dumps(record))
    assert run(["simsearch", str(ckpt), data_dir, "--k", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "non-finite norm 0.0" in err


def test_simsearch_corrupt_checkpoint_exits_3(data_dir, trained_dir, tmp_path):
    with open(os.path.join(trained_dir, "checkpoint.bin"), "rb") as fh:
        blob = fh.read()
    ckpt = tmp_path / "cut.bin"
    ckpt.write_bytes(blob[:6 + 4 + len("enc.w1") + 5])  # cut inside the shape
    assert run(["simsearch", str(ckpt), data_dir, "--k", "5"]) == 3


def test_simsearch_deterministic(data_dir, trained_dir, capsys):
    ckpt = os.path.join(trained_dir, "checkpoint.bin")
    outputs = []
    for _ in range(2):
        run(["simsearch", ckpt, data_dir, "--k", "5"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_simsearch_test_only_queries(data_dir, trained_dir, one_split, tmp_path):
    ckpt = os.path.join(trained_dir, "checkpoint.bin")
    out = tmp_path / "sim_test.json"
    rc = run(["simsearch", ckpt, data_dir, "--k", "5",
              "--split", one_split, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["query_nodes"] == "test"


@pytest.fixture(scope="module")
def mismatched_dirs(tmp_path_factory):
    """Datasets of synth60's size whose feature or class count differs."""
    root = tmp_path_factory.mktemp("mismatch")
    dirs = {}
    for name, classes, features in (("features7", 3, 7), ("classes4", 4, 24)):
        ds = random_dataset(60, num_classes=classes, num_features=features, p_in=0.2,
                            p_out=0.03, feature_signal=0.5, seed=6, name=name)
        dirs[name] = str(root / name)
        write_dataset(ds, dirs[name])
    return dirs


def test_simsearch_feature_mismatch_exits_3(trained_dir, mismatched_dirs, capsys):
    ckpt = os.path.join(trained_dir, "checkpoint.bin")
    assert run(["simsearch", ckpt, mismatched_dirs["features7"], "--k", "5"]) == 3
    assert "24 features" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# degree-report


def test_degree_report_cli(data_dir, trained_dir, one_split, tmp_path, capsys):
    ckpt = os.path.join(trained_dir, "checkpoint.bin")
    out = tmp_path / "deg.json"
    rc = run(["degree-report", ckpt, data_dir, one_split,
              "--boundaries", "2,4,7", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["boundaries"] == [2, 4, 7]
    assert len(payload["buckets"]) == 4
    assert "degree" in capsys.readouterr().out


@pytest.mark.parametrize("snn_inference", ["false", "true"])
def test_degree_report_pools_to_train_test_accuracy(data_dir, one_split, tmp_path,
                                                    snn_inference):
    # the report reads the training settings from run.json; none is passed again
    out = tmp_path / "run"
    assert run(["train", data_dir, one_split, "--out", str(out), *FAST,
                "--set", f"snn_inference={snn_inference}"]) == 0
    deg = tmp_path / "deg.json"
    assert run(["degree-report", str(out / "checkpoint.bin"), data_dir, one_split,
                "--out", str(deg)]) == 0
    report = json.loads(deg.read_text())
    buckets = [b for b in report["buckets"] if b["population"]]
    correct = sum(round(b["accuracy"] * b["population"]) for b in buckets)
    pooled = correct / sum(b["population"] for b in buckets)
    run_obj = json.loads((out / "run.json").read_text())
    assert pooled == run_obj["test_accuracy_at_best_val"]
    assert report["effective_config"] == run_obj["effective_config"]


@pytest.mark.parametrize("name", ["features7", "classes4"])
def test_degree_report_dataset_mismatch_exits_3(trained_dir, mismatched_dirs, one_split,
                                                name, capsys):
    ckpt = os.path.join(trained_dir, "checkpoint.bin")
    assert run(["degree-report", ckpt, mismatched_dirs[name], one_split]) == 3
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablate


def test_ablate_cli(data_dir, tmp_path, capsys):
    out = tmp_path / "abl.json"
    rc = run(["ablate", data_dir, "--rate", "0.1", "--n", "1",
              "--bench-seed", "2", "--out", str(out),
              "--set", "hidden_dim=8", "--set", "embed_dim=8",
              "--set", "max_epochs=4", "--set", "dropout=0.1"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload["variants"]) == {
        "full", "no_label_consistency", "no_node_consistency", "supervised_only",
    }
    assert "supervised_only" in capsys.readouterr().out


def test_ablate_jobs_do_not_change_the_table(data_dir, tmp_path):
    outs = [tmp_path / f"abl{jobs}.json" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert run(["ablate", data_dir, "--rate", "0.1", "--n", "2", "--jobs", str(jobs),
                    "--out", str(out), *FAST]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_cli(capsys):
    assert run(["gradcheck", "--size", "16", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_smallest_size_passes(capsys, seed):
    """8 is the least size the entry check admits; it must then run."""
    assert run(["gradcheck", "--size", "8", "--seed", str(seed)]) == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_gradcheck_failure_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "finite_diff_check", lambda tape, build: 1.0)
    assert run(["gradcheck", "--size", "8"]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: gradient check failed: 1.000e+00 >= 1e-04\n")


# ---------------------------------------------------------------------------
# environment root


def test_grafn_data_dir_resolution(data_dir, tmp_path, monkeypatch):
    root, name = os.path.split(data_dir)
    monkeypatch.setenv("GRAFN_DATA_DIR", root)
    out = tmp_path / "s"
    assert run(["split", name, "--rate", "0.1", "--n", "1", "--out", str(out)]) == 0
