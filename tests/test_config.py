import dataclasses
import glob
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafn import ConfigError, TrainConfig
from grafn.config import (
    apply_overrides,
    build_train_config,
    load_config_file,
    parse_config_text,
)
from grafn.evaluation import config_fingerprint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# file grammar


def test_comments_and_blank_lines_are_ignored():
    text = "# header\n\n  tau = 0.2   # trailing comment\n\t\nhidden_dim=8\n#nu = 0.1\n"
    assert parse_config_text(text) == {"tau": 0.2, "hidden_dim": 8}


def test_values_are_typed_per_key():
    values = parse_config_text(
        "max_epochs = 7\nlearning_rate = 1e-2\nsnn_inference = yes\n"
    )
    assert values == {"max_epochs": 7, "learning_rate": 0.01, "snn_inference": True}
    assert type(values["max_epochs"]) is int
    assert type(values["learning_rate"]) is float
    assert parse_config_text("snn_inference = OFF\n") == {"snn_inference": False}


@pytest.mark.parametrize("text, message", [
    ("tau 0.2\n", r"cfg:1: expected 'key = value'"),
    ("tau = 0.2\nnu =\n", r"cfg:2: empty value for 'nu'"),
    ("\nwarp_speed = 9\n", r"cfg:2: unknown key 'warp_speed'"),
    ("hidden_dim = 1.5\n", r"cfg:1: bad value for 'hidden_dim'"),
    ("max_epochs = ten\n", r"cfg:1: bad value for 'max_epochs'"),
    ("tau = fast\n", r"cfg:1: bad value for 'tau'"),
    ("snn_inference = maybe\n", r"cfg:1: bad value for 'snn_inference'"),
])
def test_malformed_file_lines_name_the_line(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text, source="cfg")


@pytest.mark.parametrize("item", [
    "tau", "warp_speed=9", "nu=", "hidden_dim=1.5", "tau=fast", "cross_view_supports=2",
])
def test_malformed_overrides(item):
    with pytest.raises(ConfigError):
        apply_overrides({}, [item])


@pytest.mark.parametrize("key, raw", [
    ("sparse_features", "auto"), ("mask_mode", "column"), ("cross_view_supports", "false"),
])
def test_removed_keys_are_unknown(key, raw):
    """Former keys are rejected like any unknown key; there is no legacy reader."""
    with pytest.raises(ConfigError, match=f"cfg:1: unknown key '{key}'"):
        parse_config_text(f"{key} = {raw}\n", source="cfg")
    with pytest.raises(ConfigError, match=f"--set: unknown key '{key}'"):
        apply_overrides({}, [f"{key}={raw}"])


def test_overrides_win_over_the_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("tau = 0.2\nnu = 0.5\n")
    values = apply_overrides(load_config_file(str(path)), ["nu=0.7", " seed = 4 "])
    assert values == {"tau": 0.2, "nu": 0.7, "seed": 4}


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(str(tmp_path / "absent.cfg"))


def test_readme_configuration_table_names_every_field():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    documented = [key for cell in rows for key in re.findall(r"`(\w+)`", cell)]
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(TrainConfig))


def test_shipped_configs_hold_the_defaults():
    paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
    assert paths
    for path in paths:
        assert build_train_config(load_config_file(path)) == TrainConfig(), path


# ---------------------------------------------------------------------------
# record validation


@pytest.mark.parametrize("key", [
    f.name for f in dataclasses.fields(TrainConfig) if f.type is float
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_float_fields_must_be_finite(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        TrainConfig(**{key: value})


def test_weight_decay_must_not_be_negative():
    with pytest.raises(ConfigError, match="weight_decay"):
        TrainConfig(weight_decay=-5.0)
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


# ---------------------------------------------------------------------------
# round trip


def _probability():
    return st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def configs(draw):
    weak_mask, strong_mask = sorted((draw(_probability()), draw(_probability())))
    weak_drop, strong_drop = sorted((draw(_probability()), draw(_probability())))
    positive = st.floats(1e-300, 1e300, allow_nan=False)
    return TrainConfig(
        hidden_dim=draw(st.integers(1, 4096)),
        embed_dim=draw(st.integers(1, 4096)),
        learning_rate=draw(positive),
        weight_decay=draw(st.floats(0.0, 1e300, allow_nan=False)),
        dropout=draw(_probability()),
        max_epochs=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        snn_inference=draw(st.booleans()),
        tau=draw(positive),
        nu=draw(st.floats(0.0, 1.0)),
        lambda1=draw(st.floats(0.0, 1e300, allow_nan=False)),
        lambda2=draw(st.floats(0.0, 1e300, allow_nan=False)),
        weak_feature_mask=weak_mask,
        weak_edge_drop=weak_drop,
        strong_feature_mask=strong_mask,
        strong_edge_drop=strong_drop,
    )


@settings(max_examples=60, deadline=None)
@given(cfg=configs())
def test_config_text_round_trip(cfg):
    text = "".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(cfg).items())
    parsed = build_train_config(parse_config_text(text))
    assert parsed == cfg
    assert config_fingerprint(parsed) == config_fingerprint(cfg)
