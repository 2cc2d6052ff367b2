"""The training configuration: one flat record whose fields are the keys
of the key=value file format, so each default is written once.

Grammar: one `key = value` per line; `#` starts a comment; blank lines are
ignored. Values are typed by the field (int, float or bool); unknown
keys are rejected. Command-line `--set key=value` overrides win over the
file. The flat view echoed into artifacts is `dataclasses.asdict`.
"""

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 128
    embed_dim: int = 128
    learning_rate: float = 0.001
    weight_decay: float = 5e-4
    dropout: float = 0.5
    max_epochs: int = 500
    seed: int = 1
    snn_inference: bool = False      # classify by clean-graph SNN argmax
    tau: float = 0.1
    nu: float = 0.9
    lambda1: float = 1.0
    lambda2: float = 1.0
    weak_feature_mask: float = 0.3
    weak_edge_drop: float = 0.3
    strong_feature_mask: float = 0.5
    strong_edge_drop: float = 0.5

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for name in ("hidden_dim", "embed_dim", "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.tau <= 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.nu <= 1.0:
            raise ConfigError(f"nu must be in [0,1], got {self.nu}")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ConfigError("loss coefficients must be non-negative")
        for name in ("dropout", "weak_feature_mask", "weak_edge_drop",
                     "strong_feature_mask", "strong_edge_drop"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must be in [0,1), got {p}")
        if (
            self.weak_feature_mask > self.strong_feature_mask
            or self.weak_edge_drop > self.strong_edge_drop
        ):
            raise ConfigError("weak augmentation must not exceed the strong one")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_PARSERS = {f.name: _parse_bool if f.type is bool else f.type
            for f in dataclasses.fields(TrainConfig)}


def _parse_item(item: str, where: str) -> tuple[str, object]:
    """One `key = value` string to its key and typed value."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    key, _, raw = item.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not raw:
        raise ConfigError(f"{where}: empty value for {key!r}")
    try:
        return key, _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Raw text to a typed key/value dict; unknown keys are an error."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            key, value = _parse_item(stripped, f"{source}:{lineno}")
            values[key] = value
    return values


def load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    return parse_config_text(text, source=path)


def apply_overrides(values: dict, overrides: list[str], where: str = "--set") -> dict:
    """Merge `key=value` strings (e.g. from repeated --set flags), flags winning."""
    merged = dict(values)
    for item in overrides:
        key, value = _parse_item(item, where)
        merged[key] = value
    return merged


def build_train_config(values: dict) -> TrainConfig:
    """The record for parsed values; unset keys keep their defaults and the
    field validators run here."""
    return TrainConfig(**values)
