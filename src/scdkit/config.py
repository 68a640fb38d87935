"""Plain-text run configuration.

Config files are lines of `key = value`; `#` starts a comment and blank
lines are ignored.  Unknown keys are rejected so typos fail loudly.  Each
key is one `_KEYS` row naming the builder its value feeds; its default is
that builder's own, so it is written down once.  Command-line flags
override the file afterwards.
"""

from __future__ import annotations

import inspect
from pathlib import Path

from .blocks import EncoderConfig
from .data import generate_synthetic
from .errors import ConfigError
from .networks import build
from .train import TrainConfig


def _parse_bool(text):
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# file key -> (builder the value feeds, its name there, parser)
_KEYS = {
    "family": (None, "family", str),
    "classes": (build, "num_classes", int),
    "encoder.channels": (EncoderConfig, "stage_channels", _parse_int_list),
    "encoder.strides": (EncoderConfig, "strides", _parse_int_list),
    "encoder.units": (EncoderConfig, "units_per_stage", _parse_int_list),
    "encoder.norm": (EncoderConfig, "norm", str),
    "cd.width": (build, "cd_width", int),
    "cd.units": (build, "cd_units", int),
    "sr.r": (build, "reduction", int),
    "cotsr.shared": (build, "cotsr_shared", _parse_bool),
    "mask.threshold": (build, "threshold", float),
    "upsample.mode": (build, "upsample", str),
    "loss.sc_mode": (TrainConfig, "sc_mode", str),
    "loss.sc_space": (TrainConfig, "sc_space", str),
    "loss.sc": (TrainConfig, "use_sc", str),
    "train.batch_size": (TrainConfig, "batch_size", int),
    "train.epochs": (TrainConfig, "epochs", int),
    "train.lr": (TrainConfig, "lr", float),
    "train.momentum": (TrainConfig, "momentum", float),
    "train.seed": (TrainConfig, "seed", int),
    "train.augment": (TrainConfig, "augment", _parse_bool),
    "lr.schedule": (TrainConfig, "schedule", str),
    "lr.power": (TrainConfig, "poly_power", float),
    "generate.count": (generate_synthetic, "count", int),
    "generate.size": (generate_synthetic, "height", int),  # and the width
    "generate.change_fraction": (generate_synthetic, "change_fraction", float),
}


def _default(builder, name):
    if builder is None:
        return "bisrnet"  # build takes the family without a default
    return inspect.signature(builder).parameters[name].default


class Settings(dict):
    """File key -> value, starting from the defaults of the builders."""

    def __init__(self):
        super().__init__((key, _default(builder, name))
                         for key, (builder, name, _) in _KEYS.items())

    def _select(self, builder):
        return {name: self[key] for key, (b, name, _) in _KEYS.items() if b is builder}

    def encoder_config(self):
        return EncoderConfig(**self._select(EncoderConfig))

    def train_config(self):
        return TrainConfig(**self._select(TrainConfig))

    def build_kwargs(self):
        return dict(self._select(build), seed=self["train.seed"],
                    encoder=self.encoder_config())


def parse_config(path):
    """Read a `key = value` file into a Settings mapping."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not valid UTF-8 ({e})") from None
    settings = Settings()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            settings[key] = _KEYS[key][2](value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from None
    return settings


def describe_defaults():
    """One line per key with its default, for --help output."""
    lines = []
    for key, v in Settings().items():
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"  {key} = {v}")
    return "\n".join(lines)
