"""Plain-text run configuration.

Config files are lines of `key = value`; `#` starts a comment and blank
lines are ignored.  Unknown keys are rejected so typos fail loudly.  Every
key has a default, collected in `Settings`; command-line flags override the
file afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .blocks import EncoderConfig
from .errors import ConfigError
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


@dataclass
class Settings:
    family: str = "bisrnet"
    classes: int = 4
    encoder_channels: tuple = (16, 32, 64, 64)
    encoder_strides: tuple = (2, 2, 2, 1)
    encoder_units: tuple = (1, 1, 1, 1)
    encoder_norm: str = "none"
    cd_width: int = 48
    cd_units: int = 6
    sr_r: int = 2
    cotsr_shared: bool = True
    mask_threshold: float = 0.5
    upsample_mode: str = "nearest"
    loss_sc_mode: str = "intent"
    loss_sc_space: str = "prob"
    loss_sc: str = "auto"
    batch_size: int = 8
    epochs: int = 50
    lr: float = 0.1
    momentum: float = 0.9
    lr_schedule: str = "poly"
    lr_power: float = 0.9
    seed: int = 0
    augment: bool = True
    generate_count: int = 20
    generate_size: int = 32
    generate_change_fraction: float = 0.2

    def encoder_config(self):
        return EncoderConfig(3, self.encoder_channels, self.encoder_strides,
                             self.encoder_units, self.encoder_norm)

    def train_config(self):
        return TrainConfig(batch_size=self.batch_size, epochs=self.epochs,
                           lr=self.lr, momentum=self.momentum,
                           schedule=self.lr_schedule, poly_power=self.lr_power,
                           seed=self.seed, augment=self.augment,
                           sc_mode=self.loss_sc_mode, sc_space=self.loss_sc_space,
                           use_sc=self.loss_sc)

    def build_kwargs(self):
        return dict(num_classes=self.classes, seed=self.seed,
                    encoder=self.encoder_config(), cd_width=self.cd_width,
                    cd_units=self.cd_units, reduction=self.sr_r,
                    cotsr_shared=self.cotsr_shared, threshold=self.mask_threshold,
                    upsample=self.upsample_mode)


# file key -> (attribute, parser)
_KEYS = {
    "family": ("family", str),
    "classes": ("classes", int),
    "encoder.channels": ("encoder_channels", _parse_int_list),
    "encoder.strides": ("encoder_strides", _parse_int_list),
    "encoder.units": ("encoder_units", _parse_int_list),
    "encoder.norm": ("encoder_norm", str),
    "cd.width": ("cd_width", int),
    "cd.units": ("cd_units", int),
    "sr.r": ("sr_r", int),
    "cotsr.shared": ("cotsr_shared", _parse_bool),
    "mask.threshold": ("mask_threshold", float),
    "upsample.mode": ("upsample_mode", str),
    "loss.sc_mode": ("loss_sc_mode", str),
    "loss.sc_space": ("loss_sc_space", str),
    "loss.sc": ("loss_sc", str),
    "train.batch_size": ("batch_size", int),
    "train.epochs": ("epochs", int),
    "train.lr": ("lr", float),
    "train.momentum": ("momentum", float),
    "train.seed": ("seed", int),
    "train.augment": ("augment", _parse_bool),
    "lr.schedule": ("lr_schedule", str),
    "lr.power": ("lr_power", float),
    "generate.count": ("generate_count", int),
    "generate.size": ("generate_size", int),
    "generate.change_fraction": ("generate_change_fraction", float),
}


def parse_config(path):
    """Read a `key = value` file into a Settings object."""
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
        attr, parse = _KEYS[key]
        try:
            setattr(settings, attr, parse(value))
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from None
    return settings


def describe_defaults():
    """One line per key with its default, for --help output."""
    base = Settings()
    lines = []
    for key, (attr, _) in _KEYS.items():
        v = getattr(base, attr)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"  {key} = {v}")
    return "\n".join(lines)
