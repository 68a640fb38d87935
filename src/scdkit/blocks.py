"""Network building blocks and checkpoint serialization.

Blocks are plain callables over `tensor.Tensor` values.  Weight sharing is
expressed by reusing a block instance, so shared branches literally hold the
same parameter tensors and gradient accumulation does the rest.  Convolutions
inside blocks carry no bias; only the per-pixel classifier heads do.  Batch
statistics degenerate at this scale, so normalization defaults to off; an
optional learned per-channel affine (`norm="affine"`) can stand in for it.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .tensor import (Tensor, add, concat_channels, conv2d, matmul, relu,
                     reshape, row_bias, row_scale, softmax_rows, transpose)


def he_weights(rng, shape, fan_in):
    """Kaiming-style scaled Gaussian draw, std = sqrt(2 / fan_in)."""
    return Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape), requires_grad=True)


def zero_weights(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


class _Affine:
    """Learned per-channel scale and shift (no running statistics)."""

    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)

    def __call__(self, x):
        c, h, w = x.shape
        flat = reshape(x, (c, h * w))
        return reshape(row_bias(row_scale(flat, self.gamma), self.beta), (c, h, w))

    def named_params(self, prefix):
        return [(prefix + ".gamma", self.gamma), (prefix + ".beta", self.beta)]


class ResidualUnit:
    """relu(x + F(x)) with F = 3x3 conv -> relu -> 3x3 conv, channel-preserving.

    With zero-initialized convolutions the unit reduces to relu(x).
    """

    def __init__(self, channels, rng, norm="none"):
        self.channels = channels
        self.conv1 = he_weights(rng, (channels, channels, 3, 3), fan_in=9 * channels)
        self.conv2 = he_weights(rng, (channels, channels, 3, 3), fan_in=9 * channels)
        self.affine1 = _Affine(channels) if norm == "affine" else None
        self.affine2 = _Affine(channels) if norm == "affine" else None

    def __call__(self, x):
        if x.shape[0] != self.channels:
            raise DimensionError(f"residual unit: expected {self.channels} channels, got shape {x.shape}")
        h = conv2d(x, self.conv1, stride=1, padding=1)
        if self.affine1 is not None:
            h = self.affine1(h)
        h = relu(h)
        h = conv2d(h, self.conv2, stride=1, padding=1)
        if self.affine2 is not None:
            h = self.affine2(h)
        return relu(add(x, h))

    def named_params(self, prefix):
        out = [(prefix + ".conv1", self.conv1), (prefix + ".conv2", self.conv2)]
        if self.affine1 is not None:
            out += self.affine1.named_params(prefix + ".affine1")
            out += self.affine2.named_params(prefix + ".affine2")
        return out


@dataclass
class EncoderConfig:
    """Stage layout of the strided encoder.

    The strides must multiply to 8 so features come out at 1/8 resolution.
    """

    in_channels: int = 3
    stage_channels: tuple = (16, 32, 64, 64)
    strides: tuple = (2, 2, 2, 1)
    units_per_stage: tuple = (1, 1, 1, 1)
    norm: str = "none"

    def validate(self):
        n = len(self.stage_channels)
        if len(self.strides) != n or len(self.units_per_stage) != n or n == 0:
            raise ConfigError(f"encoder config: stage lists must have equal nonzero length, "
                              f"got {self.stage_channels}/{self.strides}/{self.units_per_stage}")
        prod = 1
        for s in self.strides:
            prod *= s
        if prod != 8:
            raise ConfigError(f"encoder config: strides {self.strides} multiply to {prod}, need 8")
        if self.norm not in ("none", "affine"):
            raise ConfigError(f"encoder config: unknown norm {self.norm!r}")
        if any(c < 1 for c in self.stage_channels) or any(u < 0 for u in self.units_per_stage):
            raise ConfigError("encoder config: channels must be >= 1 and unit counts >= 0")


class Encoder:
    """Stack of strided 3x3 conv stages with residual units, output at 1/8 resolution."""

    def __init__(self, config, rng):
        config.validate()
        self.config = config
        self.stages = []
        c_in = config.in_channels
        for c_out, stride, units in zip(config.stage_channels, config.strides,
                                        config.units_per_stage):
            conv = he_weights(rng, (c_out, c_in, 3, 3), fan_in=9 * c_in)
            affine = _Affine(c_out) if config.norm == "affine" else None
            blocks = [ResidualUnit(c_out, rng, config.norm) for _ in range(units)]
            self.stages.append((conv, stride, affine, blocks))
            c_in = c_out
        self.out_channels = c_in

    def __call__(self, image):
        if image.shape[0] != self.config.in_channels:
            raise DimensionError(f"encoder: expected {self.config.in_channels} input channels, "
                                 f"got shape {image.shape}")
        _, h, w = image.shape
        if h % 8 or w % 8:
            raise DimensionError(f"encoder: spatial dims must be divisible by 8, got {h}x{w}")
        x = image
        for conv, stride, affine, blocks in self.stages:
            x = conv2d(x, conv, stride=stride, padding=1)
            if affine is not None:
                x = affine(x)
            x = relu(x)
            for unit in blocks:
                x = unit(x)
        return x

    def named_params(self, prefix):
        out = []
        for i, (conv, _, affine, blocks) in enumerate(self.stages):
            stage = f"{prefix}.stage{i}"
            out.append((stage + ".conv", conv))
            if affine is not None:
                out += affine.named_params(stage + ".affine")
            for j, unit in enumerate(blocks):
                out += unit.named_params(f"{stage}.unit{j}")
        return out


class CDBlock:
    """Late-fusion change trunk: concat both branches, fuse by 1x1 conv, refine
    with a stack of residual units at the (narrower) working width."""

    def __init__(self, in_channels, width, units, rng):
        if width < 1 or units < 0:
            raise ConfigError(f"cd block: bad width/units {width}/{units}")
        self.fuse = he_weights(rng, (width, 2 * in_channels, 1, 1), fan_in=2 * in_channels)
        self.units = [ResidualUnit(width, rng) for _ in range(units)]

    def __call__(self, x1, x2):
        if x1.shape != x2.shape:
            raise DimensionError(f"cd block: branch shapes {x1.shape} and {x2.shape} differ")
        y = relu(conv2d(concat_channels(x1, x2), self.fuse))
        for unit in self.units:
            y = unit(y)
        return y

    def named_params(self, prefix):
        out = [(prefix + ".fuse", self.fuse)]
        for j, unit in enumerate(self.units):
            out += unit.named_params(f"{prefix}.unit{j}")
        return out


class _AttentionProjections:
    """Query/key/value 1x1 projections shared by both attention blocks.

    Queries and keys live in a reduced space (channels / r); the value
    projection keeps full width and starts at zero so the enclosing block
    begins life as an identity map.
    """

    def __init__(self, channels, r, rng):
        if r < 1 or channels % r:
            raise ConfigError(f"attention: channel count {channels} not divisible by reduction {r}")
        self.channels = channels
        reduced = channels // r
        self.query = he_weights(rng, (reduced, channels), fan_in=channels)
        self.key = he_weights(rng, (reduced, channels), fan_in=channels)
        self.value = zero_weights((channels, channels))

    def attention(self, flat):
        # rows of the result sum to one: row j holds position j's mixing weights
        q = transpose(matmul(self.query, flat))
        k = matmul(self.key, flat)
        return softmax_rows(matmul(q, k))

    def mix(self, flat, att):
        # position j of the result adds the value projections weighted by row j of att
        return add(flat, matmul(matmul(self.value, flat), transpose(att)))

    def named_params(self, prefix):
        return [(prefix + ".query", self.query), (prefix + ".key", self.key),
                (prefix + ".value", self.value)]


class SiamSR:
    """Self-attention over spatial positions, added residually onto the input.

    Output position j mixes value projections of all positions with the
    weights of attention row j (the row convention is what makes the weights
    sum to one).  Reused as-is on both temporal branches, so the branches
    share every parameter.
    """

    def __init__(self, channels, r, rng):
        self.proj = _AttentionProjections(channels, r, rng)

    def __call__(self, x):
        c, h, w = x.shape
        if c != self.proj.channels:
            raise DimensionError(f"siam-sr: expected {self.proj.channels} channels, got shape {x.shape}")
        flat = reshape(x, (c, h * w))
        return reshape(self.proj.mix(flat, self.proj.attention(flat)), (c, h, w))

    def named_params(self, prefix):
        return self.proj.named_params(prefix)


class CotSR:
    """Cross-temporal attention: each branch adds its own value projections
    weighted by the attention map computed on the *other* branch.

    Whether the two branches share their projection weights is configurable;
    they do by default (`shared=True`).
    """

    def __init__(self, channels, r, rng, shared=True):
        self.shared = bool(shared)
        self.branch1 = _AttentionProjections(channels, r, rng)
        self.branch2 = self.branch1 if self.shared else _AttentionProjections(channels, r, rng)

    def __call__(self, x1, x2):
        if x1.shape != x2.shape:
            raise DimensionError(f"cot-sr: branch shapes {x1.shape} and {x2.shape} differ")
        c, h, w = x1.shape
        if c != self.branch1.channels:
            raise DimensionError(f"cot-sr: expected {self.branch1.channels} channels, got shape {x1.shape}")
        f1 = reshape(x1, (c, h * w))
        f2 = reshape(x2, (c, h * w))
        a1 = self.branch1.attention(f1)
        a2 = self.branch2.attention(f2)
        return (reshape(self.branch1.mix(f1, a2), (c, h, w)),
                reshape(self.branch2.mix(f2, a1), (c, h, w)))

    def named_params(self, prefix):
        out = self.branch1.named_params(prefix + ".branch1")
        if not self.shared:
            out += self.branch2.named_params(prefix + ".branch2")
        return out


class PixelClassifier:
    """Per-pixel linear head (a 1x1 convolution with bias) emitting logits."""

    def __init__(self, in_channels, out_channels, rng):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = he_weights(rng, (out_channels, in_channels), fan_in=in_channels)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def __call__(self, x):
        c, h, w = x.shape
        if c != self.in_channels:
            raise DimensionError(f"classifier head: expected {self.in_channels} channels, got shape {x.shape}")
        flat = reshape(x, (c, h * w))
        return reshape(row_bias(matmul(self.weight, flat), self.bias),
                       (self.out_channels, h, w))

    def named_params(self, prefix):
        return [(prefix + ".weight", self.weight), (prefix + ".bias", self.bias)]


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"SCDK"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, named_params):
    """Write named parameters to a little-endian binary file.

    Layout: magic b"SCDK", version byte, u32 entry count, then per entry a
    u16 name length + UTF-8 name, u8 ndim, one u32 per dim, and the float64
    values in row-major order.
    """
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<B", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(named_params)))
        for name, t in named_params:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            arr = np.ascontiguousarray(t.data, dtype="<f8")
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint back as an ordered list of (name, ndarray)."""

    def take(f, n, what):
        # checked before reading, so a huge declared shape allocates nothing
        if n > size - f.tell():
            raise DataError(f"{path}: truncated checkpoint while reading {what}")
        return f.read(n)

    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if take(f, 4, "magic") != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file (bad magic)")
        version = struct.unpack("<B", take(f, 1, "version"))[0]
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        count = struct.unpack("<I", take(f, 4, "entry count"))[0]
        entries = []
        for _ in range(count):
            nlen = struct.unpack("<H", take(f, 2, "name length"))[0]
            try:
                name = take(f, nlen, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: checkpoint entry name is not valid UTF-8") from None
            ndim = struct.unpack("<B", take(f, 1, "ndim"))[0]
            shape = tuple(struct.unpack("<I", take(f, 4, "dim"))[0] for _ in range(ndim))
            n = 1
            for d in shape:
                n *= d
            raw = take(f, 8 * n, f"values of {name}")
            try:
                data = np.frombuffer(raw, dtype="<f8").reshape(shape)
            except ValueError as e:  # more dimensions than numpy supports
                raise DataError(f"{path}: entry {name!r} has unsupported shape ({e})") from None
            entries.append((name, np.ascontiguousarray(data, dtype=np.float64)))
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after last checkpoint entry")
    return entries


def restore_checkpoint(path, named_params):
    """Load values from `path` into existing tensors, matching names and shapes."""
    loaded = dict(load_checkpoint(path))
    for name, t in named_params:
        if name not in loaded:
            raise DataError(f"{path}: checkpoint is missing parameter {name!r}")
        arr = loaded.pop(name)
        if arr.shape != t.data.shape:
            raise DataError(f"{path}: parameter {name!r} has shape {arr.shape}, "
                            f"expected {t.data.shape}")
        t.data = arr
    if loaded:
        extra = sorted(loaded)[0]
        raise DataError(f"{path}: checkpoint has {len(loaded)} unknown parameter(s), e.g. {extra!r}")
