"""The five network families and their wiring.

All families run their encoders at 1/8 input resolution, attach per-pixel
1x1 classifier heads there, and upsample the logits back to input size.

  dscd-e   one encoder over both images stacked to 6 channels, two heads
           over N+1 classes each (class 0 = no change baked into the heads).
  dscd-l   shared encoder per image, change trunk on the feature pair, the
           same two (N+1)-class heads reading the trunk output.
  sscd-e   shared temporal encoder per image plus a separate 6-channel change
           encoder; two N-class semantic heads and a 1-logit change head.
  sscd-l   like sscd-e but the change branch is the late-fusion trunk over
           the shared temporal features.
  bisrnet  sscd-l plus self-attention on each temporal feature map (weights
           shared across time) and cross-temporal attention feeding the
           semantic heads.  The change trunk reads the self-attended maps,
           before the cross-temporal exchange.

One table, `_WIRING`, defines these wirings.  `build` reads it, and
`Network.forward` is one path over whichever components exist.

Weight sharing is by instance reuse, so shared parameters appear exactly once
in `named_parameters` and one optimizer step keeps the branches identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blocks import (CDBlock, CotSR, Encoder, EncoderConfig, PixelClassifier,
                     SiamSR)
from .errors import ConfigError, DimensionError
from .tensor import (Tensor, concat_channels, enable_grad, macs, stable_sigmoid,
                     upsample_bilinear, upsample_nearest)

# Fixed per-component seed streams keep shared components bit-identical across
# families built from the same seed (a bisrnet and an sscd-l then differ only
# by the attention blocks).
_STREAMS = {"encoder": 0, "change_encoder": 1, "cd": 2, "sr": 3, "cotsr": 4,
            "head_p1": 5, "head_p2": 6, "head_c": 7, "head_s1": 8, "head_s2": 9}


@dataclass(frozen=True)
class _Wiring:
    stacked: bool        # one encoder over both images stacked to 6 channels
    change: str | None   # change branch: "cd" trunk, "change_encoder" or None
    attention: bool      # SiamSR on each temporal map, CotSR across them
    joint: bool          # (N+1)-class heads s1/s2, else N-class p1/p2 plus change head c


_WIRING = {
    "dscd-e": _Wiring(stacked=True, change=None, attention=False, joint=True),
    "dscd-l": _Wiring(stacked=False, change="cd", attention=False, joint=True),
    "sscd-e": _Wiring(stacked=False, change="change_encoder", attention=False, joint=False),
    "sscd-l": _Wiring(stacked=False, change="cd", attention=False, joint=False),
    "bisrnet": _Wiring(stacked=False, change="cd", attention=True, joint=False),
}

FAMILIES = tuple(_WIRING)

_ALIASES = {"bi-srnet": "bisrnet", "bisr-net": "bisrnet"}

# Parameter order: these components, then the heads in insertion order.  The
# checkpoint format depends on it.
_COMPONENTS = ("encoder", "change_encoder", "sr", "cotsr", "cd")


def normalize_family(name):
    tag = str(name).strip().lower()
    tag = _ALIASES.get(tag, tag)
    if tag not in FAMILIES:
        raise ConfigError(f"unknown network family {name!r}, expected one of {', '.join(FAMILIES)}")
    return tag


@dataclass
class ForwardOutput:
    """Per-pixel logits at input resolution plus the derived label maps.

    For the dscd families `p1`/`p2` hold N+1 classes (0 = no change) and `c`
    is None; for the rest they hold N semantic classes and `c` is the change
    logit map.  `s1`/`s2` are integer label maps in {0..N} and share their
    zero set whenever `c` exists.
    """

    p1: Tensor
    p2: Tensor
    c: Tensor | None
    s1: np.ndarray
    s2: np.ndarray


def _as_map(x):
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    return arr[0] if arr.ndim == 3 and arr.shape[0] == 1 else arr


def mask_semantic(p1, p2, c, threshold=0.5):
    """Gate semantic argmaxes by the change probability.

    Pixels with sigmoid(change logit) >= threshold get label 1 + argmax of
    their semantic logits; the rest get 0.  By construction the two returned
    maps share their zero set.
    """
    l1 = p1.data if isinstance(p1, Tensor) else np.asarray(p1, dtype=np.float64)
    l2 = p2.data if isinstance(p2, Tensor) else np.asarray(p2, dtype=np.float64)
    changed = stable_sigmoid(_as_map(c)) >= threshold
    if changed.shape != l1.shape[1:] or l1.shape != l2.shape:
        raise DimensionError(f"mask_semantic: shapes {l1.shape}/{l2.shape}/{changed.shape} do not line up")
    s1 = np.where(changed, 1 + np.argmax(l1, axis=0), 0).astype(np.int64)
    s2 = np.where(changed, 1 + np.argmax(l2, axis=0), 0).astype(np.int64)
    return s1, s2


def mask_disagreement(s1, s2):
    """Fraction of pixels whose change/no-change status differs between maps."""
    z1 = np.asarray(s1) == 0
    z2 = np.asarray(s2) == 0
    if z1.shape != z2.shape:
        raise DimensionError(f"mask_disagreement: shapes {z1.shape} and {z2.shape} differ")
    return np.count_nonzero(z1 != z2) / z1.size if z1.size else 0.0


class Network:
    def __init__(self, family, num_classes, threshold, upsample_mode):
        self.family = family
        self.num_classes = num_classes
        self.wiring = _WIRING[family]
        self.threshold = threshold
        self.upsample_mode = upsample_mode
        self.encoder = None
        self.change_encoder = None
        self.sr = None
        self.cotsr = None
        self.cd = None
        self.heads = {}
        self._flops = {}  # (h, w) -> estimate_flops, fixed by the structure

    # -- parameters ---------------------------------------------------------

    def named_parameters(self):
        named = [(name, getattr(self, name)) for name in _COMPONENTS]
        named += [(f"head.{key}", head) for key, head in self.heads.items()]
        out = []
        for name, block in named:
            if block is not None:
                out += block.named_params(name)
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def count_params(self):
        return sum(t.data.size for t in self.parameters())

    # -- flops --------------------------------------------------------------

    def estimate_flops(self, h, w):
        """2 * multiply-adds of every conv2d and matmul at the given input size
        (activations free), counted on the graph of one forward pass on zero
        images.  The cost is that of a forward pass, and grows with the size:
        attention is quadratic in the number of positions.  The count depends
        only on the structure, so it is kept per (h, w) after the first call.
        The graph is recorded inside a `no_grad()` block too."""
        if (h, w) not in self._flops:
            zeros = Tensor(np.zeros((3, h, w)))
            # not the public `forward`: a tracer that wraps it may call this from inside
            with enable_grad():
                logits = self._logits(zeros, zeros)
            self._flops[h, w] = 2 * macs(*(t for t in logits if t is not None))
        return self._flops[h, w]

    # -- forward ------------------------------------------------------------

    def _upsample(self, x):
        up = upsample_bilinear if self.upsample_mode == "bilinear" else upsample_nearest
        return up(x, 8)

    def forward(self, i1, i2):
        if not isinstance(i1, Tensor) or not isinstance(i2, Tensor):
            raise DimensionError("forward: inputs must be tensors (see data.image_to_tensor)")
        if i1.shape != i2.shape:
            raise DimensionError(f"forward: input shapes {i1.shape} and {i2.shape} differ")
        p1, p2, c = self._logits(i1, i2)
        if c is None:
            return ForwardOutput(p1, p2, None,
                                 np.argmax(p1.data, axis=0), np.argmax(p2.data, axis=0))
        s1, s2 = mask_semantic(p1, p2, c, self.threshold)
        return ForwardOutput(p1, p2, c, s1, s2)

    def _logits(self, i1, i2):
        """Upsampled logits (p1, p2, c) of one image pair; c is None for joint heads."""
        if self.wiring.stacked:
            f1 = f2 = self.encoder(concat_channels(i1, i2))
        else:
            f1, f2 = self.encoder(i1), self.encoder(i2)
        if self.sr is not None:
            f1, f2 = self.sr(f1), self.sr(f2)
        # the change trunk reads the self-attended maps, not the exchanged ones
        change = None
        if self.cd is not None:
            change = self.cd(f1, f2)
        elif self.change_encoder is not None:
            change = self.change_encoder(concat_channels(i1, i2))
        if self.cotsr is not None:
            f1, f2 = self.cotsr(f1, f2)

        if "c" not in self.heads:
            # joint heads carry no-change as class 0 and read the trunk if there is one
            trunk = f1 if change is None else change
            return (self._upsample(self.heads["s1"](trunk)),
                    self._upsample(self.heads["s2"](trunk)), None)
        return (self._upsample(self.heads["p1"](f1)), self._upsample(self.heads["p2"](f2)),
                self._upsample(self.heads["c"](change)))


def build(family, num_classes=4, seed=0, encoder=None, cd_width=48, cd_units=6,
          reduction=2, cotsr_shared=True, threshold=0.5, upsample="nearest"):
    """Assemble a family from its `_WIRING` row, with per-component seeding."""
    family = normalize_family(family)
    if num_classes < 2:
        raise ConfigError(f"need at least 2 semantic classes, got {num_classes}")
    if upsample not in ("nearest", "bilinear"):
        raise ConfigError(f"unknown upsample mode {upsample!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"mask threshold must lie in [0, 1], got {threshold}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    cfg = encoder or EncoderConfig()
    cfg.validate()
    if cfg.in_channels != 3:
        raise ConfigError(f"temporal encoder expects 3-channel images, got {cfg.in_channels}")

    def rng(component):
        return np.random.default_rng([int(seed), _STREAMS[component]])

    net = Network(family, num_classes, threshold, upsample)
    wiring = net.wiring
    stacked = replace(cfg, in_channels=6)
    net.encoder = Encoder(stacked if wiring.stacked else cfg, rng("encoder"))
    c_enc = net.encoder.out_channels
    if wiring.change == "cd":
        net.cd = CDBlock(c_enc, cd_width, cd_units, rng("cd"))
    elif wiring.change == "change_encoder":
        net.change_encoder = Encoder(stacked, rng("change_encoder"))
    if wiring.attention:
        net.sr = SiamSR(c_enc, reduction, rng("sr"))
        net.cotsr = CotSR(c_enc, reduction, rng("cotsr"), shared=cotsr_shared)

    c_change = cd_width if net.cd is not None else c_enc
    n = num_classes
    if wiring.joint:
        shapes = {"s1": (c_change, n + 1), "s2": (c_change, n + 1)}
    else:
        shapes = {"p1": (c_enc, n), "p2": (c_enc, n), "c": (c_change, 1)}
    for key, (c_in, c_out) in shapes.items():
        net.heads[key] = PixelClassifier(c_in, c_out, rng(f"head_{key}"))
    return net
