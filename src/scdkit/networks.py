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

Weight sharing is by instance reuse, so shared parameters appear exactly once
in `named_parameters` and one optimizer step keeps the branches identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (CDBlock, CotSR, Encoder, EncoderConfig, PixelClassifier,
                     SiamSR)
from .errors import ConfigError, DimensionError
from .tensor import (Tensor, concat_channels, stable_sigmoid,
                     upsample_bilinear, upsample_nearest)

FAMILIES = ("dscd-e", "dscd-l", "sscd-e", "sscd-l", "bisrnet")

_ALIASES = {"bi-srnet": "bisrnet", "bisr-net": "bisrnet"}

# Fixed per-component seed streams keep shared components bit-identical across
# families built from the same seed (a bisrnet and an sscd-l then differ only
# by the attention blocks).
_STREAMS = {"encoder": 0, "change_encoder": 1, "cd": 2, "sr": 3, "cotsr": 4,
            "head_p1": 5, "head_p2": 6, "head_c": 7, "head_s1": 8, "head_s2": 9}


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
    return float((z1 != z2).mean()) if z1.size else 0.0


class Network:
    def __init__(self, family, num_classes, encoder_config, threshold, upsample_mode):
        self.family = family
        self.num_classes = num_classes
        self.encoder_config = encoder_config
        self.threshold = threshold
        self.upsample_mode = upsample_mode
        self._named = []       # (name, block) pairs in build order
        self.encoder = None
        self.change_encoder = None
        self.cd = None
        self.sr = None
        self.cotsr = None
        self.heads = {}

    # -- parameters ---------------------------------------------------------

    def _components(self):
        return [(n, b) for n, b in self._named if b is not None]

    def named_parameters(self):
        out = []
        for name, block in self._components():
            out += block.named_params(name)
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def count_params(self):
        return sum(t.data.size for t in self.parameters())

    # -- flops --------------------------------------------------------------

    def estimate_flops(self, h, w):
        """2 * multiply-adds of every conv/matmul at the given input size."""
        if h % 8 or w % 8:
            raise DimensionError(f"estimate_flops: spatial dims must be divisible by 8, got {h}x{w}")
        fh, fw = h // 8, w // 8
        macs = 0
        for name, block in self._components():
            if name in ("encoder", "change_encoder"):
                passes = 2 if (name == "encoder" and self.family != "dscd-e") else 1
                macs += passes * block.macs(h, w)
            elif name == "sr":
                macs += 2 * block.macs(fh, fw)  # applied to both temporal branches
            else:
                macs += block.macs(fh, fw)
        return 2 * macs

    # -- forward ------------------------------------------------------------

    def _upsample(self, x):
        up = upsample_bilinear if self.upsample_mode == "bilinear" else upsample_nearest
        return up(x, 8)

    def forward(self, i1, i2):
        if not isinstance(i1, Tensor) or not isinstance(i2, Tensor):
            raise DimensionError("forward: inputs must be tensors (see data.image_to_tensor)")
        if i1.shape != i2.shape:
            raise DimensionError(f"forward: input shapes {i1.shape} and {i2.shape} differ")

        if self.family == "dscd-e":
            feat = self.encoder(concat_channels(i1, i2))
            p1 = self._upsample(self.heads["s1"](feat))
            p2 = self._upsample(self.heads["s2"](feat))
            return ForwardOutput(p1, p2, None,
                                 np.argmax(p1.data, axis=0), np.argmax(p2.data, axis=0))

        if self.family == "dscd-l":
            trunk = self.cd(self.encoder(i1), self.encoder(i2))
            p1 = self._upsample(self.heads["s1"](trunk))
            p2 = self._upsample(self.heads["s2"](trunk))
            return ForwardOutput(p1, p2, None,
                                 np.argmax(p1.data, axis=0), np.argmax(p2.data, axis=0))

        if self.family == "sscd-e":
            f1, f2 = self.encoder(i1), self.encoder(i2)
            fc = self.change_encoder(concat_channels(i1, i2))
            p1 = self._upsample(self.heads["p1"](f1))
            p2 = self._upsample(self.heads["p2"](f2))
            c = self._upsample(self.heads["c"](fc))
        elif self.family == "sscd-l":
            f1, f2 = self.encoder(i1), self.encoder(i2)
            p1 = self._upsample(self.heads["p1"](f1))
            p2 = self._upsample(self.heads["p2"](f2))
            c = self._upsample(self.heads["c"](self.cd(f1, f2)))
        else:  # bisrnet
            x1 = self.sr(self.encoder(i1))
            x2 = self.sr(self.encoder(i2))
            # the change trunk reads the self-attended maps, not the exchanged ones
            c = self._upsample(self.heads["c"](self.cd(x1, x2)))
            y1, y2 = self.cotsr(x1, x2)
            p1 = self._upsample(self.heads["p1"](y1))
            p2 = self._upsample(self.heads["p2"](y2))

        s1, s2 = mask_semantic(p1, p2, c, self.threshold)
        return ForwardOutput(p1, p2, c, s1, s2)


def build(family, num_classes=4, seed=0, encoder=None, cd_width=48, cd_units=6,
          reduction=2, cotsr_shared=True, threshold=0.5, upsample="nearest"):
    """Assemble a network family with deterministic, per-component seeding."""
    family = normalize_family(family)
    if num_classes < 2:
        raise ConfigError(f"need at least 2 semantic classes, got {num_classes}")
    if upsample not in ("nearest", "bilinear"):
        raise ConfigError(f"unknown upsample mode {upsample!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"mask threshold must lie in [0, 1], got {threshold}")
    cfg = encoder or EncoderConfig()
    cfg.validate()
    if cfg.in_channels != 3:
        raise ConfigError(f"temporal encoder expects 3-channel images, got {cfg.in_channels}")

    def rng(component):
        return np.random.default_rng([int(seed), _STREAMS[component]])

    net = Network(family, num_classes, cfg, threshold, upsample)
    n = num_classes

    if family == "dscd-e":
        wide = EncoderConfig(6, cfg.stage_channels, cfg.strides, cfg.units_per_stage, cfg.norm)
        net.encoder = Encoder(wide, rng("encoder"))
        net.heads["s1"] = PixelClassifier(net.encoder.out_channels, n + 1, rng("head_s1"))
        net.heads["s2"] = PixelClassifier(net.encoder.out_channels, n + 1, rng("head_s2"))
        net._named = [("encoder", net.encoder), ("head.s1", net.heads["s1"]),
                      ("head.s2", net.heads["s2"])]
        return net

    net.encoder = Encoder(cfg, rng("encoder"))
    c_enc = net.encoder.out_channels

    if family == "dscd-l":
        net.cd = CDBlock(c_enc, cd_width, cd_units, rng("cd"))
        net.heads["s1"] = PixelClassifier(cd_width, n + 1, rng("head_s1"))
        net.heads["s2"] = PixelClassifier(cd_width, n + 1, rng("head_s2"))
        net._named = [("encoder", net.encoder), ("cd", net.cd),
                      ("head.s1", net.heads["s1"]), ("head.s2", net.heads["s2"])]
        return net

    net.heads["p1"] = PixelClassifier(c_enc, n, rng("head_p1"))
    net.heads["p2"] = PixelClassifier(c_enc, n, rng("head_p2"))

    if family == "sscd-e":
        wide = EncoderConfig(6, cfg.stage_channels, cfg.strides, cfg.units_per_stage, cfg.norm)
        net.change_encoder = Encoder(wide, rng("change_encoder"))
        net.heads["c"] = PixelClassifier(c_enc, 1, rng("head_c"))
        net._named = [("encoder", net.encoder), ("change_encoder", net.change_encoder),
                      ("head.p1", net.heads["p1"]), ("head.p2", net.heads["p2"]),
                      ("head.c", net.heads["c"])]
        return net

    net.cd = CDBlock(c_enc, cd_width, cd_units, rng("cd"))
    net.heads["c"] = PixelClassifier(cd_width, 1, rng("head_c"))
    if family == "sscd-l":
        net._named = [("encoder", net.encoder), ("cd", net.cd),
                      ("head.p1", net.heads["p1"]), ("head.p2", net.heads["p2"]),
                      ("head.c", net.heads["c"])]
        return net

    net.sr = SiamSR(c_enc, reduction, rng("sr"))
    net.cotsr = CotSR(c_enc, reduction, rng("cotsr"), shared=cotsr_shared)
    net._named = [("encoder", net.encoder), ("sr", net.sr), ("cotsr", net.cotsr),
                  ("cd", net.cd), ("head.p1", net.heads["p1"]),
                  ("head.p2", net.heads["p2"]), ("head.c", net.heads["c"])]
    return net
