"""Loss terms for the change-detection networks.

Three ingredients, combined unweighted by `total_loss`:

  * semantic cross entropy over changed pixels only (label 0 is skipped and
    the mean runs over the surviving pixels, unscaled by class count);
  * binary cross entropy of the change logit over all pixels;
  * a semantic-consistency penalty on the cosine between the two temporal
    class distributions at each pixel.

The consistency term has two signs.  "intent" pulls the distributions
together where nothing changed and apart where something did, which is the
behavior the rest of the pipeline assumes.  "literal" is the opposite
pairing, kept selectable for comparison; it equals intent with the change
labels inverted.  The cosine is taken between post-softmax probability
vectors by default (`space="prob"`, values in [0, 1] so every mode stays
non-negative) or between raw logits (`space="logit"`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .tensor import (Tensor, add, clip, div, log, log_softmax_rows, mul,
                     reshape, scale, sigmoid, softmax_rows, sqrt, sub,
                     sum_all, sum_rows, transpose)

_EPS = 1e-12


def _pixels(logits):
    """View (N, h, w) class logits as an (h*w, N) matrix, one row per pixel."""
    if logits.data.ndim != 3:
        raise DimensionError(f"expected class logits shaped (classes, h, w), got {logits.shape}")
    n, h, w = logits.shape
    return transpose(reshape(logits, (n, h * w)))


def _check_labels(labels, logits, what):
    labels = np.asarray(labels)
    if labels.shape != logits.shape[1:]:
        raise DimensionError(f"{what}: label map {labels.shape} does not match logits {logits.shape}")
    return labels.astype(np.int64)


def semantic_loss(logits, labels):
    """Cross entropy over pixels whose label is >= 1; label k means class k - 1.

    Pixels labelled 0 (no change) are excluded entirely.  Returns 0 when no
    labelled pixel exists.
    """
    labels = _check_labels(labels, logits, "semantic loss")
    n = logits.shape[0]
    if labels.min() < 0 or labels.max() > n:
        raise DataError(f"semantic loss: labels must lie in 0..{n}, found {labels.min()}..{labels.max()}")
    flat = labels.reshape(-1)
    mask = flat >= 1
    count = int(mask.sum())
    if count == 0:
        return Tensor(0.0)
    return _mean_nll(logits, np.nonzero(mask)[0], flat[mask] - 1, count)


def dense_cross_entropy(logits, labels):
    """Plain cross entropy over every pixel; labels index the logit channels
    directly (the dscd families place no-change at channel 0)."""
    labels = _check_labels(labels, logits, "cross entropy")
    n = logits.shape[0]
    if labels.min() < 0 or labels.max() >= n:
        raise DataError(f"cross entropy: labels must lie in 0..{n - 1}, found {labels.min()}..{labels.max()}")
    flat = labels.reshape(-1)
    return _mean_nll(logits, np.arange(flat.size), flat, flat.size)


def _mean_nll(logits, pixels, classes, count):
    """Negative log-softmax probability of class `classes[i]` at pixel
    `pixels[i]`, summed over i and divided by `count`."""
    logp = log_softmax_rows(_pixels(logits))
    onehot = np.zeros(logp.shape)
    onehot[pixels, classes] = 1.0
    return scale(sum_all(mul(logp, Tensor(onehot))), -1.0 / count)


def change_loss(logit, labels):
    """Mean binary cross entropy of the change logit against the 0/1 map.

    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    if logit.data.ndim == 3:
        if logit.shape[0] != 1:
            raise DimensionError(f"change loss: expected a single logit channel, got {logit.shape}")
        logit = reshape(logit, logit.shape[1:])
    labels = np.asarray(labels)
    if labels.shape != logit.shape:
        raise DimensionError(f"change loss: label map {labels.shape} does not match logit {logit.shape}")
    uniq = np.unique(labels)
    if not np.isin(uniq, (0, 1)).all():
        raise DataError(f"change loss: change labels must be 0 or 1, found {uniq.tolist()}")
    y = labels.astype(np.float64)
    p = clip(sigmoid(logit), _EPS, 1.0 - _EPS)
    ones = Tensor(np.ones_like(y))
    hit = mul(Tensor(y), log(p))
    miss = mul(Tensor(1.0 - y), log(sub(ones, p)))
    return scale(sum_all(add(hit, miss)), -1.0 / y.size)


def _pixel_cosine(p1, p2, space):
    x1 = _pixels(p1)
    x2 = _pixels(p2)
    if space == "prob":
        x1 = softmax_rows(x1)
        x2 = softmax_rows(x2)
    elif space != "logit":
        raise ConfigError(f"consistency loss: unknown space {space!r}")
    dot = sum_rows(mul(x1, x2))
    n1 = sum_rows(mul(x1, x1))
    n2 = sum_rows(mul(x2, x2))
    # clamp under the root keeps the denominator >= 1e-12 with a finite gradient
    denom = sqrt(clip(mul(n1, n2), _EPS * _EPS, np.inf))
    return div(dot, denom)


def semantic_consistency_loss(p1, p2, change_labels, mode="intent", space="prob"):
    """Cosine-based agreement penalty between the two temporal predictions.

    intent:  unchanged pixels pay 1 - cos, changed pixels pay cos.
    literal: the opposite pairing (equals intent with labels inverted).
    Averaged over all pixels.
    """
    if mode not in ("intent", "literal"):
        raise ConfigError(f"consistency loss: unknown mode {mode!r}")
    if p1.shape != p2.shape:
        raise DimensionError(f"consistency loss: logit shapes {p1.shape} and {p2.shape} differ")
    labels = np.asarray(change_labels)
    if labels.shape != p1.shape[1:]:
        raise DimensionError(f"consistency loss: change map {labels.shape} does not match logits {p1.shape}")
    changed = (labels.reshape(-1, 1) != 0).astype(np.float64)
    if mode == "literal":
        changed = 1.0 - changed
    cos = _pixel_cosine(p1, p2, space)
    apart = mul(Tensor(changed), cos)
    together = mul(Tensor(1.0 - changed), sub(Tensor(np.ones_like(changed)), cos))
    return scale(sum_all(add(together, apart)), 1.0 / changed.size)


def total_loss(l_sem1, l_sem2, l_change, l_sc):
    """Unweighted combination: mean of the semantic terms plus the other two."""
    return add(add(scale(add(l_sem1, l_sem2), 0.5), l_change), l_sc)


@dataclass
class LossReport:
    """Scalar loss terms of one step or epoch."""

    l_sem1: float
    l_sem2: float
    l_change: float
    l_sc: float
    l_total: float

    @classmethod
    def from_terms(cls, l_sem1, l_sem2, l_change, l_sc):
        total = total_loss(Tensor(l_sem1), Tensor(l_sem2), Tensor(l_change), Tensor(l_sc)).item()
        return cls(l_sem1, l_sem2, l_change, l_sc, total)

    def line(self, tag=""):
        head = f"{tag}  " if tag else ""
        return (f"{head}sem1 {self.l_sem1:.6f}  sem2 {self.l_sem2:.6f}  "
                f"change {self.l_change:.6f}  sc {self.l_sc:.6f}  total {self.l_total:.6f}")
