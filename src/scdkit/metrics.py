"""Evaluation metrics over (N+1)-class label maps, class 0 meaning no change.

Everything is computed from one accumulated confusion matrix Q with
Q[i, j] = number of pixels predicted as class i whose ground truth is j
(int64 counts; ratios in float64).  On top of Q:

  overall accuracy     trace(Q) / total
  IoU (no-change)      q00 / (pred-0 + truth-0 - q00)
  IoU (changed)        sum_{i,j>=1} q_ij / (total - q00)
  mIoU                 mean of the two IoUs
  separated kappa      on Q-hat = Q with q00 zeroed:
                         rho = trace(Q-hat) / sum(Q-hat)
                         eta = sum_i rowsum_i * colsum_i / sum(Q-hat)^2
                         sek = exp(IoU_changed - 1) * (rho - eta) / (1 - eta)
  F_scd                harmonic mean of precision / recall of the changed
                       classes: hits = sum_{i>=1} q_ii, precision over
                       predicted-changed, recall over truth-changed.

A metric without a defined value raises UndefinedMetricError from the
per-metric functions; `compute_report` turns that into an explicit None
(serialized as "undefined"), never a silent 0 or NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, UndefinedMetricError


class ConfusionMatrix:
    """Accumulator over predicted/truth label maps with values in 0..N."""

    def __init__(self, n_classes, counts=None):
        if n_classes < 1:
            raise DataError(f"confusion matrix needs at least 1 semantic class, got {n_classes}")
        self.n_classes = int(n_classes)
        side = self.n_classes + 1
        if counts is None:
            self.counts = np.zeros((side, side), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (side, side):
                raise DimensionError(f"confusion matrix: counts shape {counts.shape}, expected {(side, side)}")
            self.counts = counts.copy()

    def add(self, predicted, truth):
        """Accumulate one predicted/truth map pair; returns self for chaining.

        The maps must be integer (or bool) arrays with labels in 0..N, of any
        shape or memory layout.  The joint code p*(N+1) + t is built in
        uint32 (wider only if (N+1)^2 codes need it), sorted in place, and
        the count of each code is the gap between its left edge in the sorted
        codes and the next code's.  A sort has no store-to-load chain, which
        a bincount has when neighbouring pixels share a code, as long runs of
        unchanged pixels do.  Maps without such runs count slower than with a
        bincount, and from about a hundred classes up the (N+1)^2 edge
        searches dominate (0.5 ms for a 512x512 map at N=100).
        """
        predicted = np.asarray(predicted)
        truth = np.asarray(truth)
        if predicted.shape != truth.shape:
            raise DimensionError(f"confusion matrix: map shapes {predicted.shape} and {truth.shape} differ")
        side = self.n_classes + 1
        for name, arr in (("predicted", predicted), ("truth", truth)):
            if arr.dtype != np.bool_ and not np.issubdtype(arr.dtype, np.integer):
                raise DataError(f"confusion matrix: {name} labels must be integers, got dtype {arr.dtype}")
            if arr.size and (arr.min() < 0 or arr.max() >= side):
                raise DataError(f"confusion matrix: {name} labels must lie in 0..{self.n_classes}, "
                                f"found {arr.min()}..{arr.max()}")
        code = predicted.astype(np.promote_types(np.min_scalar_type(side * side - 1), np.uint32))
        code *= side
        np.add(code, truth, out=code, casting="unsafe")  # in range: checked above
        code = code.ravel(order="K")  # a view: astype made the copy contiguous
        code.sort()
        # edges in the code's own dtype: int64 ones would make numpy cast every code
        edges = np.searchsorted(code, np.arange(side * side, dtype=code.dtype))
        self.counts += np.diff(edges, append=code.size).reshape(side, side)
        return self

    def merge(self, other):
        """Elementwise sum with another accumulator (commutative, associative)."""
        if not isinstance(other, ConfusionMatrix) or other.n_classes != self.n_classes:
            raise DimensionError("confusion matrix: can only merge accumulators of the same class count")
        return ConfusionMatrix(self.n_classes, self.counts + other.counts)

    def copy(self):
        return ConfusionMatrix(self.n_classes, self.counts)

    def total(self):
        return int(self.counts.sum())


def overall_accuracy(cm):
    total = cm.total()
    if total == 0:
        raise UndefinedMetricError("overall accuracy undefined on an empty matrix")
    return float(np.trace(cm.counts)) / total


def miou(cm):
    """Returns (iou_nochange, iou_changed, mean); a component with an empty
    union is None, and the mean is None if either component is."""
    q = cm.counts
    total = cm.total()
    q00 = int(q[0, 0])
    union_nc = int(q[0, :].sum()) + int(q[:, 0].sum()) - q00
    iou_nc = q00 / union_nc if union_nc > 0 else None
    union_c = total - q00
    iou_c = float(q[1:, 1:].sum()) / union_c if union_c > 0 else None
    mean = (iou_nc + iou_c) / 2.0 if iou_nc is not None and iou_c is not None else None
    return iou_nc, iou_c, mean


def _sek_parts(cm):
    qh = cm.counts.astype(np.float64)
    qh[0, 0] = 0.0
    t = qh.sum()
    if t == 0:
        raise UndefinedMetricError("separated kappa undefined: no pixel outside the (0, 0) cell")
    rho = float(np.trace(qh)) / t
    eta = float((qh.sum(axis=1) * qh.sum(axis=0)).sum()) / (t * t)
    return rho, eta


def _sek_value(iou_c, rho, eta):
    if eta == 1.0:
        raise UndefinedMetricError("separated kappa undefined: chance agreement eta equals 1")
    return math.exp(iou_c - 1.0) * (rho - eta) / (1.0 - eta)


def sek(cm):
    """Returns (rho, eta, sek) computed on Q-hat (q00 zeroed)."""
    rho, eta = _sek_parts(cm)
    _, iou_c, _ = miou(cm)  # Q-hat nonempty implies the changed union is nonempty
    return rho, eta, _sek_value(iou_c, rho, eta)


def f_scd(cm):
    """Returns (precision, recall, f); a component with an empty denominator is
    None.  Raises when neither prediction nor truth contains a changed pixel."""
    q = cm.counts
    hits = float(np.trace(q)) - float(q[0, 0])
    pred_changed = int(q[1:, :].sum())
    truth_changed = int(q[:, 1:].sum())
    if pred_changed == 0 and truth_changed == 0:
        raise UndefinedMetricError("F_scd undefined: no changed pixel in prediction or truth")
    precision = hits / pred_changed if pred_changed > 0 else None
    recall = hits / truth_changed if truth_changed > 0 else None
    if precision is None or recall is None:
        f = None
    elif precision + recall == 0.0:
        f = 0.0  # harmonic-mean convention when both components vanish
    else:
        f = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f


UNDEFINED = "undefined"

_FIELDS = ("oa", "iou_nc", "iou_c", "miou", "rho", "eta", "sek",
           "p_scd", "r_scd", "f_scd")


@dataclass
class MetricsReport:
    """All ten metric fields (None where undefined) plus context counts."""

    oa: float | None = None
    iou_nc: float | None = None
    iou_c: float | None = None
    miou: float | None = None
    rho: float | None = None
    eta: float | None = None
    sek: float | None = None
    p_scd: float | None = None
    r_scd: float | None = None
    f_scd: float | None = None
    pixels: int = 0
    params: int | None = None
    flops: int | None = None
    mask_disagreement: float | None = None
    temporal: list = field(default_factory=list)

    def to_dict(self):
        out = {name: getattr(self, name) for name in _FIELDS}
        out["pixels"] = self.pixels
        if self.params is not None:
            out["params"] = self.params
        if self.flops is not None:
            out["flops"] = self.flops
        if self.mask_disagreement is not None:
            out["mask_disagreement"] = self.mask_disagreement
        if self.temporal:
            out["temporal"] = [r.to_dict() for r in self.temporal]
        return out

    def cells(self):
        """Metric values with None rendered as the string "undefined" (CSV)."""
        return [UNDEFINED if getattr(self, name) is None else f"{getattr(self, name):.6f}"
                for name in _FIELDS]

    def line(self):
        parts = []
        for name in _FIELDS:
            v = getattr(self, name)
            parts.append(f"{name} {UNDEFINED}" if v is None else f"{name} {v:.4f}")
        return "  ".join(parts)


def compute_report(cm):
    """Evaluate every metric on one matrix, mapping undefined values to None."""
    report = MetricsReport(pixels=cm.total())
    try:
        report.oa = overall_accuracy(cm)
    except UndefinedMetricError:
        pass
    report.iou_nc, report.iou_c, report.miou = miou(cm)
    try:
        report.rho, report.eta = _sek_parts(cm)
        report.sek = _sek_value(report.iou_c, report.rho, report.eta)
    except UndefinedMetricError:
        pass
    try:
        report.p_scd, report.r_scd, report.f_scd = f_scd(cm)
    except UndefinedMetricError:
        pass
    return report


def oracle_metrics(predicted_maps, truth_maps, n_classes):
    """Brute-force reference: the same ten metrics from direct per-pixel
    counting with Python integers, no confusion matrix involved.

    Takes parallel lists of predicted and truth label maps and accumulates
    over all of them, mirroring how the pipeline merges its matrix.
    """
    if len(predicted_maps) != len(truth_maps):
        raise DimensionError(f"oracle: {len(predicted_maps)} predictions vs {len(truth_maps)} truths")
    total = 0
    agree = 0
    both_zero = 0
    pred_zero = 0
    truth_zero = 0
    both_changed = 0
    changed_hits = 0
    pred_count = {c: 0 for c in range(n_classes + 1)}
    truth_count = {c: 0 for c in range(n_classes + 1)}
    pred0_truth_changed = 0
    truth0_pred_changed = 0

    for pm, tm in zip(predicted_maps, truth_maps):
        pm = np.asarray(pm)
        tm = np.asarray(tm)
        if pm.shape != tm.shape:
            raise DimensionError(f"oracle: map shapes {pm.shape} and {tm.shape} differ")
        for p, t in zip(pm.reshape(-1).tolist(), tm.reshape(-1).tolist()):
            if not (0 <= p <= n_classes and 0 <= t <= n_classes):
                raise DataError(f"oracle: label pair ({p}, {t}) outside 0..{n_classes}")
            total += 1
            pred_count[p] += 1
            truth_count[t] += 1
            if p == t:
                agree += 1
                if p >= 1:
                    changed_hits += 1
            if p == 0 and t == 0:
                both_zero += 1
            if p == 0:
                pred_zero += 1
                if t >= 1:
                    pred0_truth_changed += 1
            if t == 0:
                truth_zero += 1
                if p >= 1:
                    truth0_pred_changed += 1
            if p >= 1 and t >= 1:
                both_changed += 1

    report = MetricsReport(pixels=total)
    if total > 0:
        report.oa = agree / total

    union_nc = pred_zero + truth_zero - both_zero
    if union_nc > 0:
        report.iou_nc = both_zero / union_nc
    union_c = total - both_zero
    if union_c > 0:
        report.iou_c = both_changed / union_c
    if report.iou_nc is not None and report.iou_c is not None:
        report.miou = (report.iou_nc + report.iou_c) / 2.0

    # row/column sums of Q-hat, written out per class
    excluded = total - both_zero
    if excluded > 0:
        rho = changed_hits / excluded
        eta = 0
        for c in range(n_classes + 1):
            row = pred0_truth_changed if c == 0 else pred_count[c]
            col = truth0_pred_changed if c == 0 else truth_count[c]
            eta += row * col
        eta = eta / (excluded * excluded)
        if eta != 1.0:
            report.rho = rho
            report.eta = eta
            report.sek = math.exp(report.iou_c - 1.0) * (rho - eta) / (1.0 - eta)
        else:
            report.rho, report.eta = rho, eta

    pred_changed = total - pred_zero
    truth_changed = total - truth_zero
    if pred_changed > 0:
        report.p_scd = changed_hits / pred_changed
    if truth_changed > 0:
        report.r_scd = changed_hits / truth_changed
    if report.p_scd is not None and report.r_scd is not None:
        s = report.p_scd + report.r_scd
        report.f_scd = 0.0 if s == 0.0 else 2.0 * report.p_scd * report.r_scd / s
    return report
