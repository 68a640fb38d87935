"""Metric pipeline against hand-evaluated matrices and the per-pixel oracle."""

import math

import numpy as np
import pytest

from scdkit.errors import DataError, DimensionError
from scdkit.metrics import (ConfusionMatrix, compute_report, f_scd, miou,
                            oracle_metrics, overall_accuracy, sek)

# rows are predictions, columns are truth; hand-traced reference values:
#   trace 7 of 10 pixels -> OA 0.7
#   no-change union 4+5+5-2*4 = 6 -> IoU 4/6, changed 4 of (10-4) -> 4/6
#   zeroing the (0,0) cell: trace 3 of 6, chance term 15/36
#   changed-class hits 3, predicted changed 5, truth changed 5 -> P = R = 0.6
WORKED = np.array([[4, 1, 0],
                   [1, 2, 1],
                   [0, 0, 1]])


def worked_cm():
    return ConfusionMatrix(2, WORKED)


def test_worked_example_oa_miou():
    cm = worked_cm()
    assert overall_accuracy(cm) == 0.7
    iou_nc, iou_c, mean = miou(cm)
    assert iou_nc == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert iou_c == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert mean == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_worked_example_sek():
    rho, eta, value = sek(worked_cm())
    assert rho == pytest.approx(0.5, rel=1e-15)
    assert eta == pytest.approx(15.0 / 36.0, rel=1e-15)
    assert value == pytest.approx(math.exp(-1.0 / 3.0) / 7.0, rel=1e-12)
    assert value == pytest.approx(0.10236, abs=5e-6)


def test_worked_example_f_scd():
    p, r, f = f_scd(worked_cm())
    assert p == 0.6 and r == 0.6 and f == pytest.approx(0.6, rel=1e-15)


def test_worked_example_report_complete():
    report = compute_report(worked_cm())
    assert report.pixels == 10
    assert None not in (report.oa, report.miou, report.sek, report.f_scd)


# ---------------------------------------------------------------------------
# accumulator mechanics


def test_add_builds_expected_counts():
    cm = ConfusionMatrix(2)
    cm.add(np.array([[0, 1], [2, 1]]), np.array([[0, 1], [2, 2]]))
    expect = np.zeros((3, 3), dtype=np.int64)
    expect[0, 0] = 1
    expect[1, 1] = 1
    expect[1, 2] = 1
    expect[2, 2] = 1
    np.testing.assert_array_equal(cm.counts, expect)


def test_add_validates_range_and_shape():
    cm = ConfusionMatrix(2)
    with pytest.raises(DataError):
        cm.add(np.array([3]), np.array([0]))
    with pytest.raises(DataError):
        cm.add(np.array([0]), np.array([-1]))
    with pytest.raises(DimensionError):  # the shape is checked before the dtype
        cm.add(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        cm.add(np.full((2, 2), np.nan), np.zeros((2, 3)))
    with pytest.raises(DataError):
        ConfusionMatrix(0)


# views of one 16x16 map; "single-run" replaces the map by a single joint code
LAYOUTS = {
    "contiguous": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[::3, ::2],
    "empty": lambda a: a[:0],
    "single-run": lambda a: np.full_like(a, a[0, 0]),
}

ADD_CASES = [
    (1, np.bool_, np.bool_, "contiguous"),
    (2, np.uint8, np.uint8, "contiguous"),
    (2, np.int64, np.int64, "contiguous"),
    (6, np.int64, np.uint8, "contiguous"),   # a network's maps against labels read from disk
    (6, np.int8, np.uint16, "contiguous"),
    (15, np.uint8, np.uint8, "contiguous"),  # the last class count with 256 codes or fewer
    (16, np.uint8, np.uint8, "contiguous"),
    (20, np.uint8, np.uint8, "contiguous"),
    (20, np.int64, np.uint8, "contiguous"),
    (255, np.uint8, np.uint8, "contiguous"),  # every uint8 label: 65 536 bins
    (6, np.int64, np.uint8, "transposed"),
    (6, np.uint8, np.int16, "strided"),
    (6, np.uint8, np.uint8, "empty"),
    (6, np.uint8, np.int64, "single-run"),
]


def _add_case_id(n, pred_dtype, truth_dtype, layout):
    """Like "6-int64-uint8", with the layout appended unless it is contiguous."""
    parts = [str(n), np.dtype(pred_dtype).name, np.dtype(truth_dtype).name]
    return "-".join(parts if layout == "contiguous" else parts + [layout])


@pytest.mark.parametrize("n,pred_dtype,truth_dtype,layout", ADD_CASES,
                         ids=[_add_case_id(*case) for case in ADD_CASES])
def test_add_counts_any_integer_dtype_like_the_oracle(n, pred_dtype, truth_dtype, layout):
    rng = np.random.default_rng(n)
    p = rng.integers(0, n + 1, size=(16, 16))
    t = rng.integers(0, n + 1, size=(16, 16))
    p[0, 0] = t[0, 0] = n  # the largest joint code occurs
    view = LAYOUTS[layout]
    cm = ConfusionMatrix(n).add(view(p.astype(pred_dtype)), view(t.astype(truth_dtype)))
    p, t = view(p), view(t)
    expect = np.bincount(p.reshape(-1) * (n + 1) + t.reshape(-1), minlength=(n + 1) ** 2)
    np.testing.assert_array_equal(cm.counts, expect.reshape(n + 1, n + 1))
    report_fields_equal(compute_report(cm), oracle_metrics([p], [t], n))


@pytest.mark.parametrize("pred,truth", [
    (np.zeros((2, 2)), np.zeros((2, 2), dtype=np.uint8)),
    (np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.float32)),
    (np.full((2, 2), np.nan), np.zeros((2, 2), dtype=np.uint8)),  # no label to cast to
    (np.zeros((2, 2), dtype=np.uint8), np.full((2, 2), np.nan)),
])
def test_add_rejects_non_integer_maps(pred, truth):
    cm = ConfusionMatrix(2)
    with pytest.raises(DataError, match="integers"):
        cm.add(pred, truth)
    assert cm.total() == 0


def test_merge_commutative_associative():
    r = np.random.default_rng(0)
    mats = [ConfusionMatrix(3, r.integers(0, 9, size=(4, 4))) for _ in range(3)]
    a, b, c = mats
    np.testing.assert_array_equal(a.merge(b).counts, b.merge(a).counts)
    np.testing.assert_array_equal(a.merge(b).merge(c).counts,
                                  a.merge(b.merge(c)).counts)
    with pytest.raises(DimensionError):
        a.merge(ConfusionMatrix(2))


def test_copy_is_independent():
    cm = worked_cm()
    dup = cm.copy()
    dup.counts[0, 0] = 99
    assert cm.counts[0, 0] == 4


# ---------------------------------------------------------------------------
# identities and edge cases


def test_perfect_prediction_identities():
    r = np.random.default_rng(1)
    truth = r.integers(0, 4, size=(16, 16))
    cm = ConfusionMatrix(3).add(truth, truth)
    report = compute_report(cm)
    assert report.oa == 1.0
    assert report.miou == 1.0
    assert report.sek == pytest.approx(1.0, rel=1e-12)
    assert report.f_scd == 1.0


def test_class_permutation_invariance():
    # relabeling the changed classes consistently must not move any metric
    r = np.random.default_rng(2)
    pred = r.integers(0, 4, size=200)
    truth = r.integers(0, 4, size=200)
    perm = np.array([0, 3, 1, 2])  # fixes class 0, permutes 1..3
    a = compute_report(ConfusionMatrix(3).add(pred, truth))
    b = compute_report(ConfusionMatrix(3).add(perm[pred], perm[truth]))
    for name in ("oa", "iou_nc", "iou_c", "miou", "sek", "f_scd"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12)


def test_empty_matrix_everything_undefined():
    cm = ConfusionMatrix(2)
    assert overall_accuracy(cm) is None
    assert sek(cm) == (None, None, None)
    assert f_scd(cm) == (None, None, None)
    report = compute_report(cm)
    assert report.pixels == 0
    assert report.oa is None and report.sek is None and report.f_scd is None


def test_all_unchanged_leaves_change_metrics_undefined():
    cm = ConfusionMatrix(2).add(np.zeros(10, dtype=int), np.zeros(10, dtype=int))
    report = compute_report(cm)
    assert report.oa == 1.0 and report.iou_nc == 1.0
    assert report.iou_c is None and report.miou is None
    assert report.sek is None and report.f_scd is None


def test_eta_one_keeps_rho_eta_but_no_sek():
    # all off-diagonal mass in one diagonal changed cell: rho = eta = 1
    counts = np.zeros((3, 3), dtype=int)
    counts[1, 1] = 5
    cm = ConfusionMatrix(2, counts)
    assert sek(cm) == (1.0, 1.0, None)
    report = compute_report(cm)
    assert report.rho == 1.0 and report.eta == 1.0 and report.sek is None


def test_one_sided_f_scd():
    # prediction all unchanged, truth has changes: precision undefined
    cm = ConfusionMatrix(2).add(np.zeros(4, dtype=int), np.array([0, 1, 2, 2]))
    p, r, f = f_scd(cm)
    assert p is None and r == 0.0 and f is None


def test_f_scd_zero_when_no_overlap():
    cm = ConfusionMatrix(2).add(np.array([1, 0]), np.array([0, 2]))
    p, r, f = f_scd(cm)
    assert p == 0.0 and r == 0.0 and f == 0.0


def test_report_serialization_conventions():
    report = compute_report(ConfusionMatrix(2))
    d = report.to_dict()
    assert d["oa"] is None and d["pixels"] == 0
    assert report.cells()[0] == "undefined"
    assert "oa undefined" in report.line()
    full = compute_report(worked_cm())
    assert "0.7000" in full.line()
    assert full.cells()[0] == "0.700000"


# ---------------------------------------------------------------------------
# oracle equality


def report_fields_equal(a, b):
    for name in ("oa", "iou_nc", "iou_c", "miou", "rho", "eta", "sek",
                 "p_scd", "r_scd", "f_scd"):
        va, vb = getattr(a, name), getattr(b, name)
        assert (va is None) == (vb is None), name
        if va is not None:
            assert va == vb, f"{name}: {va!r} != {vb!r}"
    assert a.pixels == b.pixels


def test_worked_example_matches_oracle():
    # the oracle consumes label maps, so expand the matrix into pixel pairs
    preds, truths = [], []
    for i in range(3):
        for j in range(3):
            preds += [i] * WORKED[i, j]
            truths += [j] * WORKED[i, j]
    pipeline = compute_report(worked_cm())
    oracle = oracle_metrics([np.array(preds)], [np.array(truths)], 2)
    report_fields_equal(pipeline, oracle)


def test_pipeline_equals_oracle_on_random_maps():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        pairs = int(rng.integers(1, 4))
        cm = ConfusionMatrix(n)
        preds, truths = [], []
        for _ in range(pairs):
            p = rng.integers(0, n + 1, size=(8, 8))
            t = rng.integers(0, n + 1, size=(8, 8))
            cm.add(p, t)
            preds.append(p)
            truths.append(t)
        report_fields_equal(compute_report(cm), oracle_metrics(preds, truths, n))


def test_pipeline_equals_oracle_on_skewed_maps():
    # mostly-unchanged maps poke the undefined-value paths more often
    rng = np.random.default_rng(4)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        p = rng.integers(0, n + 1, size=(8, 8))
        t = rng.integers(0, n + 1, size=(8, 8))
        p[rng.random(size=(8, 8)) < 0.8] = 0
        t[rng.random(size=(8, 8)) < 0.8] = 0
        cm = ConfusionMatrix(n).add(p, t)
        report_fields_equal(compute_report(cm), oracle_metrics([p], [t], n))


def test_oracle_input_validation():
    with pytest.raises(DimensionError):
        oracle_metrics([np.zeros((2, 2))], [], 2)
    with pytest.raises(DataError):
        oracle_metrics([np.full((2, 2), 9)], [np.zeros((2, 2))], 2)
