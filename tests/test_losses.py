"""Loss values against hand computations and closed-form identities."""

import math

import numpy as np
import pytest

from dataclasses import fields

from scdkit.blocks import EncoderConfig
from scdkit.data import make_pair
from scdkit.errors import ConfigError, DataError, DimensionError
from scdkit.losses import (LossReport, change_loss, dense_cross_entropy,
                           semantic_consistency_loss, semantic_loss,
                           total_loss)
from scdkit.networks import build
from scdkit.tensor import Tensor
from scdkit.train import TrainConfig, sample_loss


def logits_for(labels, n, margin=30.0):
    """Logits that put nearly all mass on class label-1 at labelled pixels."""
    h, w = labels.shape
    out = np.zeros((n, h, w))
    for i in range(h):
        for j in range(w):
            if labels[i, j] >= 1:
                out[labels[i, j] - 1, i, j] = margin
    return Tensor(out)


# ---------------------------------------------------------------------------
# semantic loss


def test_semantic_loss_uniform_two_classes_is_ln2():
    labels = np.array([[1, 2], [0, 1]])
    loss = semantic_loss(Tensor(np.zeros((2, 2, 2))), labels)
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_semantic_loss_unscaled_by_class_count():
    # the mean runs over pixels only, so more classes means ln(n), not ln(n)/n
    labels = np.ones((3, 3), dtype=int)
    for n in (2, 3, 5):
        loss = semantic_loss(Tensor(np.zeros((n, 3, 3))), labels)
        assert loss.item() == pytest.approx(math.log(n), rel=1e-12)


def test_semantic_loss_ignores_unchanged_pixels():
    rng = np.random.default_rng(0)
    labels = np.array([[1, 0], [0, 2]])
    base = rng.normal(size=(2, 2, 2))
    poked = base.copy()
    poked[:, 0, 1] += 100.0  # only a label-0 pixel moves
    poked[:, 1, 0] -= 50.0
    a = semantic_loss(Tensor(base), labels).item()
    b = semantic_loss(Tensor(poked), labels).item()
    assert a == b


def test_semantic_loss_near_perfect_prediction():
    labels = np.array([[1, 2], [2, 1]])
    loss = semantic_loss(logits_for(labels, 2), labels)
    assert 0.0 <= loss.item() < 1e-6


def test_semantic_loss_no_changed_pixel_is_zero():
    loss = semantic_loss(Tensor(np.random.default_rng(1).normal(size=(3, 2, 2))),
                         np.zeros((2, 2), dtype=int))
    assert loss.item() == 0.0
    assert not loss.requires_grad


def test_semantic_loss_shift_invariance():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 4, size=(4, 4))
    x = rng.normal(size=(3, 4, 4))
    a = semantic_loss(Tensor(x), labels).item()
    b = semantic_loss(Tensor(x + 7.25), labels).item()
    assert a == pytest.approx(b, abs=1e-9)


def test_semantic_loss_label_out_of_range():
    with pytest.raises(DataError):
        semantic_loss(Tensor(np.zeros((3, 2, 2))), np.full((2, 2), 4))
    with pytest.raises(DataError):
        semantic_loss(Tensor(np.zeros((3, 2, 2))), np.full((2, 2), -1))
    with pytest.raises(DimensionError):
        semantic_loss(Tensor(np.zeros((3, 2, 2))), np.zeros((3, 3), dtype=int))


def test_dense_cross_entropy_uniform():
    labels = np.array([[0, 1], [2, 3]])
    loss = dense_cross_entropy(Tensor(np.zeros((4, 2, 2))), labels)
    assert loss.item() == pytest.approx(math.log(4.0), rel=1e-12)
    with pytest.raises(DataError):
        dense_cross_entropy(Tensor(np.zeros((4, 2, 2))), np.full((2, 2), 4))


# ---------------------------------------------------------------------------
# change loss


def bce_oracle(logit, labels):
    p = 1.0 / (1.0 + np.exp(-logit))
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean())


def test_change_loss_zero_logit_is_ln2():
    loss = change_loss(Tensor(np.zeros((3, 3))), np.ones((3, 3), dtype=int))
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_change_loss_matches_oracle():
    rng = np.random.default_rng(3)
    logit = rng.normal(0.0, 2.0, size=(5, 5))
    labels = rng.integers(0, 2, size=(5, 5))
    got = change_loss(Tensor(logit), labels).item()
    assert got == pytest.approx(bce_oracle(logit, labels), rel=1e-12)


def test_change_loss_extreme_logits_finite():
    logit = np.array([[800.0, -800.0]])
    labels = np.array([[0, 1]])
    loss = change_loss(Tensor(logit), labels).item()
    assert math.isfinite(loss)
    # both pixels maximally wrong, each clamped near -ln(1e-12); the 1 - p
    # side loses a few digits to cancellation, hence the loose tolerance
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-5)


def test_change_loss_accepts_channel_dim():
    a = change_loss(Tensor(np.ones((1, 2, 2))), np.ones((2, 2), dtype=int)).item()
    b = change_loss(Tensor(np.ones((2, 2))), np.ones((2, 2), dtype=int)).item()
    assert a == b
    with pytest.raises(DimensionError):
        change_loss(Tensor(np.ones((2, 2, 2))), np.ones((2, 2), dtype=int))


def test_change_loss_rejects_nonbinary_labels():
    with pytest.raises(DataError):
        change_loss(Tensor(np.zeros((2, 2))), np.full((2, 2), 2))


# ---------------------------------------------------------------------------
# consistency loss


def test_consistency_identical_unchanged_is_zero():
    x = Tensor(np.random.default_rng(4).normal(size=(3, 4, 4)))
    loss = semantic_consistency_loss(x, x, np.zeros((4, 4), dtype=int))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_consistency_orthogonal_changed_is_zero():
    # huge opposing logits make the two distributions orthogonal one-hots
    p1 = Tensor(np.stack([np.full((2, 2), 40.0), np.full((2, 2), -40.0)]))
    p2 = Tensor(np.stack([np.full((2, 2), -40.0), np.full((2, 2), 40.0)]))
    loss = semantic_consistency_loss(p1, p2, np.ones((2, 2), dtype=int))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_consistency_literal_equals_intent_with_inverted_labels():
    rng = np.random.default_rng(5)
    p1 = Tensor(rng.normal(size=(3, 4, 4)))
    p2 = Tensor(rng.normal(size=(3, 4, 4)))
    change = rng.integers(0, 2, size=(4, 4))
    lit = semantic_consistency_loss(p1, p2, change, mode="literal").item()
    inv = semantic_consistency_loss(p1, p2, 1 - change, mode="intent").item()
    assert lit == inv


def test_consistency_nonnegative_in_prob_space():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p1 = Tensor(rng.normal(0.0, 3.0, size=(4, 3, 3)))
        p2 = Tensor(rng.normal(0.0, 3.0, size=(4, 3, 3)))
        change = rng.integers(0, 2, size=(3, 3))
        for mode in ("intent", "literal"):
            assert semantic_consistency_loss(p1, p2, change, mode=mode).item() >= 0.0


def test_consistency_decreases_as_distributions_align():
    # walk p1 towards p2 on unchanged pixels: the intent penalty must shrink
    rng = np.random.default_rng(7)
    p2 = rng.normal(size=(3, 4, 4))
    start = rng.normal(size=(3, 4, 4))
    change = np.zeros((4, 4), dtype=int)
    values = []
    for alpha in np.linspace(0.0, 1.0, 6):
        p1 = Tensor((1 - alpha) * start + alpha * p2)
        values.append(semantic_consistency_loss(p1, Tensor(p2), change).item())
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.0, abs=1e-12)


def test_consistency_logit_space_differs_from_prob_space():
    rng = np.random.default_rng(8)
    p1 = Tensor(rng.normal(size=(3, 3, 3)))
    p2 = Tensor(rng.normal(size=(3, 3, 3)))
    change = np.zeros((3, 3), dtype=int)
    a = semantic_consistency_loss(p1, p2, change, space="prob").item()
    b = semantic_consistency_loss(p1, p2, change, space="logit").item()
    assert a != b


def test_consistency_bad_arguments():
    p = Tensor(np.zeros((2, 2, 2)))
    change = np.zeros((2, 2), dtype=int)
    with pytest.raises(ConfigError):
        semantic_consistency_loss(p, p, change, mode="both")
    with pytest.raises(ConfigError):
        semantic_consistency_loss(p, p, change, space="feature")
    with pytest.raises(DimensionError):
        semantic_consistency_loss(p, Tensor(np.zeros((3, 2, 2))), change)
    with pytest.raises(DimensionError):
        semantic_consistency_loss(p, p, np.zeros((3, 3), dtype=int))


# ---------------------------------------------------------------------------
# combination


def test_total_loss_matches_report_arithmetic():
    # the tensor combination and the float bookkeeping share the exact
    # operation order, so the results are bit-identical
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        combined = total_loss(Tensor(a), Tensor(b), Tensor(c), Tensor(d)).item()
        report = LossReport.from_terms(a, b, c, d)
        assert combined == report.l_total


def test_loss_report_line_has_all_terms():
    line = LossReport.from_terms(1.0, 2.0, 3.0, 4.0).line("epoch 1")
    for key in ("epoch 1", "sem1", "sem2", "change", "sc", "total"):
        assert key in line
    assert "total 8.5" in line


# ---------------------------------------------------------------------------
# per-pixel oracles: plain float loops written from each term's definition,
# sharing no code with the tensor implementations


def _nll(logits, i, j, k):
    """-log softmax(logits[:, i, j])[k]."""
    v = [float(x) for x in logits[:, i, j]]
    top = max(v)
    return top + math.log(sum(math.exp(x - top) for x in v)) - v[k]


def _softmax(v):
    top = max(v)
    ex = [math.exp(x - top) for x in v]
    total = sum(ex)
    return [e / total for e in ex]


def semantic_oracle(logits, labels):
    """Mean NLL over pixels labelled k >= 1, of class k - 1; 0 without any."""
    nll = [_nll(logits, i, j, labels[i, j] - 1)
           for i, j in np.ndindex(labels.shape) if labels[i, j] >= 1]
    return sum(nll) / len(nll) if nll else 0.0


def dense_oracle(logits, labels):
    return sum(_nll(logits, i, j, labels[i, j]) for i, j in np.ndindex(labels.shape)) / labels.size


def change_oracle(logit, labels):
    """Mean BCE with the probability clamped to [1e-12, 1 - 1e-12]."""
    total = 0.0
    for z, y in zip(logit.flat, labels.flat):
        z = float(z)
        p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        total -= math.log(p) if y else math.log(1.0 - p)
    return total / labels.size


def consistency_oracle(p1, p2, change, mode="intent", space="prob"):
    """Mean over pixels of cos where the pairing says apart, 1 - cos elsewhere."""
    total = 0.0
    for i, j in np.ndindex(change.shape):
        a = [float(x) for x in p1[:, i, j]]
        b = [float(x) for x in p2[:, i, j]]
        if space == "prob":
            a, b = _softmax(a), _softmax(b)
        dot = sum(x * y for x, y in zip(a, b))
        norms = sum(x * x for x in a) * sum(y * y for y in b)
        cos = dot / math.sqrt(max(norms, 1e-24))
        apart = (change[i, j] != 0) == (mode == "intent")
        total += cos if apart else 1.0 - cos
    return total / change.size


def total_oracle(l_sem1, l_sem2, l_change, l_sc):
    return (l_sem1 + l_sem2) / 2.0 + l_change + l_sc


def close(got, want):
    return got == pytest.approx(want, rel=1e-12, abs=1e-12)


def oracle_draws(seed, n=4, h=5, w=6):
    """Logits, labels and a change map on a non-square map; a few change
    logits sit where the clamp binds."""
    rng = np.random.default_rng(seed)
    p1 = rng.normal(0.0, 2.0, size=(n, h, w))
    p2 = rng.normal(0.0, 2.0, size=(n, h, w))
    labels = rng.integers(0, n + 1, size=(h, w))
    cl = rng.normal(0.0, 3.0, size=(h, w))
    cl[0, :3] = (40.0, -40.0, 800.0)
    return p1, p2, labels, cl, (labels != 0).astype(np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_semantic_and_dense_losses_equal_their_oracles(seed):
    p1, _, labels, _, _ = oracle_draws(seed)
    assert close(semantic_loss(Tensor(p1), labels).item(), semantic_oracle(p1, labels))
    dense = np.random.default_rng([seed, 1]).normal(0.0, 2.0, size=(5, 5, 6))
    assert close(dense_cross_entropy(Tensor(dense), labels).item(), dense_oracle(dense, labels))
    none = np.zeros_like(labels)
    assert semantic_loss(Tensor(p1), none).item() == semantic_oracle(p1, none) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_change_loss_equals_its_oracle(seed):
    _, _, _, cl, change = oracle_draws(seed)
    assert close(change_loss(Tensor(cl), change).item(), change_oracle(cl, change))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", ["intent", "literal"])
@pytest.mark.parametrize("space", ["prob", "logit"])
def test_consistency_loss_equals_its_oracle(seed, mode, space):
    p1, p2, _, _, change = oracle_draws(seed)
    got = semantic_consistency_loss(Tensor(p1), Tensor(p2), change, mode=mode, space=space).item()
    assert close(got, consistency_oracle(p1, p2, change, mode, space))


@pytest.mark.parametrize("seed", range(4))
def test_total_loss_equals_its_oracle(seed):
    p1, p2, labels, cl, change = oracle_draws(seed)
    t1, t2 = Tensor(p1), Tensor(p2)
    got = total_loss(semantic_loss(t1, labels), semantic_loss(t2, labels),
                     change_loss(Tensor(cl), change),
                     semantic_consistency_loss(t1, t2, change)).item()
    want = total_oracle(semantic_oracle(p1, labels), semantic_oracle(p2, labels),
                        change_oracle(cl, change), consistency_oracle(p1, p2, change))
    assert close(got, want)


@pytest.mark.parametrize("family,use_sc", [("dscd-l", "auto"), ("sscd-l", "auto"),
                                           ("bisrnet", "auto"), ("sscd-l", "on")])
def test_sample_loss_report_equals_the_oracles(family, use_sc):
    # every field of the report has an oracle: a field added without one fails
    net = build(family, num_classes=3, seed=1,
                encoder=EncoderConfig(3, (4, 4, 8), (2, 2, 2), (1, 0, 0)),
                cd_width=4, cd_units=1)
    pair = make_pair("00", [2, 0], 16, 16, 3, 0.3)
    _, report, out = sample_loss(net, pair, TrainConfig(use_sc=use_sc, sc_mode="literal"))
    p1, p2 = out.p1.data, out.p2.data
    if out.c is None:
        want = dict(l_sem1=dense_oracle(p1, pair.label1), l_sem2=dense_oracle(p2, pair.label2),
                    l_change=0.0, l_sc=0.0)
    else:
        change = pair.change_map
        sc_on = use_sc == "on" or family == "bisrnet"  # auto: the attention family only
        want = dict(l_sem1=semantic_oracle(p1, pair.label1),
                    l_sem2=semantic_oracle(p2, pair.label2),
                    l_change=change_oracle(out.c.data, change),
                    l_sc=consistency_oracle(p1, p2, change, "literal") if sc_on else 0.0)
    want["l_total"] = total_oracle(**want)
    assert [f.name for f in fields(report)] == list(want)
    for name, value in want.items():
        assert close(getattr(report, name), value), name
