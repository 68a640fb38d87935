"""Optimizer arithmetic, loop determinism, failure handling, evaluation."""

import math
from dataclasses import fields

import numpy as np
import pytest

from scdkit import data as datamod
from scdkit.blocks import EncoderConfig
from scdkit.data import make_pair
from scdkit.errors import ConfigError, NumericFailure
from scdkit.losses import LossReport
from scdkit.networks import Network, build
from scdkit.tensor import Tensor, no_grad
from scdkit.train import (NesterovSGD, TrainConfig, evaluate, learning_rate,
                          sample_loss, train)


def tiny_net(family="sscd-l", seed=0):
    return build(family, num_classes=3, seed=seed,
                 encoder=EncoderConfig(3, (4, 4, 8), (2, 2, 2), (1, 0, 0)),
                 cd_width=4, cd_units=1)


def tiny_samples(count=2, seed=0, size=8):
    return [make_pair(f"{i:02d}", [seed, i], size, size, 3, 0.25)
            for i in range(count)]


def quick_cfg(**over):
    base = dict(batch_size=2, epochs=2, lr=0.05, momentum=0.9, seed=0,
                augment=False)
    base.update(over)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer


def nesterov_oracle(theta, grads, lr, mu):
    """Plain-numpy replay of the lookahead update."""
    u = np.zeros_like(theta)
    for g in grads:
        u = mu * u - lr * g
        theta = theta + mu * u - lr * g
    return theta


def test_nesterov_matches_oracle_over_steps():
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(4)]
    p = Tensor(theta0.copy(), requires_grad=True)  # the step mutates in place
    opt = NesterovSGD([p], momentum=0.9)
    for g in grads:
        p.grad = g.copy()
        opt.step(lr=0.1)
    np.testing.assert_allclose(p.data, nesterov_oracle(theta0, grads, 0.1, 0.9),
                               rtol=1e-13, atol=1e-13)


def test_nesterov_first_step_hand_value():
    # u = -lr g, theta' = theta + mu u - lr g = theta - lr (1 + mu) g
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = NesterovSGD([p], momentum=0.5)
    p.grad = np.array([2.0])
    opt.step(lr=0.1)
    assert p.data[0] == pytest.approx(1.0 - 0.1 * 1.5 * 2.0, rel=1e-15)


def test_nesterov_zero_lr_is_fixed_point():
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    opt = NesterovSGD([p], momentum=0.9)
    for _ in range(5):
        p.grad = np.array([10.0, -10.0])
        opt.step(lr=0.0)
    np.testing.assert_array_equal(p.data, [3.0, -1.0])


def test_nesterov_skips_missing_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = NesterovSGD([p], momentum=0.9)
    opt.step(lr=0.1)  # no grad assigned
    assert p.data[0] == 1.0
    p.grad = np.array([1.0])
    opt.zero_grads()
    assert p.grad is None


# ---------------------------------------------------------------------------
# schedule and config


def test_poly_schedule_endpoints():
    cfg = quick_cfg(epochs=10, lr=0.1)
    assert learning_rate(cfg, 0) == 0.1
    assert learning_rate(cfg, 9) < learning_rate(cfg, 1) < 0.1
    assert learning_rate(cfg, 10) == 0.0


def test_constant_schedule():
    cfg = quick_cfg(schedule="constant", lr=0.3)
    assert learning_rate(cfg, 0) == learning_rate(cfg, 49) == 0.3


def test_train_config_validation():
    with pytest.raises(ConfigError):
        quick_cfg(batch_size=0).validate()
    with pytest.raises(ConfigError):
        quick_cfg(lr=0.0).validate()
    with pytest.raises(ConfigError):
        quick_cfg(momentum=1.0).validate()
    with pytest.raises(ConfigError):
        quick_cfg(schedule="step").validate()
    with pytest.raises(ConfigError):
        quick_cfg(use_sc="maybe").validate()
    for bad in ({"lr": float("nan")}, {"lr": float("inf")},
                {"poly_power": float("nan")}, {"poly_power": float("inf")},
                {"sc_mode": "bogus"}, {"sc_space": "bogus"}, {"seed": -1}):
        with pytest.raises(ConfigError):
            quick_cfg(**bad).validate()
    quick_cfg().validate()


# ---------------------------------------------------------------------------
# loss routing


def test_sample_loss_dscd_has_no_change_term():
    net = tiny_net("dscd-l")
    pair = tiny_samples(1)[0]
    loss, report, out = sample_loss(net, pair, quick_cfg())
    assert report.l_change == 0.0 and report.l_sc == 0.0
    assert out.c is None
    assert loss.requires_grad


def test_sample_loss_sscd_marks_change_pixels():
    net = tiny_net("sscd-l")
    pair = tiny_samples(1)[0]
    _, report, out = sample_loss(net, pair, quick_cfg())
    assert report.l_change > 0.0
    assert report.l_sc == 0.0  # auto keeps the consistency term off here
    assert out.c.shape[-2:] == pair.label1.shape  # one change logit per pixel


def test_sample_loss_sc_routing():
    pair = tiny_samples(1)[0]
    bi = sample_loss(tiny_net("bisrnet"), pair, quick_cfg())[1]
    assert bi.l_sc > 0.0  # auto turns it on for the attention family
    off = sample_loss(tiny_net("bisrnet"), pair, quick_cfg(use_sc="off"))[1]
    assert off.l_sc == 0.0
    forced = sample_loss(tiny_net("sscd-l"), pair, quick_cfg(use_sc="on"))[1]
    assert forced.l_sc > 0.0


# ---------------------------------------------------------------------------
# the loop


def test_train_returns_history_and_learns_something():
    net = tiny_net()
    history = train(net, tiny_samples(2), quick_cfg(epochs=3))
    assert len(history) == 3
    assert all(isinstance(r, LossReport) for r in history)


def test_epoch_report_is_the_mean_of_the_sample_reports():
    # one batch without augmentation: epoch 0 scores every sample at the
    # initial weights, so its report is the plain mean of their reports
    net = tiny_net("bisrnet")
    samples = tiny_samples(3)
    cfg = quick_cfg(batch_size=3, epochs=1)
    reports = [sample_loss(net, pair, cfg)[1] for pair in samples]
    (epoch0,) = train(net, samples, cfg)
    for field in fields(LossReport):
        mean = math.fsum(getattr(r, field.name) for r in reports) / len(reports)
        assert getattr(epoch0, field.name) == pytest.approx(mean, rel=1e-12, abs=1e-12), field.name


def test_train_determinism_bit_for_bit():
    samples = tiny_samples(2)
    runs = []
    for _ in range(2):
        net = tiny_net(seed=1)
        train(net, samples, quick_cfg(augment=True))
        runs.append({n: t.data.copy() for n, t in net.named_parameters()})
    assert runs[0].keys() == runs[1].keys()
    for name in runs[0]:
        np.testing.assert_array_equal(runs[0][name], runs[1][name])


def test_train_seed_changes_outcome():
    samples = tiny_samples(2)
    nets = []
    for seed in (0, 1):
        net = tiny_net()
        train(net, samples, quick_cfg(augment=True, seed=seed))
        nets.append(net)
    diffs = [np.abs(a.data - b.data).max()
             for (_, a), (_, b) in zip(nets[0].named_parameters(),
                                       nets[1].named_parameters())]
    assert max(diffs) > 0.0


def test_train_rejects_empty_dataset():
    with pytest.raises(ConfigError):
        train(tiny_net(), [], quick_cfg())


def test_train_aborts_on_nan_with_snapshot():
    net = tiny_net()
    # poison a head weight: nothing sits between the head logits and the loss
    net.heads["p1"].weight.data[0, 0] = np.nan
    with pytest.raises(NumericFailure) as info:
        train(net, tiny_samples(1), quick_cfg())
    assert info.value.snapshot["epoch"] == 0
    assert "stem" in info.value.snapshot


def test_train_aborts_on_a_nan_encoder_kernel():
    # relu lets the NaN through, so it reaches the loss from the first layer
    net = tiny_net()
    net.encoder.stages[0][0].data[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericFailure) as info:
        train(net, tiny_samples(1), quick_cfg())
    assert info.value.snapshot["epoch"] == 0
    assert info.value.snapshot["stem"] == "00"


def test_train_logs_one_line_per_epoch():
    lines = []
    train(tiny_net(), tiny_samples(1), quick_cfg(epochs=2), log=lines.append)
    assert len(lines) == 2
    assert "total" in lines[0] and "lr" in lines[0]


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_report_structure():
    net = tiny_net()
    samples = tiny_samples(2)
    report = evaluate(net, samples)
    assert report.pixels == 2 * 2 * 64  # both temporal maps of two 8x8 pairs
    assert len(report.temporal) == 2
    assert report.params == net.count_params()
    assert report.flops == net.estimate_flops(8, 8)
    assert report.mask_disagreement == 0.0  # zero sets shared by construction
    assert report.temporal[0].pixels == 128


def test_evaluate_counts_flops_once_per_size(monkeypatch):
    net = tiny_net()
    calls = []
    logits = Network._logits

    def counted(self, i1, i2):
        calls.append(i1.shape)
        return logits(self, i1, i2)

    monkeypatch.setattr(Network, "_logits", counted)
    first = evaluate(net, tiny_samples(2))
    assert len(calls) == 2 + 1  # one forward per pair, one for the FLOP count
    assert evaluate(net, tiny_samples(2)).flops == first.flops
    assert len(calls) == 3 + 2  # the count at 8x8 is kept
    evaluate(net, tiny_samples(1, size=16))
    assert calls[-2:] == [(3, 16, 16)] * 2  # another size counts again


def test_evaluate_forwards_without_recording_a_graph(monkeypatch):
    net = tiny_net()
    outputs = []
    forward = net.forward

    def kept(i1, i2):
        outputs.append(forward(i1, i2))
        return outputs[-1]

    monkeypatch.setattr(net, "forward", kept)
    report = evaluate(net, tiny_samples(2))
    assert len(outputs) == 2
    for out in outputs:
        for t in (out.p1, out.p2, out.c):
            assert t.parents == () and not t.requires_grad
    with no_grad():  # the FLOP count records its own graph
        assert report.flops == tiny_net().estimate_flops(8, 8) > 0


def test_evaluate_fails_at_the_first_pair_with_non_finite_logits(monkeypatch):
    net = tiny_net()
    samples = tiny_samples(3)
    pair_tensors = datamod.pair_tensors
    forwarded = []

    def poisoned(pair):
        # an inf pixel in pair 01's first image: pairs 00 and 02 stay finite
        forwarded.append(pair.stem)
        t1, t2 = pair_tensors(pair)
        if pair.stem == "01":
            t1.data[0, 0, 0] = np.inf
        return t1, t2

    monkeypatch.setattr(datamod, "pair_tensors", poisoned)
    assert evaluate(net, samples[::2]).pixels == 2 * 2 * 64
    forwarded.clear()
    with np.errstate(invalid="ignore"), pytest.raises(NumericFailure) as info:
        evaluate(net, samples)
    assert forwarded == ["00", "01"]  # pair 02 is never forwarded
    assert info.value.snapshot == {"stem": "01", "output": "p1"}
    assert str(info.value) == "evaluate: non-finite p1 logits for pair 01"


def test_evaluate_names_a_non_finite_change_logit():
    net = tiny_net()
    net.heads["c"].bias.data[0] = np.inf
    with pytest.raises(NumericFailure) as info:
        evaluate(net, tiny_samples(2))
    assert info.value.snapshot == {"stem": "00", "output": "c"}


def test_evaluate_collects_predictions():
    net = tiny_net()
    samples = tiny_samples(2)
    report, preds = evaluate(net, samples, collect_predictions=True)
    assert [stem for stem, _, _ in preds] == ["00", "01"]
    for _, s1, s2 in preds:
        assert s1.shape == (8, 8)
        np.testing.assert_array_equal(s1 == 0, s2 == 0)


def test_evaluate_perfect_net_is_perfect():
    # a stub that parrots the ground truth must score 1.0 across the board
    from scdkit.networks import ForwardOutput

    class Parrot:
        num_classes = 3

        def __init__(self, pair):
            self.pair = pair

        def forward(self, t1, t2):
            return ForwardOutput(None, None, None,
                                 self.pair.label1.astype(np.int64),
                                 self.pair.label2.astype(np.int64))

        def count_params(self):
            return 0

        def estimate_flops(self, h, w):
            return 0

    for pair in tiny_samples(2):
        r = evaluate(Parrot(pair), [pair])
        assert r.oa == 1.0 and r.miou == 1.0 and r.f_scd == 1.0
