"""Correctness checks on scdkit's outputs, and self-tests showing each can fail.

The workloads call the checks on every run; a failed check counts the
operations it covers as failed instead of ending the run.  `self_tests` feeds
each check one clean and one corrupted input and passes only if the check
accepts the first and rejects the second.
"""

from __future__ import annotations

import importlib
import math
from pathlib import Path

import numpy as np

from scdkit import blocks, checks, data, errors, metrics, networks, tensor

train_mod = importlib.import_module("scdkit.train")  # `scdkit.train` is also a function name

ORACLE_TOLERANCE = 1e-12  # the bound the acceptance gate uses for metric-vs-oracle ratios
CHECKS_PER_SEED = 33      # results `checks.gradient_suite` returns for one seed


def train_checked(net, samples, cfg, log=None):
    """Run `train`; returns (history, ok), ok False when a loss is not finite."""
    try:
        history = train_mod.train(net, samples, cfg, log=log)
    except errors.NumericFailure:
        return None, False
    return history, all(math.isfinite(r.l_total) for r in history)


def mask_consistent(net, report):
    """A network with a change head emits label maps that share their zero set."""
    return "c" not in net.heads or report.mask_disagreement == 0.0


def checkpoint_matches(net, other):
    """Same parameter names, shapes and bytes in both networks."""
    a, b = net.named_parameters(), other.named_parameters()
    return ([n for n, _ in a] == [n for n, _ in b]
            and all(x.data.shape == y.data.shape and x.data.tobytes() == y.data.tobytes()
                    for (_, x), (_, y) in zip(a, b)))


def round_trip(net, path, fresh):
    """Save `net` and restore it into `fresh`, built with other weights; True
    when `fresh` then holds exactly `net`'s parameters."""
    train_mod.save_trained(net, path)
    try:
        blocks.restore_checkpoint(path, fresh.named_parameters())
    except errors.DataError:
        return False
    return checkpoint_matches(net, fresh)


def _same(x, y, tol):
    if isinstance(x, list) or isinstance(y, list):
        return (isinstance(x, list) and isinstance(y, list) and len(x) == len(y)
                and all(_same(a, b, tol) for a, b in zip(x, y)))
    if isinstance(x, dict):
        return isinstance(y, dict) and all(_same(v, y.get(k), tol) for k, v in x.items())
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= tol * max(1.0, abs(x))


def reports_match(expected, got, tol=0.0):
    """Every value `expected` reports, except the network's size, equals `got`'s."""
    want = {k: v for k, v in expected.to_dict().items() if k not in ("params", "flops")}
    return _same(want, got.to_dict(), tol)


def oracle_matches(report, predictions, truths, n_classes):
    """`report` equals the brute-force per-pixel recount over both temporal maps."""
    pred = [s for pair in predictions for s in pair]
    truth = [t for pair in truths for t in pair]
    return reports_match(metrics.oracle_metrics(pred, truth, n_classes), report, ORACLE_TOLERANCE)


def maps_report(predictions, truths, n_classes):
    """Report of in-memory (s1, s2) maps against (label1, label2) truths."""
    cm1 = metrics.ConfusionMatrix(n_classes)
    cm2 = metrics.ConfusionMatrix(n_classes)
    for (s1, s2), (t1, t2) in zip(predictions, truths):
        cm1.add(s1, t1)
        cm2.add(s2, t2)
    report = metrics.compute_report(cm1.merge(cm2))
    report.temporal = [metrics.compute_report(cm1), metrics.compute_report(cm2)]
    report.mask_disagreement = float(np.mean([networks.mask_disagreement(s1, s2)
                                              for s1, s2 in predictions]))
    return report


def failed_checks(results):
    """Number of failed gradient checks in one seed's suite results."""
    if len(results) != CHECKS_PER_SEED:
        return max(len(results), CHECKS_PER_SEED)
    return sum(1 for _, err in results if not err < checks.THRESHOLD)


# ---------------------------------------------------------------------------
# self-tests


def _flip_label(maps, truth):
    """Copy of `maps` with one pixel that agrees with `truth` set to another class."""
    out = maps.copy()
    y, x = np.argwhere(out == truth)[0]
    out[y, x] = 1 if out[y, x] != 1 else 2
    return out


def _test_losses(pair):
    cfg = train_mod.TrainConfig(batch_size=1, epochs=1, lr=0.005, augment=False)
    _, clean = train_checked(networks.build("sscd-l", 4, seed=0), [pair], cfg)
    broken = networks.build("sscd-l", 4, seed=0)
    # a head parameter: relu maps NaN to 0, so a NaN before one never reaches the loss
    broken.parameters()[-1].data[0] = np.nan
    with np.errstate(all="ignore"):
        _, corrupted = train_checked(broken, [pair], cfg)
    return clean and not corrupted


def _test_mask(pair):
    truth = [(pair.label1, pair.label2)]
    s1 = pair.label1.astype(np.int64)
    s2 = pair.label2.astype(np.int64)
    net = networks.build("sscd-l", 4, seed=0)
    clean = mask_consistent(net, maps_report([(s1, s2)], truth, 4))
    s1 = s1.copy()
    s1[tuple(np.argwhere(s1 != 0)[0])] = 0
    return clean and not mask_consistent(net, maps_report([(s1, s2)], truth, 4))


def _test_checkpoint(tmp):
    net = networks.build("dscd-e", 4, seed=0)
    path = tmp / "checkpoint.bin"
    clean = round_trip(net, path, networks.build("dscd-e", 4, seed=1))
    train_mod.save_trained(net, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01  # an exponent bit of the last stored (little-endian) value
    path.write_bytes(bytes(raw))
    fresh = networks.build("dscd-e", 4, seed=1)
    blocks.restore_checkpoint(path, fresh.named_parameters())
    return clean and not checkpoint_matches(net, fresh)


def _test_oracle(pair):
    truth = [(pair.label1.astype(np.int64), pair.label2.astype(np.int64))]
    pred = [(truth[0][0].copy(), truth[0][1].copy())]
    report = maps_report(pred, truth, 4)
    clean = oracle_matches(report, pred, truth, 4)
    corrupted = [(_flip_label(pred[0][0], truth[0][0]), pred[0][1])]
    return clean and not oracle_matches(report, corrupted, truth, 4)


def _test_directory(tmp, pair):
    truth_dir, pred_dir = tmp / "truth", tmp / "pred"
    data.write_sample(truth_dir, pair)
    s1, s2 = pair.label1.astype(np.int64), pair.label2.astype(np.int64)
    data.write_prediction(pred_dir, pair.stem, s1, s2)
    expected = maps_report([(s1, s2)], [(pair.label1, pair.label2)], 4)
    clean = reports_match(expected, train_mod.evaluate_directories(pred_dir, truth_dir, 4))
    data.write_prediction(pred_dir, pair.stem, _flip_label(s1, pair.label1), s2)
    return clean and not reports_match(expected, train_mod.evaluate_directories(pred_dir, truth_dir, 4))


def _test_gradients():
    x = tensor.Tensor(np.random.default_rng(0).normal(size=(3, 4)))

    def doubled_backward(t):
        # identity whose backward returns twice the true gradient
        y = tensor.Tensor(t.data.copy(), requires_grad=True, parents=(t,),
                          backward_fn=lambda g: (2.0 * g,))
        return tensor.sum_all(tensor.mul(y, y))

    good = [("square", tensor.grad_check(lambda t: tensor.sum_all(tensor.mul(t, t)), x))]
    bad = [("doubled", tensor.grad_check(doubled_backward, x))]
    pad = [("pad", 0.0)] * (CHECKS_PER_SEED - 1)
    return (failed_checks(good + pad) == 0 and failed_checks(bad + pad) > 0
            and failed_checks(good + pad[1:]) > 0)


def self_tests(tmp):
    """Name -> True when the check accepted clean input and rejected corrupted input."""
    tmp = Path(tmp)
    tmp.mkdir()
    pair = data.make_pair("selftest", [0, 99], 16, 16, 4, 0.3)
    return {
        "losses_finite": _test_losses(pair),
        "mask_disagreement": _test_mask(pair),
        "checkpoint_round_trip": _test_checkpoint(tmp),
        "evaluate_vs_oracle": _test_oracle(pair),
        "directories_vs_memory": _test_directory(tmp, pair),
        "gradient_suite": _test_gradients(),
    }
