"""Training and evaluation loops.

Defaults follow the usual protocol for this task family: batches of 8, 50
epochs, Nesterov momentum 0.9 starting at learning rate 0.1, random
flip/rotate augmentation while loading.  The polynomial decay of the
learning rate to zero (power 0.9) is an artifact default, as is the seeded
shuffling; both exist so identical seed and config reproduce identical
checkpoints bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from .blocks import save_checkpoint
from .errors import ConfigError, NumericFailure
from .losses import (LossReport, change_loss, dense_cross_entropy,
                     semantic_consistency_loss, semantic_loss, total_loss)
from .metrics import ConfusionMatrix, compute_report
from .networks import mask_disagreement
from .tensor import Tensor, no_grad, zero_grads


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 50
    lr: float = 0.1
    momentum: float = 0.9
    schedule: str = "poly"     # "poly" decays to zero over the run, "constant" does not
    poly_power: float = 0.9
    seed: int = 0
    augment: bool = True
    sc_mode: str = "intent"
    sc_space: str = "prob"
    use_sc: str = "auto"       # "auto": only networks with attention blocks add the term

    def validate(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError(f"batch size and epochs must be >= 1, got {self.batch_size}/{self.epochs}")
        if not 0 < self.lr < math.inf or not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"bad lr/momentum {self.lr}/{self.momentum}")
        if not math.isfinite(self.poly_power):
            raise ConfigError(f"lr power must be finite, got {self.poly_power}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.schedule not in ("poly", "constant"):
            raise ConfigError(f"unknown lr schedule {self.schedule!r}")
        if self.use_sc not in ("auto", "on", "off"):
            raise ConfigError(f"loss.sc must be auto/on/off, got {self.use_sc!r}")
        if self.sc_mode not in ("intent", "literal"):
            raise ConfigError(f"loss.sc_mode must be intent/literal, got {self.sc_mode!r}")
        if self.sc_space not in ("prob", "logit"):
            raise ConfigError(f"loss.sc_space must be prob/logit, got {self.sc_space!r}")


class NesterovSGD:
    """SGD with Nesterov momentum in lookahead form:

        u <- mu * u - lr * g
        theta <- theta + mu * u - lr * g

    With lr = 0 the parameters are exact fixed points.
    """

    def __init__(self, params, momentum=0.9):
        self.params = list(params)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        mu = self.momentum
        for p, u in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            u *= mu
            u -= lr * p.grad
            p.data += mu * u - lr * p.grad

    def zero_grads(self):
        zero_grads(self.params)


def learning_rate(cfg, epoch):
    if cfg.schedule == "constant":
        return cfg.lr
    return cfg.lr * (1.0 - epoch / cfg.epochs) ** cfg.poly_power


def sample_loss(net, pair, cfg):
    """Forward one pair and route the loss terms by the network's head layout."""
    t1, t2 = datamod.pair_tensors(pair)
    out = net.forward(t1, t2)
    l1m = pair.label1.astype(np.int64)
    l2m = pair.label2.astype(np.int64)

    lc = lsc = Tensor(0.0)
    if out.c is None:
        # joint heads carry no-change as channel 0, so train them on the raw maps
        l1 = dense_cross_entropy(out.p1, l1m)
        l2 = dense_cross_entropy(out.p2, l2m)
    else:
        change = pair.change_map.astype(np.int64)
        l1 = semantic_loss(out.p1, l1m)
        l2 = semantic_loss(out.p2, l2m)
        lc = change_loss(out.c, change)
        if cfg.use_sc == "on" or (cfg.use_sc == "auto" and net.cotsr is not None):
            lsc = semantic_consistency_loss(out.p1, out.p2, change, cfg.sc_mode, cfg.sc_space)
    loss = total_loss(l1, l2, lc, lsc)
    report = LossReport.from_terms(l1.item(), l2.item(), lc.item(), lsc.item())
    return loss, report, out


def _mean_report(reports):
    n = max(len(reports), 1)
    return LossReport.from_terms(
        sum(r.l_sem1 for r in reports) / n,
        sum(r.l_sem2 for r in reports) / n,
        sum(r.l_change for r in reports) / n,
        sum(r.l_sc for r in reports) / n)


def train(net, samples, cfg, log=None):
    """Run the full loop over in-memory samples; returns per-epoch reports.

    The per-sample forward and backward passes run in worker processes
    (`scdkit.workers`), one per core of this process's CPU affinity and at
    most `cfg.batch_size`.  The workers are started by the first call and
    reused by later ones, and each runs its BLAS on one thread.  Per step this
    process augments the batch, hands each worker a consecutive slice of it,
    and sums the per-sample gradients in batch order: worker k adds its
    samples' gradients, in order, onto worker k-1's partial sum.  That is the
    order of the in-process `grad = g0; grad = grad + g1; ...`, so the
    trained weights are the same bits for any worker count and any BLAS
    thread count of the caller.  The optimizer step runs here.

    Aborts with NumericFailure (plus a diagnostic snapshot) at the first
    non-finite loss in batch order, before that batch's optimizer step; an
    exception raised in a worker reaches the caller as it was raised.
    """
    from . import workers  # on first use: importing it costs a fresh process ~10 ms

    cfg.validate()
    if not samples:
        raise ConfigError("train: dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    opt = NesterovSGD(net.parameters(), cfg.momentum)
    history = []
    with workers.Session(net, cfg, workers.worker_count(cfg.batch_size)) as session:
        for epoch in range(cfg.epochs):
            lr = learning_rate(cfg, epoch)
            order = rng.permutation(len(samples))
            reports = []
            for start in range(0, len(order), cfg.batch_size):
                batch = [samples[int(idx)] for idx in order[start:start + cfg.batch_size]]
                if cfg.augment:
                    batch = [datamod.augment(pair, rng) for pair in batch]
                done, error = session.losses(batch)
                for pair, report in zip(batch, done):
                    if not math.isfinite(report.l_total):
                        raise NumericFailure(
                            f"non-finite loss at epoch {epoch}, sample {pair.stem}",
                            snapshot={"epoch": epoch, "stem": pair.stem, "lr": lr,
                                      "report": report})
                if error is not None:
                    raise error
                reports += done
                session.gradients()
                opt.step(lr)
            epoch_report = _mean_report(reports)
            history.append(epoch_report)
            if log is not None:
                log(epoch_report.line(f"epoch {epoch:3d}  lr {lr:.5f}"))
    return history


def _merged_report(cm1, cm2, disagree):
    """Merged report with the per-temporal breakdown and mean mask disagreement."""
    report = compute_report(cm1.merge(cm2))
    report.temporal = [compute_report(cm1), compute_report(cm2)]
    report.mask_disagreement = float(np.mean(disagree)) if disagree else 0.0
    return report


def evaluate(net, samples, collect_predictions=False):
    """Forward every pair, accumulate one confusion matrix over both temporal
    maps, and report with the per-temporal breakdown attached.  The forward
    passes run under `no_grad()`: only their values are read, so no graph
    is built.  Raises `NumericFailure` at the first pair with a non-finite
    logit, naming the pair and the output (`p1`, `p2` or `c`, the change
    logit): label maps argmaxed from such logits mean nothing."""
    n = net.num_classes
    cm1 = ConfusionMatrix(n)
    cm2 = ConfusionMatrix(n)
    disagree = []
    predictions = []
    for pair in samples:
        with no_grad():
            out = net.forward(*datamod.pair_tensors(pair))
        for name in ("p1", "p2", "c"):
            logits = getattr(out, name)
            if logits is not None and not np.isfinite(logits.data).all():
                raise NumericFailure(f"evaluate: non-finite {name} logits for pair {pair.stem}",
                                     snapshot={"stem": pair.stem, "output": name})
        s1, s2 = out.s1, out.s2
        del out  # frees this pair's logits before the next pair is forwarded
        cm1.add(s1, pair.label1)
        cm2.add(s2, pair.label2)
        disagree.append(mask_disagreement(s1, s2))
        if collect_predictions:
            predictions.append((pair.stem, s1, s2))
    report = _merged_report(cm1, cm2, disagree)
    report.params = net.count_params()
    if samples:
        report.flops = net.estimate_flops(samples[0].height, samples[0].width)
    if collect_predictions:
        return report, predictions
    return report


def evaluate_directories(pred_root, truth_root, n_classes):
    """Compare stored prediction maps against a truth dataset directory."""
    stems = datamod.list_stems(truth_root)
    cm1 = ConfusionMatrix(n_classes)
    cm2 = ConfusionMatrix(n_classes)
    disagree = []
    for stem in stems:
        p1, p2 = datamod.read_prediction(pred_root, stem)
        t1 = datamod.read_pgm(f"{truth_root}/label1/{stem}.pgm")
        t2 = datamod.read_pgm(f"{truth_root}/label2/{stem}.pgm")
        cm1.add(p1, t1)
        cm2.add(p2, t2)
        disagree.append(mask_disagreement(p1, p2))
    return _merged_report(cm1, cm2, disagree)


def save_trained(net, path):
    save_checkpoint(path, net.named_parameters())
