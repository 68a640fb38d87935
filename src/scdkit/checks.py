"""Gradient verification suite.

Runs every block and loss through `tensor.grad_check` (complex-step
derivatives, exact to rounding) at small sizes, checking the gradient with
respect to the block input and every parameter tensor.  Blocks are reduced to scalars through a
fixed random readout so the checked gradients are generic.  Value
projections are re-randomized because their zero init would hide errors.

Each row of the `_CASES` table is one task per seed for the worker pool
(`scdkit.workers`): the worker draws the row from the seed and checks each
of its tensors.  A block row checks every tensor of its block; each head
and loss check is a row of its own, which draws all the seed's head and
loss tensors and checks one.  The calling process neither draws nor builds
anything; it reads the number of tasks per seed from `_CASES`.

Each case is drawn once, wherever its relu pre-activations and attention
logits fall: a complex step leaves the real parts where they are, so no
relu changes state between the analytic and the numeric evaluations.
`grad_check` records one graph per check, for the analytic gradient, and
runs its complex-step evaluations under `tensor.no_grad()`.

`THRESHOLD` sits far above the complex step's rounding error (worst
measured over seeds 0-99: about 5e-12) and far below a planted 1e-7
relative error in one op's backward, which the suite reads as 1e-7.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .blocks import (CDBlock, CotSR, Encoder, EncoderConfig, PixelClassifier,
                     ResidualUnit, SiamSR)
from .losses import (change_loss, dense_cross_entropy,
                     semantic_consistency_loss, semantic_loss, total_loss)
from .tensor import Tensor, grad_check, mul, sum_all

THRESHOLD = 1e-9


def _readout(rng, shape):
    w = Tensor(rng.normal(0.0, 1.0, size=shape))
    return lambda t: sum_all(mul(t, w))


def _residual_unit(r):
    unit = ResidualUnit(4, r)
    x = Tensor(r.normal(0.0, 1.0, size=(4, 4, 4)))
    out = _readout(r, (4, 4, 4))
    return (lambda _t: out(unit(x)),
            [("input", x), ("conv1", unit.conv1), ("conv2", unit.conv2)])


def _encoder_stage(r):
    """One encoder stage: strided conv plus a unit (inside a full encoder)."""
    enc = Encoder(EncoderConfig(3, (4, 4, 4), (2, 2, 2), (1, 0, 0)), r)
    conv0 = enc.stages[0][0]
    unit0 = enc.stages[0][3][0]
    x = Tensor(r.normal(0.0, 1.0, size=(3, 8, 8)))
    out = _readout(r, (4, 1, 1))
    return (lambda _t: out(enc(x)),
            [("input", x), ("conv", conv0),
             ("unit.conv1", unit0.conv1), ("unit.conv2", unit0.conv2)])


def _cd_block(r):
    cd = CDBlock(4, 4, 2, r)
    a = Tensor(r.normal(0.0, 1.0, size=(4, 4, 4)))
    b = Tensor(r.normal(0.0, 1.0, size=(4, 4, 4)))
    out = _readout(r, (4, 4, 4))
    tensors = [("x1", a), ("x2", b), ("fuse", cd.fuse)]
    tensors += [(f"unit{i}.conv{j}", getattr(u, f"conv{j}"))
                for i, u in enumerate(cd.units) for j in (1, 2)]
    return lambda _t: out(cd(a, b)), tensors


def _siam_sr(r):
    """Self-attention, value projection randomized away from its zero init."""
    sr = SiamSR(4, 2, r)
    sr.proj.value.data = r.normal(0.0, 0.5, size=sr.proj.value.shape)
    x = Tensor(r.normal(0.0, 0.5, size=(4, 3, 3)))
    out = _readout(r, (4, 3, 3))
    return (lambda _t: out(sr(x)),
            [("input", x), ("query", sr.proj.query),
             ("key", sr.proj.key), ("value", sr.proj.value)])


def _cot_sr(r):
    """Cross-temporal attention with shared projections."""
    cot = CotSR(4, 2, r, shared=True)
    cot.branch1.value.data = r.normal(0.0, 0.5, size=cot.branch1.value.shape)
    x1 = Tensor(r.normal(0.0, 0.5, size=(4, 3, 3)))
    x2 = Tensor(r.normal(0.0, 0.5, size=(4, 3, 3)))
    out = _readout(r, (4, 3, 3))

    def f(_t):
        y1, y2 = cot(x1, x2)
        return sum_all(mul(out(y1), out(y2)))

    return f, [("x1", x1), ("x2", x2), ("query", cot.branch1.query),
               ("key", cot.branch1.key), ("value", cot.branch1.value)]


def _head_and_loss(tensor, loss):
    """The builder of one head or loss check: it draws every head and loss
    tensor and checks `loss(draws, t)` against the draw named `tensor`."""
    def make(rng):
        head = PixelClassifier(4, 3, rng)
        xh = Tensor(rng.normal(0.0, 1.0, size=(4, 4, 4)))
        readout = _readout(rng, (3, 4, 4))
        labels = rng.integers(0, 4, size=(4, 4))
        p1 = Tensor(rng.normal(0.0, 1.5, size=(3, 4, 4)))
        p2 = Tensor(rng.normal(0.0, 1.5, size=(3, 4, 4)))
        dense = Tensor(rng.normal(0.0, 1.5, size=(5, 4, 4)))
        cl = Tensor(rng.normal(0.0, 2.0, size=(4, 4)))
        d = SimpleNamespace(head=head, xh=xh, weight=head.weight, bias=head.bias,
                            readout=readout, labels=labels, p1=p1, p2=p2, dense=dense,
                            cl=cl, change=(labels != 0).astype(np.int64))
        return functools.partial(loss, d), [(None, getattr(d, tensor))]
    return make


def _head_readout(d, _t):
    return d.readout(d.head(d.xh))


def _total_loss(d, t):
    return total_loss(semantic_loss(t, d.labels), semantic_loss(d.p2, d.labels),
                      change_loss(d.cl, d.change),
                      semantic_consistency_loss(t, d.p2, d.change))


# (result name, rng stream, make), one row per task in suite order.  The rng
# of a row is default_rng([seed, *stream]) (the blocks' trailing 0 keeps the
# draws, and so the results, of earlier versions of the suite), and make(rng)
# returns (f, [(suffix, x), ...]): grad_check(f, x) is the check named
# name[suffix], or name alone when suffix is None.
_CASES = (("residual_unit", (11, 0), _residual_unit),
          ("encoder_stage", (12, 0), _encoder_stage),
          ("cd_block", (13, 0), _cd_block),
          ("siam_sr", (14, 0), _siam_sr),
          ("cot_sr", (15, 0), _cot_sr)) + tuple(
    (name, (97,), _head_and_loss(tensor, loss)) for name, tensor, loss in (
        ("head_1x1[input]", "xh", _head_readout),
        ("head_1x1[weight]", "weight", _head_readout),
        ("head_1x1[bias]", "bias", _head_readout),
        ("semantic_loss", "p1", lambda d, t: semantic_loss(t, d.labels)),
        ("dense_cross_entropy", "dense", lambda d, t: dense_cross_entropy(t, d.labels)),
        ("change_loss", "cl", lambda d, t: change_loss(t, d.change)),
        ("consistency_intent", "p1", lambda d, t: semantic_consistency_loss(t, d.p2, d.change)),
        ("consistency_literal", "p1",
         lambda d, t: semantic_consistency_loss(t, d.p2, d.change, mode="literal")),
        ("consistency_logit_space", "p1",
         lambda d, t: semantic_consistency_loss(t, d.p2, d.change, space="logit")),
        ("total_loss", "p1", _total_loss)))


def _build(seed, case):
    """`_CASES[case]` drawn for `seed`, as its make returns it."""
    _, stream, make = _CASES[case]
    return make(np.random.default_rng([seed, *stream]))


def _run_task(seed, case):
    """The results of `_CASES[case]` for `seed` as [(name, max relative
    error)]: the row drawn once and grad-checked against each of its tensors."""
    name = f"seed{seed}/{_CASES[case][0]}"
    f, tensors = _build(seed, case)
    return [(name if suffix is None else f"{name}[{suffix}]", grad_check(f, x))
            for suffix, x in tensors]


def gradient_suite(seeds=range(10)):
    """Returns [(component name, max relative error)] across all seeds.

    Each seed is 15 tasks for the worker pool (`scdkit.workers.starmap`):
    one per block case and one per head or loss check, so the seed's
    longest task is a block case, not the ten head and loss checks in a
    row.  The results come back in suite order, and the first failing
    task's exception is raised once every task before it has finished, as
    in one loop, so neither depends on the worker count.
    """
    from . import workers  # on first use: importing it costs a fresh process ~10 ms

    tasks = [(seed, case) for seed in seeds for case in range(len(_CASES))]
    return [result for results in workers.starmap(_run_task, tasks) for result in results]


def worst(results):
    return max(err for _, err in results) if results else 0.0
