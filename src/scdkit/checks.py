"""Gradient verification suite.

Runs every block and loss through `tensor.grad_check` (central finite
differences) at small sizes, checking the gradient with respect to the block
input and every parameter tensor.  Blocks are reduced to scalars through a
fixed random readout so the checked gradients are generic.  Value
projections are re-randomized because their zero init would hide errors.
"""

from __future__ import annotations

import numpy as np

from .blocks import (CDBlock, CotSR, Encoder, EncoderConfig, PixelClassifier,
                     ResidualUnit, SiamSR)
from .errors import NumericFailure
from .losses import (change_loss, dense_cross_entropy,
                     semantic_consistency_loss, semantic_loss, total_loss)
from .tensor import Tensor, grad_check, mul, sum_all, topo_order

THRESHOLD = 1e-4

# Finite differences are only meaningful at differentiable points: a relu
# whose pre-activation sits within the step of zero flips state between the
# two evaluations and poisons the numeric estimate.  Components containing
# relus are therefore redrawn until every pre-activation clears this margin.
_RELU_MARGIN = 2e-2


def relu_margin(root):
    """Smallest |pre-activation| over all relu nodes reachable from `root`."""
    margin = np.inf
    for node in topo_order(root):
        if node.op == "relu":
            pre = np.abs(node.parents[0].data)
            if pre.size:
                margin = min(margin, float(pre.min()))
    return margin


# Saturated softmax rows are the smooth analogue of the relu kink: gradients
# underflow towards zero while the finite-difference truncation error does
# not, so relative errors explode.  Attention cases are redrawn until their
# logits stay moderate.
_LOGIT_BOUND = 4.0


def _draw_clear(make, attempts=200):
    """Call make(attempt) until the configuration is well-conditioned for
    finite differences (clear of relu kinks, and any case-specific bound)."""
    for attempt in range(attempts):
        built = make(attempt)
        if built.get("ok", True) and relu_margin(built["graph"]()) > _RELU_MARGIN:
            return built
    raise NumericFailure("could not find a well-conditioned configuration to gradient-check",
                         snapshot={"attempts": attempts})


def _readout(rng, shape):
    w = Tensor(rng.normal(0.0, 1.0, size=shape))
    return lambda t: sum_all(mul(t, w))


def _check_params(results, name, build_graph, tensors, step=1e-3):
    """grad_check the graph against each named tensor in turn."""
    for suffix, t in tensors:
        err = grad_check(lambda _t: build_graph(), t, step=step)
        results.append((f"{name}[{suffix}]", err))


def gradient_suite(seeds=range(10)):
    """Returns [(component name, max relative error)] across all seeds."""
    results = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 97])
        tag = f"seed{seed}"

        # residual unit
        def make_unit(attempt):
            r = np.random.default_rng([seed, 11, attempt])
            unit = ResidualUnit(4, r)
            x = Tensor(r.normal(0.0, 1.0, size=(4, 4, 4)))
            out = _readout(r, (4, 4, 4))
            return {"graph": lambda: out(unit(x)),
                    "tensors": [("input", x), ("conv1", unit.conv1),
                                ("conv2", unit.conv2)]}

        built = _draw_clear(make_unit)
        _check_params(results, f"{tag}/residual_unit", built["graph"], built["tensors"])

        # one encoder stage: strided conv plus a unit (inside a full encoder)
        def make_stage(attempt):
            r = np.random.default_rng([seed, 12, attempt])
            enc = Encoder(EncoderConfig(3, (4, 4, 4), (2, 2, 2), (1, 0, 0)), r)
            conv0 = enc.stages[0][0]
            unit0 = enc.stages[0][3][0]
            xe = Tensor(r.normal(0.0, 1.0, size=(3, 8, 8)))
            oute = _readout(r, (4, 1, 1))
            return {"graph": lambda: oute(enc(xe)),
                    "tensors": [("input", xe), ("conv", conv0),
                                ("unit.conv1", unit0.conv1),
                                ("unit.conv2", unit0.conv2)]}

        built = _draw_clear(make_stage)
        _check_params(results, f"{tag}/encoder_stage", built["graph"], built["tensors"])

        # change trunk
        def make_cd(attempt):
            r = np.random.default_rng([seed, 13, attempt])
            cd = CDBlock(4, 4, 2, r)
            a = Tensor(r.normal(0.0, 1.0, size=(4, 4, 4)))
            b = Tensor(r.normal(0.0, 1.0, size=(4, 4, 4)))
            outc = _readout(r, (4, 4, 4))
            tensors = [("x1", a), ("x2", b), ("fuse", cd.fuse)]
            tensors += [(f"unit{i}.conv{j}", getattr(u, f"conv{j}"))
                        for i, u in enumerate(cd.units) for j in (1, 2)]
            return {"graph": lambda: outc(cd(a, b)), "tensors": tensors}

        built = _draw_clear(make_cd)
        _check_params(results, f"{tag}/cd_block", built["graph"], built["tensors"])

        # self-attention (value projection randomized away from its zero init)
        def make_sr(attempt):
            r = np.random.default_rng([seed, 14, attempt])
            sr = SiamSR(4, 2, r)
            sr.proj.value.data = r.normal(0.0, 0.5, size=sr.proj.value.shape)
            xs = Tensor(r.normal(0.0, 0.5, size=(4, 3, 3)))
            outs = _readout(r, (4, 3, 3))
            flat = xs.data.reshape(4, 9)
            logits = (sr.proj.query.data @ flat).T @ (sr.proj.key.data @ flat)
            return {"graph": lambda: outs(sr(xs)),
                    "ok": float(np.abs(logits).max()) <= _LOGIT_BOUND,
                    "tensors": [("input", xs), ("query", sr.proj.query),
                                ("key", sr.proj.key), ("value", sr.proj.value)]}

        built = _draw_clear(make_sr)
        _check_params(results, f"{tag}/siam_sr", built["graph"], built["tensors"])

        # cross-temporal attention (shared projections)
        def make_cot(attempt):
            r = np.random.default_rng([seed, 15, attempt])
            cot = CotSR(4, 2, r, shared=True)
            cot.branch1.value.data = r.normal(0.0, 0.5, size=cot.branch1.value.shape)
            x1 = Tensor(r.normal(0.0, 0.5, size=(4, 3, 3)))
            x2 = Tensor(r.normal(0.0, 0.5, size=(4, 3, 3)))
            outt = _readout(r, (4, 3, 3))

            def graph():
                y1, y2 = cot(x1, x2)
                return sum_all(mul(outt(y1), outt(y2)))

            peak = 0.0
            for x, branch in ((x1, cot.branch1), (x2, cot.branch2)):
                flat = x.data.reshape(4, 9)
                logits = (branch.query.data @ flat).T @ (branch.key.data @ flat)
                peak = max(peak, float(np.abs(logits).max()))
            return {"graph": graph, "ok": peak <= _LOGIT_BOUND,
                    "tensors": [("x1", x1), ("x2", x2),
                                ("query", cot.branch1.query),
                                ("key", cot.branch1.key),
                                ("value", cot.branch1.value)]}

        built = _draw_clear(make_cot)
        _check_params(results, f"{tag}/cot_sr", built["graph"], built["tensors"])

        # classifier head
        head = PixelClassifier(4, 3, rng)
        xh = Tensor(rng.normal(0.0, 1.0, size=(4, 4, 4)))
        outh = _readout(rng, (3, 4, 4))
        _check_params(results, f"{tag}/head_1x1",
                      lambda: outh(head(xh)),
                      [("input", xh), ("weight", head.weight), ("bias", head.bias)])

        # losses
        labels = rng.integers(0, 4, size=(4, 4))
        p1 = Tensor(rng.normal(0.0, 1.5, size=(3, 4, 4)))
        p2 = Tensor(rng.normal(0.0, 1.5, size=(3, 4, 4)))
        change = (labels != 0).astype(np.int64)
        results.append((f"{tag}/semantic_loss",
                        grad_check(lambda t: semantic_loss(t, labels), p1)))
        results.append((f"{tag}/dense_cross_entropy",
                        grad_check(lambda t: dense_cross_entropy(t, labels), Tensor(
                            rng.normal(0.0, 1.5, size=(5, 4, 4))))))
        cl = Tensor(rng.normal(0.0, 2.0, size=(4, 4)))
        results.append((f"{tag}/change_loss",
                        grad_check(lambda t: change_loss(t, change), cl)))
        for mode in ("intent", "literal"):
            results.append((f"{tag}/consistency_{mode}",
                            grad_check(lambda t: semantic_consistency_loss(
                                t, p2, change, mode=mode), p1)))
        results.append((f"{tag}/consistency_logit_space",
                        grad_check(lambda t: semantic_consistency_loss(
                            t, p2, change, space="logit"), p1)))

        def combined(t):
            return total_loss(semantic_loss(t, labels), semantic_loss(p2, labels),
                              change_loss(cl, change),
                              semantic_consistency_loss(t, p2, change))

        results.append((f"{tag}/total_loss", grad_check(combined, p1)))
    return results


def worst(results):
    return max(err for _, err in results) if results else 0.0
