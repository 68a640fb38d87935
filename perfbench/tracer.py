"""Span tracer that wraps scdkit's public functions and classes from outside.

`Tracer.install` replaces every public function of the layer modules, and the
public methods and `__call__` of their classes, with a wrapper that records a
span: name, start, end, the enclosing span and the benchmark operation it
belongs to.  Modules import each other's functions by name, so a function is
replaced in every scdkit namespace that holds it.  `uninstall` puts the
originals back.  Spans stay in memory (the first SPAN_CAP of them; later ones
only feed the aggregates) and are written out by `write`.

A few wrappers also count work where it happens: graph nodes per backward
pass, f(x) evaluations per gradient check, bytes read and written, pixels
added to confusion matrices, multiply-adds per forward pass and redraws in the
gradient suite.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("tensor", "blocks", "networks", "losses", "train", "data", "metrics", "checks")

# Tensor's properties and item() run inside every op; the op functions carry its spans.
SKIP = {"tensor.Tensor"}
# Private helpers wrapped only to count wasted work.
PRIVATE = {"checks._draw_clear"}

SPAN_CAP = 50_000
GRAPH_SAMPLE_EVERY = 8  # walking the graph again costs time, so count one backward pass in 8

LOSSES = ("losses.semantic_loss", "losses.dense_cross_entropy", "losses.change_loss",
          "losses.semantic_consistency_loss", "losses.total_loss")


class Tracer:
    def __init__(self):
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, seconds, self seconds
        self.counts = collections.Counter()
        self.spans = []  # (id, parent id, name, start, end, operation)
        self.dropped = 0
        self.op = 0
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self._patches = []
        self._originals = {}
        self._macs = {}

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "scdkit" or n.startswith("scdkit.")]
        holders = collections.defaultdict(list)  # id(function) -> [(namespace, attribute)]
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    holders[id(obj)].append((mod, attr))
        hooks = self._hooks()
        for layer in LAYERS:
            mod = importlib.import_module(f"scdkit.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if getattr(obj, "__module__", None) != mod.__name__ or name in SKIP:
                    continue
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(name, obj, hooks.get(name, (None, None)))
                    for holder, held in holders[id(obj)]:
                        self._patch(holder, held, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__call__" or not meth.startswith("_")):
                            full = f"{name}.{meth}"
                            self._patch(obj, meth, self._wrap(full, fn, hooks.get(full, (None, None))))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr, replacement):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    def _wrap(self, name, fn, hook):
        self._originals[name] = fn
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        before, after = hook

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[0] if parent else -1, name, start, end, self.op))
                else:
                    self.dropped += 1
            if after is not None:
                after(args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- counters --------------------------------------------------------------

    def _hooks(self):
        """Span name -> (before, after): `before` may replace the positional
        arguments; `after` runs once the call has returned normally, outside its span."""
        counts = self.counts

        def backward(args):
            counts["backward"] += 1
            if counts["backward"] % GRAPH_SAMPLE_EVERY == 1:
                counts["graph_nodes"] += len(self._originals["tensor.topo_order"](args[0]))
                counts["graph_samples"] += 1
            return args

        def grad_check(args):
            f = args[0]

            def counted(x):
                counts["fd_evals"] += 1
                return f(x)

            return (counted,) + args[1:]

        def read(args):
            counts["bytes_read"] += os.path.getsize(args[0])

        def write(args):
            counts["bytes_written"] += os.path.getsize(args[0])

        def cm_add(args):
            counts["pixels"] += getattr(args[1], "size", 0)
            return args

        def forward(args):
            net, image = args[0], args[1]
            key = (net.family, image.shape)
            if key not in self._macs:
                flops = self._originals["networks.Network.estimate_flops"](net, *image.shape[1:])
                self._macs[key] = flops // 2
            counts["macs"] += self._macs[key]
            return args

        def suite(args):
            seeds = list(args[0])
            counts["suite_seeds"] += len(seeds)
            return (seeds,) + args[1:]

        def draw(args):
            make = args[0]

            def counted(attempt):
                counts["draws_built"] += 1
                return make(attempt)

            return (counted,) + args[1:]

        def accepted(args):
            counts["draws_accepted"] += 1

        return {"tensor.backward": (backward, None), "tensor.grad_check": (grad_check, None),
                "data.read_pgm": (None, read), "data.read_ppm": (None, read),
                "data.write_pgm": (None, write), "data.write_ppm": (None, write),
                "metrics.ConfusionMatrix.add": (cm_add, None),
                "networks.Network.forward": (forward, None),
                "checks.gradient_suite": (suite, None), "checks._draw_clear": (draw, accepted)}

    # -- results ---------------------------------------------------------------

    def calls(self, *names):
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def seconds(self, *names):
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def ms_per_call(self, *names):
        calls = self.calls(*names)
        return 1000.0 * self.seconds(*names) / calls if calls else 0.0

    def layer_metrics(self, items):
        """Per-layer metrics of the traced phase; `items` is its count of work items."""
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        forward_s = self.seconds("networks.Network.forward")
        return {
            "tensor.graph_nodes": ratio(c["graph_nodes"], c["graph_samples"]),
            "tensor.backward_ms": self.ms_per_call("tensor.backward"),
            "tensor.conv2d_ms": self.ms_per_call("tensor.conv2d"),
            "tensor.conv2d_calls": ratio(self.calls("tensor.conv2d"), items),
            "tensor.matmul_ms": self.ms_per_call("tensor.matmul"),
            "tensor.grad_check_ms": self.ms_per_call("tensor.grad_check"),
            "tensor.fd_evals": ratio(c["fd_evals"], self.calls("tensor.grad_check")),
            "blocks.encoder_ms": self.ms_per_call("blocks.Encoder.__call__"),
            "blocks.cd_ms": self.ms_per_call("blocks.CDBlock.__call__"),
            "blocks.head_ms": self.ms_per_call("blocks.PixelClassifier.__call__"),
            "blocks.siamsr_ms": self.ms_per_call("blocks.SiamSR.__call__"),
            "blocks.cotsr_ms": self.ms_per_call("blocks.CotSR.__call__"),
            "networks.forward_ms": self.ms_per_call("networks.Network.forward"),
            "networks.upsample_ms": self.ms_per_call("tensor.upsample_nearest",
                                                     "tensor.upsample_bilinear"),
            "networks.mask_semantic_ms": self.ms_per_call("networks.mask_semantic"),
            "networks.forward_gmacs_per_s": ratio(c["macs"] / 1e9, forward_s),
            "losses.ms": self.ms_per_call(*LOSSES),
            "losses.consistency_ms": self.ms_per_call("losses.semantic_consistency_loss"),
            "train.optimizer_step_ms": self.ms_per_call("train.NesterovSGD.step"),
            "data.augment_ms": self.ms_per_call("data.augment"),
            "data.pair_tensors_ms": self.ms_per_call("data.pair_tensors"),
            "data.read_ms": self.ms_per_call("data.read_pgm", "data.read_ppm"),
            "data.bytes_read": ratio(c["bytes_read"], items),
            "data.write_ms": self.ms_per_call("data.write_pgm", "data.write_ppm"),
            "data.bytes_written": ratio(c["bytes_written"], items),
            "metrics.cm_add_ms": self.ms_per_call("metrics.ConfusionMatrix.add"),
            "metrics.compute_report_ms": self.ms_per_call("metrics.compute_report"),
            "metrics.pixels": ratio(c["pixels"], items),
            "checks.suite_ms_per_seed": ratio(1000.0 * self.seconds("checks.gradient_suite"),
                                              c["suite_seeds"]),
            "checks.grad_check_calls": ratio(self.calls("tensor.grad_check"), c["suite_seeds"]),
            "checks.draw_accept_ratio": ratio(c["draws_accepted"], c["draws_built"]),
        }

    def self_ms_by_layer(self):
        """Self time per layer: span time not covered by child spans."""
        out = collections.Counter()
        for name, (_, _, own) in self.stats.items():
            out[name.split(".", 1)[0]] += 1000.0 * own
        return dict(out)

    def write(self, path, header):
        """Write a header line, one line of totals per span name, then the kept spans."""
        with open(path, "w") as f:
            head = dict(header, spans_kept=len(self.spans), spans_dropped=self.dropped,
                        self_ms_by_layer=self.self_ms_by_layer(), counts=dict(self.counts))
            f.write(json.dumps(head) + "\n")
            for name, (calls, total, own) in sorted(self.stats.items()):
                if calls:
                    f.write(json.dumps({"name": name, "calls": calls, "ms": 1000.0 * total,
                                        "self_ms": 1000.0 * own}) + "\n")
            for sid, parent, name, start, end, op in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                    "start": start, "end": end}) + "\n")
