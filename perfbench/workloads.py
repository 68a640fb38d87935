"""The benchmark workloads: inputs, set-up and the measured closed loop.

One caller in one process starts each call into scdkit only after the last
one returned.  Inputs come from the workload seed through `data.make_pair`
and are written to files before any timing; the program reads only those
files.  scdkit is called through module attributes (`data.load_dataset`, not
an imported name), so the tracer's wrappers are what runs when it is on.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import traceback

import numpy as np

from scdkit import checks, data, networks, tensor

import verify

train_mod = importlib.import_module("scdkit.train")  # `scdkit.train` is also a function name

clock = time.perf_counter
BATCH = 8


class Measurement:
    """What one measured phase did: its closed-loop operations by kind, with
    their work items and times, secondary stages, and failed operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.items = 0
        self.op_ms = []
        self.op_s = {}        # operation kind -> seconds of each operation
        self.op_items = {}    # operation kind -> work items one operation does
        self.attempted = 0
        self.failed = 0
        self.stages = {}      # stage -> [items, seconds]
        self.values = {}      # quality values, e.g. the final training loss

    def begin_op(self):
        if self.tracer is not None:
            self.tracer.op = len(self.op_ms)

    def record(self, units, failed, what):
        """Count `units` attempted operations, `failed` of them failed."""
        self.attempted += units
        self.failed += failed
        if failed:
            print(f"check failed: {what} ({failed} of {units})", file=sys.stderr)

    def crashed(self, units, what):
        traceback.print_exc(file=sys.stderr)
        self.record(units, units, f"{what} raised")

    def op(self, kind, items, seconds):
        """Record one closed-loop operation of `kind` that did `items` work items."""
        self.items += items
        self.op_ms.append(1000.0 * seconds)
        self.op_s.setdefault(kind, []).append(seconds)
        self.op_items[kind] = items

    def stage(self, name, items, seconds):
        total = self.stages.setdefault(name, [0, 0.0])
        total[0] += items
        total[1] += seconds

    def rate(self, stage=None):
        """Items per second with each kind of operation at its median time, or
        the overall rate of a secondary stage.  The median keeps bursts of host
        noise out of the figure; taking it per kind keeps the mix of kinds
        (fast and slow families) from moving it."""
        if stage is None:
            busy = sum(statistics.median(s) for s in self.op_s.values())
            return sum(self.op_items.values()) / busy if busy else 0.0
        items, seconds = self.stages.get(stage, (0, 0.0))
        return items / seconds if seconds else 0.0

    def ms_per_item(self, kind):
        """Mean milliseconds per work item of one kind of operation."""
        seconds = self.op_s.get(kind)
        return 1000.0 * sum(seconds) / (len(seconds) * self.op_items[kind]) if seconds else 0.0


def measure(w, m, seconds=None, rounds=None):
    """Repeat `w.round(m)` `rounds` times, or until the repetition end closest
    to `seconds`; returns the number of repetitions."""
    start = clock()
    done = 0
    while True:
        t = clock()
        w.round(m)
        done += 1
        now = clock()
        if done == rounds or (rounds is None and now - start + (now - t) / 2 >= seconds):
            return done


class Train:
    """Each round trains the five families in FAMILIES order from fresh
    weights for the same number of batch-8 steps, saves and restores each
    checkpoint, and evaluates the restored network on held-out pairs."""

    classes = 4

    def __init__(self, seed, root, size, epochs, eval_pairs):
        self.seed, self.root, self.size, self.eval_pairs = seed, root, size, eval_pairs
        # the acceptance-gate training regime; the training set is one batch,
        # so `train` logs once per optimizer step
        self.cfg = train_mod.TrainConfig(batch_size=BATCH, epochs=epochs, lr=0.005,
                                         momentum=0.9, seed=seed)
        self.checked = set()

    def generate(self):
        for subset, count in ((0, BATCH), (1, self.eval_pairs)):
            for i in range(count):
                pair = data.make_pair(f"{subset}{i:05d}", [self.seed, subset, i],
                                      self.size, self.size, self.classes, 0.2)
                data.write_sample(self.root / f"set{subset}", pair)

    def set_up(self):
        self.train_set = data.load_dataset(self.root / "set0", self.classes)
        self.eval_set = data.load_dataset(self.root / "set1", self.classes)
        for family in networks.FAMILIES:
            net = networks.build(family, self.classes, seed=self.seed)
            loss, _, _ = train_mod.sample_loss(net, self.train_set[0], self.cfg)
            tensor.backward(loss)

    def restart(self):
        pass  # every round trains from the same weights on the same pairs

    def round(self, m):
        for family in networks.FAMILIES:
            try:
                self._family(m, family)
            except Exception:
                m.crashed(self.cfg.epochs + self.eval_pairs + 1, family)

    def _family(self, m, family):
        steps = self.cfg.epochs
        net = networks.build(family, self.classes, seed=self.seed)
        stamps = [clock()]

        def step_done(_line):
            stamps.append(clock())
            m.begin_op()

        m.begin_op()
        history, ok = verify.train_checked(net, self.train_set, self.cfg, log=step_done)
        m.record(steps, 0 if ok else steps, f"{family}: finite training losses")
        if history is None:
            return
        for a, b in zip(stamps, stamps[1:]):
            m.op(family, len(self.train_set), b - a)
        m.values.setdefault(f"loss_end.{family}", history[-1].l_total)

        restored = networks.build(family, self.classes, seed=self.seed + 1)
        ok = verify.round_trip(net, self.root / f"{family}.ckpt", restored)
        m.record(1, 0 if ok else 1, f"{family}: checkpoint round trip")

        t = clock()
        report, predictions = train_mod.evaluate(restored, self.eval_set, collect_predictions=True)
        m.stage("eval_pairs", len(self.eval_set), clock() - t)
        ok = verify.mask_consistent(restored, report)
        if family not in self.checked:
            self.checked.add(family)
            ok = ok and self._check_reports(family, report, predictions)
        m.record(len(self.eval_set), 0 if ok else len(self.eval_set),
                 f"{family}: evaluation report")

    def _check_reports(self, family, report, predictions):
        """`evaluate` against the oracle, and against the same maps scored from files."""
        maps = [(s1, s2) for _, s1, s2 in predictions]
        truths = [(p.label1, p.label2) for p in self.eval_set]
        pred_dir = self.root / f"pred-{family}"
        for stem, s1, s2 in predictions:
            data.write_prediction(pred_dir, stem, s1, s2)
        stored = train_mod.evaluate_directories(pred_dir, self.root / "set1", self.classes)
        return (verify.oracle_matches(report, maps, truths, self.classes)
                and verify.reports_match(report, stored))


class Score:
    """Writes seeded noisy predictions with `write_prediction`, then scores the
    directory against 512x512 truth with `evaluate_directories` (the
    `scdkit evaluate --pred-out` then `scdkit metrics` path)."""

    size = 512
    classes = 6
    pairs = 16

    def __init__(self, seed, root):
        self.seed, self.root = seed, root
        self.truth_dir, self.pred_dir = root / "truth", root / "pred"
        self.rounds = 0
        self.oracle_checked = False

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        truth = []
        for i in range(self.pairs):
            pair = data.make_pair(f"{i:05d}", [self.seed, 0, i], self.size, self.size,
                                  self.classes, 0.2)
            data.write_sample(self.truth_dir, pair)
            truth.append((pair.label1, pair.label2))
        self.stems = data.list_stems(self.truth_dir)
        # two prediction sets, written in turn, so every round reads what it just wrote
        self.variants = [[self._noisy(t1, t2, rng) for t1, t2 in truth] for _ in range(2)]
        self.expected = [verify.maps_report(v, truth, self.classes) for v in self.variants]
        self._write(self.variants[0])
        # one pair on its own, scored against the oracle once per run
        data.write_sample(self.root / "one-truth", pair)
        s1, s2 = self.variants[0][-1]
        data.write_prediction(self.root / "one-pred", pair.stem, s1, s2)
        self.oracle_case = ([(s1, s2)], [truth[-1]])

    def _noisy(self, t1, t2, rng):
        """Truth with 5 % of the change mask flipped and 10 % of changed pixels
        relabelled; both maps keep one zero set, as a change head's do."""
        shape = t1.shape
        changed = (t1 != 0) ^ (rng.random(shape) < 0.05)
        out = []
        for t in (t1, t2):
            s = np.where(t != 0, t, rng.integers(1, self.classes + 1, shape))
            s = np.where(rng.random(shape) < 0.1, rng.integers(1, self.classes + 1, shape), s)
            out.append(np.where(changed, s, 0).astype(np.int64))
        return tuple(out)

    def _write(self, maps):
        for stem, (s1, s2) in zip(self.stems, maps):
            data.write_prediction(self.pred_dir, stem, s1, s2)

    def set_up(self):
        data.load_dataset(self.truth_dir, self.classes)
        train_mod.evaluate_directories(self.pred_dir, self.truth_dir, self.classes)

    def restart(self):
        self.rounds = 0

    def round(self, m):
        try:
            if not self.oracle_checked:
                self.oracle_checked = True
                self._check_oracle(m)
            self._score(m)
        except Exception:
            m.crashed(self.pairs, "scoring")

    def _check_oracle(self, m):
        report = train_mod.evaluate_directories(self.root / "one-pred", self.root / "one-truth",
                                                self.classes)
        ok = verify.oracle_matches(report, *self.oracle_case, self.classes)
        m.record(1, 0 if ok else 1, "evaluate_directories against the oracle")

    def _score(self, m):
        v = self.rounds % 2
        self.rounds += 1
        m.begin_op()
        t0 = clock()
        self._write(self.variants[v])
        t1 = clock()
        report = train_mod.evaluate_directories(self.pred_dir, self.truth_dir, self.classes)
        t2 = clock()
        m.stage("write_pairs", self.pairs, t1 - t0)
        m.op("score", self.pairs, t2 - t1)
        ok = verify.reports_match(self.expected[v], report)
        m.record(self.pairs, 0 if ok else self.pairs, "scored files against in-memory report")


class Gradcheck:
    """`checks.gradient_suite`, one seed per call, over the seed range of
    `scdkit gradcheck` and acceptance check 1, starting at the workload seed."""

    seeds = 10

    def __init__(self, seed, root):
        self.seed = seed
        self.k = 0

    def generate(self):
        pass  # the suite draws its own inputs from its seeds

    def set_up(self):
        x = tensor.Tensor(np.random.default_rng(self.seed).normal(size=(3, 4, 4)))
        tensor.grad_check(lambda t: tensor.sum_all(tensor.mul(t, t)), x)

    def restart(self):
        self.k = 0

    def round(self, m):
        s = (self.seed + self.k) % self.seeds
        self.k += 1
        m.begin_op()
        t = clock()
        try:
            results = checks.gradient_suite([s])
        except Exception:
            m.crashed(verify.CHECKS_PER_SEED, f"gradient suite seed {s}")
            return
        took = clock() - t
        m.op("suite", len(results), took)
        worst = checks.worst(results)
        m.values["worst_error"] = max(m.values.get("worst_error", 0.0), worst)
        failed = verify.failed_checks(results)
        m.record(max(len(results), verify.CHECKS_PER_SEED), failed,
                 f"gradient suite seed {s}, worst error {worst:.3g}")


WORKLOADS = {
    "train-32": lambda seed, root: Train(seed, root, size=32, epochs=4, eval_pairs=8),
    "train-128": lambda seed, root: Train(seed, root, size=128, epochs=1, eval_pairs=2),
    "score-512": Score,
    "gradcheck": Gradcheck,
}
