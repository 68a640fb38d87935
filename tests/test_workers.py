"""Training across worker processes: bit-equality with the in-process loop,
independence from the worker and BLAS thread counts, and the failure paths."""

import importlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import scdkit
from scdkit import workers
from scdkit.data import augment, make_pair
from scdkit.errors import DimensionError, NumericFailure
from scdkit.networks import FAMILIES, build
from scdkit.tensor import backward, scale

train_mod = importlib.import_module("scdkit.train")  # `scdkit.train` is also a function name
SRC = str(Path(scdkit.__file__).resolve().parent.parent)


def pairs(count, size=32, seed=0):
    return [make_pair(f"{i:02d}", [seed, i], size, size, 4, 0.2) for i in range(count)]


def cfg(**over):
    base = dict(batch_size=4, epochs=2, lr=0.005, momentum=0.9, seed=3, augment=True)
    base.update(over)
    return train_mod.TrainConfig(**base)


def serial_train(net, samples, c):
    """The in-process loop: per sample `backward(scale(loss, 1/len(batch)))`
    into `.grad`, then one optimizer step per batch, on the same rng."""
    rng = np.random.default_rng(c.seed)
    opt = train_mod.NesterovSGD(net.parameters(), c.momentum)
    history = []
    for epoch in range(c.epochs):
        lr = train_mod.learning_rate(c, epoch)
        order = rng.permutation(len(samples))
        reports = []
        for start in range(0, len(order), c.batch_size):
            batch = order[start:start + c.batch_size]
            opt.zero_grads()
            for idx in batch:
                pair = augment(samples[int(idx)], rng) if c.augment else samples[int(idx)]
                loss, report = train_mod.sample_loss(net, pair, c)[:2]
                backward(scale(loss, 1.0 / len(batch)))
                reports.append(report)
            opt.step(lr)
        history.append(train_mod._mean_report(reports))
    return history


@pytest.mark.parametrize("family", FAMILIES)
def test_train_equals_serial_loop_for_any_worker_count(family, worker_count):
    # 7 pairs in batches of 4: slices of 1 and 2 samples, and a short last batch
    samples = pairs(7)
    expected_net = build(family, 4, seed=1)
    expected = serial_train(expected_net, samples, cfg())
    for count in (1, 2, 3):
        worker_count(count)
        net = build(family, 4, seed=1)
        assert train_mod.train(net, samples, cfg()) == expected, count
        for (name, p), (_, q) in zip(net.named_parameters(), expected_net.named_parameters()):
            assert p.data.tobytes() == q.data.tobytes(), (count, name)
            assert (p.grad is None) == (q.grad is None), (count, name)
            if p.grad is not None:
                assert p.grad.tobytes() == q.grad.tobytes(), (count, name)


def test_non_finite_loss_is_reported_for_the_first_sample_in_batch_order(worker_count):
    worker_count(3)
    samples = pairs(4, size=8)
    c = cfg(epochs=1)

    def poisoned():
        net = build("sscd-l", 4, seed=0, cd_width=4, cd_units=1)
        net.heads["p1"].weight.data[0, 0] = np.nan
        return net

    first = samples[int(np.random.default_rng(c.seed).permutation(4)[0])]
    rng = np.random.default_rng(c.seed)
    rng.permutation(4)
    pair = augment(first, rng)  # train's first draw after the epoch's permutation
    report = train_mod.sample_loss(poisoned(), pair, c)[1]
    with pytest.raises(NumericFailure) as info:
        train_mod.train(poisoned(), samples, c)
    assert str(info.value) == f"non-finite loss at epoch 0, sample {first.stem}"
    snap = info.value.snapshot
    assert (snap["epoch"], snap["stem"], snap["lr"]) == (0, first.stem, c.lr)
    assert repr(snap["report"]) == repr(report)
    assert len(train_mod.train(build("sscd-l", 4, seed=0), pairs(2), cfg(epochs=1))) == 1


def test_worker_exception_reaches_the_caller(worker_count):
    worker_count(2)
    good = pairs(3)
    bad = make_pair("bad", [0, 9], 32, 32, 4, 0.2)
    bad.image2 = bad.image2[:, :16, :16]  # rasters of two sizes
    net = build("sscd-l", 4, seed=0)
    with pytest.raises(DimensionError) as expected:
        train_mod.sample_loss(net, bad, cfg())
    with pytest.raises(DimensionError) as info:
        train_mod.train(net, good + [bad], cfg(augment=False))
    assert str(info.value) == str(expected.value)
    assert len(train_mod.train(net, good, cfg(epochs=1))) == 1


def test_workers_apply_the_callers_floating_point_error_settings():
    net = build("sscd-l", 4, seed=0, cd_width=4, cd_units=1)
    net.heads["p1"].weight.data[...] = 1e308  # logits overflow in the head's matmul
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            train_mod.train(net, pairs(2, size=8), cfg(epochs=1))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericFailure):
            train_mod.train(net, pairs(2, size=8), cfg(epochs=1))


def test_a_dead_worker_is_replaced_by_the_next_call():
    train_mod.train(build("dscd-e", 4, seed=0), pairs(2, size=8), cfg(epochs=1))
    assert workers._idle
    for w in workers._idle:
        w.proc.kill()
        w.proc.wait()
    assert len(train_mod.train(build("dscd-e", 4, seed=0), pairs(2, size=8), cfg(epochs=1))) == 1


def test_worker_ignores_sigint_and_exits_on_end_of_input():
    w = workers._Worker()
    try:
        w.send("reduce", [])  # no session yet: answered with an exception
        assert isinstance(w.recv()[1], AttributeError)
        w.proc.send_signal(signal.SIGINT)
        w.send("reduce", [])
        assert isinstance(w.recv()[1], AttributeError)
        w.proc.stdin.close()
        assert w.proc.wait(timeout=30) == 0
    finally:
        w.close(kill=True)


_CHILD_PRELUDE = """
import importlib, numpy as np
from scdkit.data import make_pair
from scdkit.networks import build
train_mod = importlib.import_module("scdkit.train")
samples = [make_pair(f"{i}", [0, i], 8, 8, 4, 0.2) for i in range(2)]
cfg = train_mod.TrainConfig(batch_size=2, epochs=1, lr=0.005)
net = build("sscd-l", 4, seed=0, cd_width=4, cd_units=1)
"""


def run_child(body):
    script = _CHILD_PRELUDE + textwrap.dedent(body)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": SRC})


def test_child_exits_cleanly_and_workers_stay_quiet_under_ignore():
    quiet = run_child("""
        train_mod.train(net, samples, cfg)
        net.heads["p1"].weight.data[...] = 1e308
        with np.errstate(all="ignore"):
            try:
                train_mod.train(net, samples, cfg)
            except train_mod.NumericFailure:
                print("numeric failure")
    """)
    assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, "numeric failure\n", "")
    # the same run under numpy's default settings: the workers' warnings do show
    loud = run_child("""
        net.heads["p1"].weight.data[...] = 1e308
        try:
            train_mod.train(net, samples, cfg)
        except train_mod.NumericFailure:
            pass
    """)
    assert loud.returncode == 0 and "overflow encountered" in loud.stderr


def _exited(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_do_not_outlive_a_killed_parent():
    child = run_child("""
        import os, signal
        from scdkit import workers
        train_mod.train(net, samples, cfg)
        print(" ".join(str(w.proc.pid) for w in workers._idle), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    """)
    assert child.returncode == -signal.SIGKILL
    pids = [int(p) for p in child.stdout.split()]
    assert pids
    deadline = time.monotonic() + 30
    while not all(_exited(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_exited(pid) for pid in pids)


_REPRO_CHILD = """
import hashlib, importlib, sys
from scdkit.data import make_pair
from scdkit.networks import FAMILIES, build
train_mod = importlib.import_module("scdkit.train")
samples = [make_pair(f"{i:02d}", [5, i], 64, 64, 4, 0.2) for i in range(8)]
for family in FAMILIES:
    net = build(family, 4, seed=3)
    train_mod.train(net, samples, train_mod.TrainConfig(batch_size=8, epochs=2, lr=0.005, seed=3))
    path = f"{sys.argv[1]}/{family}.ckpt"
    train_mod.save_trained(net, path)
    with open(path, "rb") as f:
        print(family, hashlib.sha256(f.read()).hexdigest())
"""


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 64 px: the first size where a 2-thread OpenBLAS sums some of these GEMMs
    # in another order than a 1-thread one
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _REPRO_CHILD, str(out)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    assert len(runs[0].splitlines()) == len(FAMILIES)
    assert runs[0] == runs[1]
