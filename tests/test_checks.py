"""Gradient-suite plumbing: each case drawn once, and the checks run on the
worker pool."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scdkit
from scdkit import checks, workers
from scdkit.tensor import grad_check

SRC = str(Path(scdkit.__file__).resolve().parent.parent)


def serial_suite(seeds):
    """The in-process loop: each row of `_CASES` drawn once and grad-checked
    against its tensors in turn."""
    results = []
    for seed in seeds:
        for case, (name, _, _) in enumerate(checks._CASES):
            f, tensors = checks._build(seed, case)
            for suffix, x in tensors:
                full = f"seed{seed}/{name}" if suffix is None else f"seed{seed}/{name}[{suffix}]"
                results.append((full, grad_check(f, x)))
    return results


def bits(results):
    return [(name, err.hex()) for name, err in results]


def test_suite_equals_serial_loop_for_any_worker_count(worker_count):
    expected = bits(serial_suite(range(3)))
    assert len(expected) == 3 * 33
    for count in (1, 2, 3):
        worker_count(count)
        assert bits(checks.gradient_suite(range(3))) == expected, count


def test_worker_exception_reaches_the_caller():
    # the worker's rng rejects the negative seed of the first task
    with pytest.raises(ValueError) as expected:
        checks._build(-1, 0)
    with pytest.raises(ValueError) as info:
        checks.gradient_suite([-1])
    assert type(info.value) is type(expected.value)
    assert str(info.value) == str(expected.value)
    results = checks.gradient_suite([0])
    assert len(results) == 33 and checks.worst(results) < checks.THRESHOLD


def test_the_caller_draws_and_builds_no_case(monkeypatch):
    def builds(*args, **kwargs):
        raise AssertionError("the calling process built a case")

    monkeypatch.setattr(checks, "_build", builds)
    results = checks.gradient_suite([0])
    assert len(results) == 33 and checks.worst(results) < checks.THRESHOLD


def test_seeds_with_cases_near_relu_kinks_pass():
    # none of the first 200 draws of these seeds' cd_block keeps every relu
    # pre-activation 2e-2 away from zero; the suite checks the first as it is
    results = checks.gradient_suite([21, 40, 42])
    assert len(results) == 3 * 33
    assert checks.worst(results) < checks.THRESHOLD


def test_the_first_hundred_seeds_pass():
    # a central difference failed seeds 17, 30, 35 and 54 on truncation alone
    results = checks.gradient_suite(range(100))
    assert len(results) == 100 * 33
    assert checks.worst(results) < checks.THRESHOLD


def test_a_planted_1e7_gradient_error_fails_the_suite(planted_matmul_error):
    results = dict(checks.gradient_suite([0]))
    assert len(results) == 33
    siam = [err for name, err in results.items() if name.startswith("seed0/siam_sr[")]
    assert len(siam) == 4 and min(siam) >= checks.THRESHOLD
    # the error formula halves a relative error: key's gradient passes one
    # skewed matmul (5e-8), query's two (1e-7); the oracle adds nothing
    assert results["seed0/siam_sr[key]"] == pytest.approx(5e-8, rel=1e-4)
    assert results["seed0/siam_sr[query]"] == pytest.approx(1e-7, rel=1e-4)
    # checks that run no matmul are untouched by the plant
    assert results["seed0/semantic_loss"] < checks.THRESHOLD
    assert results["seed0/residual_unit[input]"] < checks.THRESHOLD


def test_each_head_and_loss_check_is_a_task_of_its_own(monkeypatch):
    dealt = []
    starmap = workers.starmap

    def recorded(fn, tasks):
        dealt.append(tasks)
        return starmap(fn, tasks)

    monkeypatch.setattr(workers, "starmap", recorded)
    results = checks.gradient_suite([0])
    assert dealt[0] == [(0, case) for case in range(len(checks._CASES))]
    assert len(checks._CASES) == 15
    heads_and_losses = [name for name, _ in results[-10:]]
    assert heads_and_losses == [f"seed0/{name}" for name, _, _ in checks._CASES[5:]]


def test_pool_calls_run_under_the_callers_floating_point_error_settings():
    with np.errstate(all="raise", under="ignore"):
        assert workers.starmap(np.geterr, [()] * 3) == [np.geterr()] * 3
    assert workers.starmap(np.geterr, [()] * 3) == [np.geterr()] * 3


def test_a_worker_that_dies_during_a_call_is_replaced():
    with pytest.raises(RuntimeError, match=r"exited \(code 3\)"):
        workers.starmap(os._exit, [(3,)])
    assert len(checks.gradient_suite([0])) == 33


def test_an_interrupted_suite_kills_its_workers(monkeypatch):
    workers._close_idle()
    checks.gradient_suite([0])
    procs = [w.proc for w in workers._idle]
    assert procs

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(workers._Worker, "recv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        checks.gradient_suite([0])
    assert all(p.returncode is not None for p in procs)
    assert not workers._idle
    monkeypatch.undo()
    assert len(checks.gradient_suite([0])) == 33


_HASH_CHILD = """
import hashlib
from scdkit.checks import gradient_suite
print(hashlib.sha256(repr(gradient_suite(range(3))).encode()).hexdigest())
"""


def test_suite_results_do_not_depend_on_blas_threads():
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _HASH_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    assert len(runs[0].strip()) == 64
    assert runs[0] == runs[1]
