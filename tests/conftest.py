"""Shared test settings: one deterministic hypothesis profile for the suite,
the `worker_count` fixture that pins the worker pool's size, and the
`planted_matmul_error` fixture that gives the gradient suite a wrong
gradient to catch.

Examples are derandomized so every run checks the same inputs, no deadline
is set so a slow shared host cannot fail a test, and no example database is
kept.  Hypothesis still caches the constants it harvests from the source
under its storage directory, so that directory is moved to a temporary one
in `pytest_configure`.  That runs before collection, where a module-level
`@given` already harvests, so the suite writes no `.hypothesis/` into the
checkout.
"""

import os
import shutil
import tempfile

import pytest

try:
    from hypothesis import settings
except ImportError:  # a dev extra: only the property tests need it, and they skip
    settings = None

if settings is not None:
    settings.register_profile("scdkit", derandomize=True, deadline=None, database=None)
    settings.load_profile("scdkit")

_storage = None


def pytest_configure(config):
    global _storage
    _storage = tempfile.mkdtemp(prefix="scdkit-hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage


def pytest_unconfigure(config):
    if _storage is not None:
        shutil.rmtree(_storage, ignore_errors=True)


@pytest.fixture
def worker_count(monkeypatch):
    """`worker_count(n)` makes every later pool call in the test use at most
    n workers (and at most one per task)."""
    from scdkit import workers

    def set_count(count):
        monkeypatch.setattr(workers, "worker_count", lambda tasks: min(count, tasks))
    return set_count


@pytest.fixture
def planted_matmul_error(monkeypatch):
    """Plants a 1e-7 relative error in the left-operand gradient of every
    matmul the blocks make (attention and the classifier heads), and runs
    the gradient suite's tasks in this process, where the plant is seen."""
    from scdkit import blocks, tensor, workers

    def skewed(a, b):
        out = tensor.matmul(a, b)
        exact = out.backward_fn
        if exact is not None:
            def backward_fn(g):
                ga, gb = exact(g)
                return (None if ga is None else ga * (1.0 + 1e-7)), gb
            out.backward_fn = backward_fn
        return out

    monkeypatch.setattr(blocks, "matmul", skewed)
    monkeypatch.setattr(workers, "starmap", lambda fn, tasks: [fn(*task) for task in tasks])
