"""Property tests for the metric pipeline.

A random list of predicted/truth label maps is cut into consecutive splits
at random points.  Merging the per-split confusion matrices must give the
counts of one matrix over all maps, and the report of the merge must equal
the per-pixel oracle.  Maps made of long runs of one joint code, as in
unchanged land, must count as a plain bincount does.
"""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from scdkit.metrics import (_FIELDS, ConfusionMatrix, compute_report,  # noqa: E402
                            oracle_metrics)


@st.composite
def split_maps(draw):
    """(n_classes, [(predicted, truth)], sorted cut points into the list)."""
    n = draw(st.integers(1, 5))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        cells = st.lists(st.integers(0, n), min_size=h * w, max_size=h * w)
        pairs.append((np.array(draw(cells)).reshape(h, w), np.array(draw(cells)).reshape(h, w)))
    cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=4)))
    return n, pairs, cuts


def test_merged_splits_equal_one_matrix_and_the_oracle():
    # @given inside the test, as in the parser properties: a module-level one
    # makes hypothesis write its constants cache during collection, before
    # conftest moves its storage directory out of the checkout
    @given(split_maps())
    def check(case):
        n, pairs, cuts = case
        whole = ConfusionMatrix(n)
        for p, t in pairs:
            whole.add(p, t)
        parts = []
        for lo, hi in zip([0] + cuts, cuts + [len(pairs)]):
            part = ConfusionMatrix(n)
            for p, t in pairs[lo:hi]:
                part.add(p, t)
            parts.append(part)
        merged = functools.reduce(ConfusionMatrix.merge, parts)
        np.testing.assert_array_equal(merged.counts, whole.counts)

        report = compute_report(merged)
        oracle = oracle_metrics([p for p, _ in pairs], [t for _, t in pairs], n)
        assert report.pixels == oracle.pixels
        for name in _FIELDS:
            got, want = getattr(report, name), getattr(oracle, name)
            assert (got is None) == (want is None), name
            if got is not None:
                assert abs(got - want) <= 1e-12, f"{name}: {got!r} != {want!r}"

    check()


@st.composite
def run_maps(draw):
    """(n_classes, predicted, truth): runs of one (p, t) pair, 1 to 400 pixels long."""
    n = draw(st.integers(1, 20))
    runs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n), st.integers(1, 400)),
                         max_size=8))
    p, t, lengths = np.array(runs, dtype=np.int64).reshape(-1, 3).T
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    return n, np.repeat(p, lengths).astype(dtype), np.repeat(t, lengths).astype(dtype)


def test_long_runs_count_like_a_bincount():
    @given(run_maps())
    def check(case):
        n, p, t = case
        side = n + 1
        expect = np.bincount(p.astype(np.int64) * side + t, minlength=side * side)
        counts = ConfusionMatrix(n).add(p, t).counts
        np.testing.assert_array_equal(counts, expect.reshape(side, side))

    check()
