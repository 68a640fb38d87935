"""Gradient-suite plumbing: the redraw loop that picks well-conditioned cases."""

import pytest

from scdkit.checks import _draw_clear
from scdkit.errors import NumericFailure


def test_draw_clear_gives_up_with_numeric_failure():
    calls = []

    def never_ok(attempt):
        calls.append(attempt)
        return {"ok": False, "graph": None}

    with pytest.raises(NumericFailure) as info:
        _draw_clear(never_ok, attempts=5)
    assert calls == [0, 1, 2, 3, 4]
    assert info.value.snapshot == {"attempts": 5}
