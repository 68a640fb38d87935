"""The BENCH-file summary of benchmarks/trajectory.py, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"
_SPEC = importlib.util.spec_from_file_location("trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)

SPEC = {"items_per_s": {"unit": "1/s", "better": "higher"},
        "op_ms_p50": {"unit": "ms", "better": "lower"}}


def runs(base, change, failed=0):
    """One run per side and seed; `base`/`change` are (items_per_s, op_ms_p50) lists."""
    out = []
    for seed, (b, c) in enumerate(zip(base, change)):
        for side, (rate, ms) in (("base", b), ("change", c)):
            out.append({"workload": "score-512", "seed": seed, "side": side,
                        "correct": True, "attempted": 16, "failed": failed if side == "change" else 0,
                        "metrics": {"items_per_s": rate, "op_ms_p50": ms}})
    return out


def test_summary_quartiles_wins_and_flags():
    base = [(100, 10), (110, 9), (90, 11), (105, 10), (95, 10)]
    change = [(200, 12), (190, 12), (210, 12), (205, 13), (80, 12)]
    summary = trajectory.summarise(runs(base, change), SPEC)["score-512"]
    rate, ms = summary["items_per_s"], summary["op_ms_p50"]
    assert rate["base"] == {"median": 100, "q1": 95, "q3": 105, "iqr": 10}
    assert rate["change"]["median"] == 200 and rate["ratio"] == 2.0
    assert rate["wins"] == 4 and rate["pairs"] == 5 and not rate["worse"]
    # 12 ms against 10 ms is 20 % worse where lower is better
    assert ms["wins"] == 0 and ms["worse"]
    flagged = trajectory.flags(runs(base, change, failed=1), {"score-512": summary})
    assert flagged[0] == "score-512 op_ms_p50: change median 1.200x the base's"
    assert len(flagged) == 1 + len(base)  # and every change run that failed an operation


def test_ten_percent_worse_is_not_flagged():
    base = [(100, 10)] * 5
    change = [(90, 11)] * 5
    summary = trajectory.summarise(runs(base, change), SPEC)["score-512"]
    assert not summary["items_per_s"]["worse"] and not summary["op_ms_p50"]["worse"]


def test_fewer_than_five_seeds_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        trajectory.parse_args([str(tmp_path), str(tmp_path), "--out", "x", "--seeds", "1", "2"])
