"""The summary of tools/paired_bench.py on fixed numbers; no process is started."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from paired_bench import report_lines, spread, summarize  # noqa: E402


def test_spread_is_the_inclusive_quartiles():
    assert spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert spread([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_summarize_counts_wins_in_the_metric_direction():
    pairs = [(1.0, 0.9), (2.0, 2.1), (3.0, 2.5), (4.0, 4.0), (5.0, 4.5)]
    s = summarize(pairs, "lower")
    assert s["pairs"] == 5
    assert s["parent"]["median"] == 3.0 and s["change"]["median"] == 2.5
    assert s["change_won"] == 3  # a tie is no win
    # parent IQR 2.0 exceeds the 0.5 between the medians
    assert s["unresolved"]
    assert summarize(pairs, "higher")["change_won"] == 1


def test_a_shift_past_the_parent_iqr_is_resolved():
    pairs = [(1.0, 2.0), (1.1, 2.1), (1.2, 2.2), (1.3, 2.3)]
    s = summarize(pairs)
    assert s["parent"]["iqr"] == pytest.approx(0.15)
    assert not s["unresolved"]
    assert s["change_won"] == 0


def test_report_lines_name_every_metric_and_the_failures():
    result = {
        "metrics": {"work_s": summarize([(1.0, 0.5), (1.0, 0.5)])},
        "failed": {"parent": 0, "change": 2},
        "attempted": {"parent": 10, "change": 10},
        "runs_without_result": {"parent": 0, "change": 1},
    }
    lines = report_lines("query", result)
    assert lines[0] == ("query work_s (lower is better): parent 1 [1, 1] IQR 0; "
                        "change 0.5 [0.5, 0.5] IQR 0; change won 2/2")
    assert lines[1] == ("query failed operations: parent 0 of 10, change 2 of 10; "
                        "runs without a result: parent 0, change 1")
