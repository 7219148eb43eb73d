"""The summary of tools/paired_bench.py on fixed numbers, where no process is
started, and its export of a git revision."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import paired_bench  # noqa: E402
from paired_bench import checkout, report_lines, spread, summarize  # noqa: E402


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


def _in_git_work_tree() -> bool:
    try:
        proc = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git
        return False
    return proc.returncode == 0 and proc.stdout.strip() == "true"


@pytest.mark.skipif(not _in_git_work_tree(), reason="not in a git work tree")
def test_a_revision_is_exported_and_deleted_afterwards(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    listed = subprocess.run(["git", "ls-tree", "-r", "--name-only", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.split()
    with checkout("HEAD") as tree:
        assert tree != ROOT and tree.is_dir()
        exported = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
        assert exported == sorted(listed)
        assert (tree / "perfbench" / "run.py").is_file()
    assert not tree.exists()
    with checkout(str(tmp_path)) as same:  # a directory is used as it is
        assert same == tmp_path.resolve()
    assert tmp_path.is_dir()
    with pytest.raises(SystemExit, match="neither a directory nor a git revision"):
        with checkout("no-such-revision-or-directory"):
            pass


def test_seconds_default_to_the_change_benchmark_run_length(monkeypatch, tmp_path, capsys):
    # a fake run per workload records the run length each call is given
    seen = []

    def run_workload(checkouts, workload, pairs, seed, seconds, better):
        seen.append(seconds)
        return {"metrics": {}, "failed": {"parent": 0, "change": 0},
                "attempted": {"parent": 0, "change": 0},
                "runs_without_result": {"parent": 0, "change": 0}}

    monkeypatch.setattr(paired_bench, "run_workload", run_workload)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}))
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 25}))
    argv = [str(parent), str(change), "--workload", "build", "--pairs", "1"]
    assert paired_bench.main(argv) == 0
    assert paired_bench.main(argv + ["--seconds", "3"]) == 0
    (change / "BENCHMARK.json").write_text(json.dumps({"workloads": []}))
    assert paired_bench.main(argv) == 0
    (change / "BENCHMARK.json").unlink()
    assert paired_bench.main(argv) == 0
    assert seen == [25, 3.0, 5.0, 5.0]
    capsys.readouterr()
