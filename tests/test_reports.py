"""The report serializers, and a golden-report check of every subcommand.

The golden reports in ``tests/data/reports/`` are the reports of the
``RUNS`` commands below, run in one directory holding the three-datum
spectrum ``SPECTRUM`` as ``spectrum.csv`` and the census of the ``enumerate``
run.  ``python3 tools/freeze_reports.py NAME...`` writes them.

A rerun must reproduce every field except ``meta`` and ``census.path``:
ints, strings and booleans exactly, floats to 1e-14 relative, and an exact
zero exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from orbitcount import cli
from orbitcount.reports import base_meta, complex_fields, write_json

GOLDEN = Path(__file__).resolve().parent / "data" / "reports"
SPECTRUM = "label,lambda,weight\nconst,0.0,1.0\nlow,-0.64,2.0\ntempered,-3.0,1.0\n"
RUNS = {
    "enumerate": ["enumerate", "--cutoff", "4", "--out", "census4.csv"],
    "poincare": ["poincare", "--census", "census4.csv", "--z", "6"],
    "smoothed-count": ["smoothed-count", "--census", "census4.csv", "--x", "1"],
    "spectral-side": ["spectral-side", "--spectrum", "spectrum.csv", "--x", "1,1.5",
                      "--theta", "0.8"],
    "compare": ["compare", "--census", "census4.csv", "--spectrum", "spectrum.csv",
                "--x", "1,1.5", "--theta", "0.8"],
    "perron-check": ["perron-check", "--u", "1"],
    "oracle-torus-n1": ["oracle-torus", "--n", "1", "--nu", "1", "--lam", "-1"],
    "oracle-torus-n2": ["oracle-torus", "--n", "2", "--nu", "2", "--lam", "-1",
                        "--point", "0.1,0.2"],
}


def test_complex_fields():
    assert complex_fields(complex(1.5, -2.0)) == {"re": 1.5, "im": -2.0}


def test_write_json_stdout_and_file(tmp_path, capsys):
    doc = {"meta": base_meta("cmd", {"theta": 1.0}), "x": 1.0}
    write_json(doc, None)
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["x"] == 1.0
    assert parsed["meta"]["command"] == "cmd"

    p = tmp_path / "r.json"
    write_json(doc, str(p))
    assert json.loads(p.read_text())["x"] == 1.0


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json({"x": float("nan")}, str(tmp_path / "bad.json"))


def test_base_meta_shape():
    meta = base_meta("enumerate", {"z": 1})
    assert meta["tool"] == "orbitcount"
    assert meta["generated_at"].endswith("+00:00")  # explicit UTC timestamps
    assert meta["config"] == {"z": 1}
    assert np.__name__  # numpy stays an explicit dependency of the reports


def _body(doc):
    doc = {k: v for k, v in doc.items() if k != "meta"}
    if "census" in doc:
        doc["census"] = {k: v for k, v in doc["census"].items() if k != "path"}
    return doc


def _assert_same(got, want, where):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and want != 0.0:
        assert abs(got - want) <= 1e-14 * abs(want), (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    (d / "spectrum.csv").write_text(SPECTRUM)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        assert cli.main(RUNS["enumerate"] + ["--report", "-"]) == 0
    return d


@pytest.mark.parametrize("name", list(RUNS))
def test_reports_match_golden(rundir, monkeypatch, capsys, name):
    monkeypatch.chdir(rundir)
    capsys.readouterr()
    assert cli.main(RUNS[name]) == 0, capsys.readouterr().err
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got["meta"]["command"] == want["meta"]["command"]
    _assert_same(_body(got), _body(want), name)
