"""Run configuration loading/merging and the report serializers."""

import json

import numpy as np
import pytest

from orbitcount.config import RunConfig, build_config, load_config_file
from orbitcount.errors import InputError
from orbitcount.reports import base_meta, complex_fields, write_json


def test_defaults():
    cfg = RunConfig()
    assert cfg.c_g == 1.0 and cfg.ell == 2 and cfg.theta == 1.0
    assert cfg.work_budget == 200_000_000 and cfg.quad_tol == 1e-9


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "theta = 0.8\n"
        "work_budget=4000\n"
        "\n"
        "ell = 1  # trailing comment\n"
    )
    got = load_config_file(p)
    assert got == {"theta": 0.8, "work_budget": 4000, "ell": 1}


def test_config_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("frobnicate = 3\n")
    with pytest.raises(InputError):
        load_config_file(p)


def test_override_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("theta = 0.8\nell = 1\n")
    cfg = build_config(str(p), {"ell": 2, "theta": None})
    assert cfg.theta == 0.8  # file wins over default
    assert cfg.ell == 2  # explicit override wins over file


def test_validation():
    with pytest.raises(InputError):
        RunConfig(ell=0).validate()
    with pytest.raises(InputError):
        RunConfig(theta=-1.0).validate()
    with pytest.raises(InputError):
        RunConfig(work_budget=0).validate()
    for tol in (0.0, -1.0):
        with pytest.raises(InputError, match="quad_tol must be > 0"):
            RunConfig(quad_tol=tol).validate()


@pytest.mark.parametrize("line", ["c_g = nan", "theta = inf", "quad_tol = -inf"])
def test_config_refuses_non_finite(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(InputError, match="is not a finite number"):
        load_config_file(cfg)


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
