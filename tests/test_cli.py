"""End-to-end CLI runs through a subprocess, plus in-process exit-code
mapping that is awkward to trigger from outside."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitcount import cli, lattice
from orbitcount.errors import ConvergenceError, InputError
from orbitcount.lattice import CSV_HEADER, DEFAULT_WORK_BUDGET, Census
from orbitcount.perron import SmoothingParams, perron_contour_oracle


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    # the child imports this checkout's package, installed or not
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcount.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


@pytest.fixture(scope="module")
def census_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    path = d / "census8.csv"
    proc = run_cli("enumerate", "--cutoff", "8", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture(scope="module")
def spectrum_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("spectra")
    path = d / "spectrum.csv"
    path.write_text(
        "label,lambda,weight\nconst,0.0,1.0\nlow,-0.64,2.0\ntempered,-3.0,1.0\n"
    )
    return path


def test_enumerate_report_and_determinism(tmp_path):
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    r1 = run_cli("enumerate", "--cutoff", "2", "--out", str(out1))
    r2 = run_cli("enumerate", "--cutoff", "2", "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    doc1 = json.loads(r1.stdout)
    doc2 = json.loads(r2.stdout)
    assert doc1["census"]["size"] == 136
    assert doc1["census"]["compact_count"] == 8
    # reruns differ only in the timestamp and the requested output path
    for doc in (doc1, doc2):
        doc["meta"].pop("generated_at")
        doc["census"].pop("path")
    assert doc1 == doc2
    assert out1.read_bytes() == out2.read_bytes()


# the run options each subcommand reads, and the flag of each
READS = {
    "enumerate": ("work_budget",),
    "poincare": (),
    "smoothed-count": ("ell", "theta"),
    "spectral-side": ("ell", "theta"),
    "compare": ("ell", "theta"),
    "perron-check": ("ell", "theta"),
    "oracle-torus": (),
}
FLAGS = {"ell": "--ell", "theta": "--theta", "work_budget": "--budget"}
# flags of the keys the model space fixes (nu, rho_norm, c_g), of a key that
# did nothing (workers), of the deleted key=value config file, of the
# oracles' fixed truncations and Perron abscissa, and of the one contour
# tolerance: no subcommand accepts them
DELETED_FLAGS = (
    "--rho-norm", "--nu", "--workers", "--c-g", "--config",
    "--spectral-trunc", "--geom-trunc", "--sigma", "--quad-tol",
)
# enough of each subcommand's own inputs for argparse to reach the extras
REQUIRED = {
    "enumerate": ["--cutoff", "1", "--out", "{out}"],
    "poincare": ["--census", "{census}", "--z", "6"],
    "smoothed-count": ["--census", "{census}", "--x", "1"],
    "spectral-side": ["--spectrum", "{spectrum}", "--x", "1"],
    "compare": ["--census", "{census}", "--spectrum", "{spectrum}", "--x", "1"],
    "perron-check": ["--u", "1"],
    "oracle-torus": ["--n", "1", "--lam", "-1"],
}
# oracle-torus's own --nu is a torus parameter, not a deleted key's flag
UNREAD = [
    (sub, flag)
    for sub, keys in READS.items()
    for flag in [f for k, f in FLAGS.items() if k not in keys] + list(DELETED_FLAGS)
    if not (sub == "oracle-torus" and flag == "--nu")
]


@pytest.mark.parametrize(
    "sub, flag", UNREAD, ids=[f"{sub}:{flag[2:]}" for sub, flag in UNREAD]
)
def test_unread_options_are_refused(capsys, sub, flag):
    # a flag whose value the subcommand would never read is a usage error
    argv = [a.format(out="c.csv", census="c.csv", spectrum="s.csv") for a in REQUIRED[sub]]
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, *argv, flag, "2"])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert f"unrecognized arguments: {flag} 2" in out.err
    assert out.out == ""


# the library defaults of the run options, and a value other than each
DEFAULTS = {
    "ell": SmoothingParams.ell, "theta": SmoothingParams.theta,
    "work_budget": DEFAULT_WORK_BUDGET,
}
OTHER = {"ell": 3, "theta": 0.8, "work_budget": 10**8}


def _subparsers():
    return next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_every_config_key_is_read():
    # a key that no subcommand reads would be a knob that does nothing
    read = {k for p in _subparsers().values() for k in p.get_default("keys")}
    assert read == set(FLAGS) == set(DEFAULTS) == set(OTHER)


def test_option_defaults_are_the_library_defaults():
    assert DEFAULTS == {"ell": 2, "theta": 1.0, "work_budget": 74_000_000}
    for sub, p in _subparsers().items():
        for key in READS[sub]:
            assert p.get_default(key) == DEFAULTS[key], (sub, key)
            assert type(p.get_default(key)) is type(DEFAULTS[key]), (sub, key)
    height = _subparsers()["perron-check"].get_default("height")
    assert height == perron_contour_oracle.__kwdefaults__["height"] == 1000.0


def _report(capsys, argv):
    assert cli.main(argv) == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("sub", [s for s in READS if s != "oracle-torus"])
def test_meta_config_holds_the_keys_read(tmp_path, capsys, census_csv, spectrum_csv, sub):
    argv = [sub] + [
        a.format(out=tmp_path / "c.csv", census=census_csv, spectrum=spectrum_csv)
        for a in REQUIRED[sub]
    ]
    if sub in ("spectral-side", "compare"):
        argv += ["--theta", "0.8"]  # theta = 1 collides with the datum at z = 1
    read = READS[sub]
    default = _report(capsys, argv)
    from_flags = _report(capsys, argv + [
        a for k in read for a in (FLAGS[k], repr(OTHER[k]))
    ])
    # recorded: exactly the keys read, at the values used
    theta = {"theta": 0.8} if sub in ("spectral-side", "compare") else {}
    assert default["meta"]["config"] == {**{k: DEFAULTS[k] for k in read}, **theta}
    assert from_flags["meta"]["config"] == {k: OTHER[k] for k in read}
    # the options change the report, except that the work budget leaves the
    # census bit-identical
    body = {k: v for k, v in default.items() if k != "meta"}
    if sub in ("enumerate", "poincare"):
        assert {k: v for k, v in from_flags.items() if k != "meta"} == body
    else:
        assert {k: v for k, v in from_flags.items() if k != "meta"} != body


def test_oracle_torus_nu_is_a_torus_parameter(capsys):
    base = ["oracle-torus", "--n", "1", "--lam", "-1"]
    assert _report(capsys, base)["torus"]["nu"] == 1
    doc = _report(capsys, base + ["--nu", "2"])
    assert doc["torus"]["nu"] == 2
    assert doc["meta"]["config"] == {}


def _readme_table(text, first_column):
    """The body rows of the README table whose header starts with
    ``| first_column``, each split into its cells."""
    rows = text.split(f"| {first_column} ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    return [[cell.strip() for cell in row.split("|")[1:-1]] for row in rows]


def test_readme_option_table_matches_parser():
    # the README's subcommand table is the documented option surface, and
    # its key table documents the run options at the parser's defaults
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = {re.fullmatch(r"`(\w+)`", key)[1]: float(default)
            for key, default, _meaning in _readme_table(text, "key")}
    assert keys == DEFAULTS
    table = {}
    for row in _readme_table(text, "subcommand"):
        sub, keys, flags = (re.findall(r"`([^`]+)`", cell) for cell in row)
        table[sub[0]] = (tuple(keys), set(flags))
    subparsers = _subparsers()
    assert set(table) == set(subparsers) == set(READS)
    for sub, p in subparsers.items():
        accepted = {s for a in p._actions for s in a.option_strings}
        assert table[sub][1] == accepted - {"-h", "--help", "--report"}, sub
        assert table[sub][0] == p.get_default("keys") == READS[sub], sub


def test_missing_required_option_exits_1():
    r = run_cli("poincare", "--z", "6")
    assert r.returncode == 1
    assert "the following arguments are required: --census" in r.stderr
    assert r.stdout == ""


def test_help_exits_0():
    r = run_cli("poincare", "--help")
    assert r.returncode == 0
    assert "--census" in r.stdout


def test_ten_column_census_is_refused(tmp_path, census2):
    # the former row format: the 8 integers, then radius and gauge as floats
    old = tmp_path / "old.csv"
    shells = census2.shell_table
    radii = np.repeat(shells.radius, shells.count)
    lines = [CSV_HEADER + ",radius,gauge"] + [
        ",".join(str(int(v)) for v in ints) + f",{rad:.17g},{np.exp(0.5 * rad):.17g}"
        for ints, rad in zip(census2.rows, radii)
    ]
    old.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="orbitcount enumerate"):
        Census.from_csv(old)
    r = run_cli("poincare", "--census", str(old), "--z", "6")
    assert r.returncode == 1
    assert "rebuild the census with `orbitcount enumerate`" in r.stderr


def test_blank_line_in_census_prints_one_error_line(tmp_path, census4):
    # loadtxt warns when max_rows meets a blank line; the warning must not
    # reach stderr in a run without warning filters
    path = tmp_path / "blank.csv"
    census4.to_csv(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:5], "", *lines[5:]]) + "\n")
    r = run_cli("poincare", "--census", str(path), "--z", "6")
    assert r.returncode == 1
    assert r.stderr.splitlines() == [f"error: {path}:6: blank line inside the census"]


def test_census_entry_beyond_int64_safe_range_exits_1(tmp_path, capsys, census4):
    # [[1, 2^32], [0, 1]] is unimodular, but |2^32|^2 wraps int64 to 0: the
    # row used to load with F = 2 as a ninth compact element
    path = tmp_path / "wide.csv"
    census4.to_csv(path)
    with open(path, "a") as fh:
        fh.write(f"1,0,{2**32},0,0,0,1,0\n")
    with pytest.raises(InputError, match=f"row {census4.size}: an entry exceeds 2\\^30"):
        Census.from_csv(path)
    assert cli.main(["poincare", "--census", str(path), "--z", "6"]) == 1
    assert "exceeds 2^30" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["poincare", "smoothed-count", "compare"])
def test_census_missing_a_shell_exits_1(tmp_path, capsys, census4, spectrum_csv, sub):
    # without its 128 F = 5 rows the cutoff-4 census used to load, and
    # poincare printed 1.36537 with tail 2.05e-4 where the series is 1.36658
    path = tmp_path / "c4-no-f5.csv"
    Census.from_rows(census4.rows[census4.fnorm != 5], cutoff=None).to_csv(path)
    argv = {
        "poincare": ["--z", "6"],
        "smoothed-count": ["--x", "1"],
        "compare": ["--spectrum", str(spectrum_csv), "--x", "1"],
    }[sub]
    assert cli.main([sub, "--census", str(path), *argv]) == 1
    out = capsys.readouterr()
    assert "shell F = 5 holds 0 rows, a complete census holds 128" in out.err
    assert out.out == ""


def test_poincare_report(census_csv):
    r = run_cli("poincare", "--census", str(census_csv), "--z", "6")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["series"]["value"]["re"] == pytest.approx(1.366581211023292, rel=1e-12)
    assert doc["series"]["tail_bound"] < 1e-6
    assert doc["series"]["census_size"] == 42248


def test_poincare_tiny_kernel_tail_is_finite(tmp_path, census4):
    # with |z| = 1e300 every tail term is below 1e-300; the slab loop used
    # to run until the growth count overflowed (OverflowError traceback)
    path = tmp_path / "c4.csv"
    census4.to_csv(path)
    r = run_cli("poincare", "--census", str(path), "--z", "6", "--z-im", "1e300")
    assert r.returncode == 0, r.stderr
    tail = json.loads(r.stdout)["series"]["tail_bound"]
    assert 0.0 < tail < 1e-300


@pytest.mark.parametrize(
    "argv, code",
    [(("--z", "1e307"), (0, 0)), (("--z", "1.7e308"), (0, 0)),
     (("--z", "6", "--z-im", "1e308"), (0, 1))],
    ids=["re-1e307", "re-1.7e308", "im-1e308"],
)
def test_poincare_extreme_z(tmp_path, census1, census4, argv, code):
    # exit 0 with a finite value and tail, or 1 with one error line naming
    # z; no warning, traceback, or "tail bound diverged" exit 2
    for census, want in zip((census1, census4), code):
        path = tmp_path / f"c{census.cutoff:g}.csv"
        census.to_csv(path)
        r = run_cli("poincare", "--census", str(path), *argv)
        assert r.returncode == want, r.stderr
        if want == 0:
            assert r.stderr == ""
            series = json.loads(r.stdout)["series"]
            assert all(math.isfinite(v) for v in series["value"].values())
            assert math.isfinite(series["tail_bound"])
        else:
            lines = r.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: z = (6+1e+308j)"), r.stderr
            assert r.stdout == ""


def test_poincare_below_abscissa_exits_1(census_csv):
    r = run_cli("poincare", "--census", str(census_csv), "--z", "5")
    assert r.returncode == 1
    assert "abscissa" in r.stderr


def test_smoothed_count(census_csv):
    r = run_cli("smoothed-count", "--census", str(census_csv), "--x", "1.0")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["smoothed_count"]["value"] == pytest.approx(
        1.6357703105122159, rel=1e-13
    )
    assert doc["smoothed_count"]["census_size_used"] == 72


def test_smoothed_count_beyond_coverage_exits_1(census_csv):
    r = run_cli("smoothed-count", "--census", str(census_csv), "--x", "9.0")
    assert r.returncode == 1


def test_spectral_side_needs_clear_poles(spectrum_csv):
    # lambda = 0 puts a datum at z = 1; theta = 1 collides, theta = 0.8 works
    bad = run_cli("spectral-side", "--spectrum", str(spectrum_csv), "--x", "1.0")
    assert bad.returncode == 1
    good = run_cli(
        "spectral-side", "--spectrum", str(spectrum_csv), "--x", "1.0,2.0",
        "--theta", "0.8",
    )
    assert good.returncode == 0, good.stderr
    doc = json.loads(good.stdout)
    rows = doc["spectral"]["evaluations"]
    assert len(rows) == 2


def test_compare_emits_rows_without_verdict(census_csv, spectrum_csv):
    r = run_cli(
        "compare", "--census", str(census_csv), "--spectrum", str(spectrum_csv),
        "--x", "0.5,1.0", "--theta", "0.8",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    rows = doc["compare"]["rows"]
    assert [row["x"] for row in rows] == [0.5, 1.0]
    for row in rows:
        assert row["geometric_signed"] == row["geometric"]  # sign is +1 at nu=2
    assert "no pass/fail" in doc["compare"]["note"]
    # the spectral column is the spectral-side total, bit for bit
    side = run_cli(
        "spectral-side", "--spectrum", str(spectrum_csv), "--x", "0.5,1.0",
        "--theta", "0.8",
    )
    assert side.returncode == 0, side.stderr
    totals = {e["x"]: e["total"] for e in json.loads(side.stdout)["spectral"]["evaluations"]}
    for row in rows:
        assert row["spectral"] == totals[row["x"]]
        assert row["difference"] == row["geometric_signed"] - row["spectral"]["re"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral-side", "--spectrum", "{spectrum}", "--x", "nan", "--theta", "0.8"],
         "bad X list 'nan': every entry must be finite"),
        (["spectral-side", "--spectrum", "{spectrum}", "--x", "1,inf", "--theta", "0.8"],
         "bad X list '1,inf': every entry must be finite"),
        (["smoothed-count", "--census", "{census}", "--x", "nan"],
         "argument --x: not a finite number: 'nan'"),
        (["compare", "--census", "{census}", "--spectrum", "{spectrum}", "--x", "nan",
          "--theta", "0.8"], "bad X list 'nan': every entry must be finite"),
        (["poincare", "--census", "{census}", "--z", "inf"],
         "argument --z: not a finite number: 'inf'"),
        (["poincare", "--census", "{census}", "--z", "6", "--z-im", "nan"],
         "argument --z-im: not a finite number: 'nan'"),
        (["spectral-side", "--spectrum", "{nan_spectrum}", "--x", "1", "--theta", "0.8"],
         "nan.csv:3: non-finite field 'nan'"),
        (["oracle-torus", "--n", "2", "--nu", "2", "--lam", "-1", "--point", "0.1,nan"],
         "bad point list '0.1,nan': every entry must be finite"),
        (["oracle-torus", "--n", "1", "--lam", "-1", "--point", "x"],
         "bad point list 'x': could not convert string to float: 'x'"),
        (["poincare", "--census", "{census}", "--z", "abc"],
         "argument --z: invalid float value: 'abc'"),
        (["spectral-side", "--spectrum", "{spectrum}", "--x", ",", "--theta", "0.8"],
         "empty X list"),
        (["oracle-torus", "--n", "1", "--lam", "-1", "--point", ","], "empty point list"),
        # a blank --point is an empty list too, not the origin
        (["oracle-torus", "--n", "1", "--lam", "-1", "--point", ""], "empty point list"),
        # a blank entry was dropped: 1,,2 read as [1, 2], and 0.1,,0.2 as a 2-D point
        (["spectral-side", "--spectrum", "{spectrum}", "--x", "1,,2", "--theta", "0.8"],
         "bad X list '1,,2': entry 2 is blank"),
        (["oracle-torus", "--n", "2", "--nu", "2", "--lam", "-1", "--point", "0.1,,0.2"],
         "bad point list '0.1,,0.2': entry 2 is blank"),
        (["spectral-side", "--spectrum", "{spectrum}", "--x", "1, ", "--theta", "0.8"],
         "bad X list '1, ': entry 2 is blank"),
    ],
    ids=["spectral-x-nan", "spectral-x-inf", "smoothed-x-nan", "compare-x-nan",
         "poincare-z-inf", "poincare-z-im-nan", "spectrum-row-nan", "torus-point-nan",
         "torus-point-text", "poincare-z-text", "spectral-x-empty", "torus-point-empty",
         "torus-point-blank", "spectral-x-blank-entry", "torus-point-blank-entry",
         "spectral-x-trailing-comma"],
)
def test_non_finite_numbers_exit_1(tmp_path, capsys, census_csv, spectrum_csv, argv, message):
    nan_spectrum = tmp_path / "nan.csv"
    nan_spectrum.write_text("label,lambda,weight\nconst,0.0,1.0\nlow,nan,2.0\n")
    argv = [
        a.format(census=census_csv, spectrum=spectrum_csv, nan_spectrum=nan_spectrum)
        for a in argv
    ]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the value
        code = exc.code
    assert code == 1
    out = capsys.readouterr()
    assert message in out.err
    assert out.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["perron-check", "--u", "1", "--height", "0"], "Perron contour needs height > 0"),
        (["perron-check", "--u", "1", "--height", "-5"], "Perron contour needs height > 0"),
        # far past the census's edge; e^{X/2} overflows a float above X = 1419
        (["smoothed-count", "--census", "{census}", "--x", "2000"],
         "X = 2000.0 needs a deeper census"),
        (["compare", "--census", "{census}", "--spectrum", "{spectrum}", "--x", "2000",
          "--theta", "0.8"], "X = 2000.0 needs a deeper census"),
        (["smoothed-count", "--census", "{census}", "--x", "1", "--ell", "0"],
         "smoothing order ell must be an integer >= 1, got 0"),
        (["spectral-side", "--spectrum", "{spectrum}", "--x", "1", "--theta", "-1"],
         "smoothing step theta must be > 0, got -1.0"),
        (["enumerate", "--cutoff", "1", "--out", "{out}", "--budget", "0"],
         "over the work budget of 0; raise --budget to proceed"),
        # refused before the entry box, about 2e18 points, is built; the
        # 37-digit estimate is printed by its leading digits
        (["enumerate", "--cutoff", "1e9", "--out", "{out}"],
         "needs at least 4.0e+36 candidate evaluations, over the work budget of 74000000;"
         " raise --budget to proceed"),
        # past the entry bound, refused before the cutoff is squared
        (["enumerate", "--cutoff", "1e150", "--out", "{out}"],
         "cutoff 1e+150 is above 1073741825: its census would hold an entry that exceeds 2^30"),
        (["enumerate", "--cutoff", "1e200", "--out", "{out}"],
         "cutoff 1e+200 is above 1073741825: its census would hold an entry that exceeds 2^30"),
        # a budget past int64 is refused before any estimate: the entry box
        # was sized by it (a bare ValueError at 1e20, a 298 GiB array at 1e5)
        (["enumerate", "--cutoff", "1e20", "--out", "{out}", "--budget", str(10**100)],
         "cutoff 1e+20 is above 1073741825"),
        (["enumerate", "--cutoff", "1e5", "--out", "{out}", "--budget", str(10**26)],
         "work budget must be in [0, 2^63); set --budget within it"),
        (["enumerate", "--cutoff", "1", "--out", "{out}", "--budget", "-1"],
         "work budget must be in [0, 2^63); set --budget within it"),
        # ell! theta^ell underflows to 0 or overflows: W(u) is undefined
        (["perron-check", "--u", "1", "--theta", "1e-200"],
         "ell! theta^ell to be a finite positive float, got ell = 2, theta = 1e-200"),
        (["smoothed-count", "--census", "{census}", "--x", "1", "--theta", "1e-200"],
         "ell! theta^ell to be a finite positive float, got ell = 2, theta = 1e-200"),
        (["perron-check", "--u", "1", "--theta", "1e300"],
         "ell! theta^ell to be a finite positive float, got ell = 2, theta = 1e+300"),
        (["compare", "--census", "{census}", "--spectrum", "{spectrum}", "--x", "1",
          "--ell", "400"],
         "ell! theta^ell to be a finite positive float, got ell = 400, theta = 1"),
    ],
    ids=["height-0", "height-neg", "smoothed-x-2000",
         "compare-x-2000", "ell-0", "theta-neg", "budget-0", "cutoff-1e9", "cutoff-1e150",
         "cutoff-1e200", "cutoff-1e20-budget-1e100", "cutoff-1e5-budget-1e26", "budget-neg",
         "perron-theta-1e-200", "smoothed-theta-1e-200", "perron-theta-1e300",
         "compare-ell-400"],
)
def test_out_of_range_parameters_exit_1(
    tmp_path, capsys, census_csv, spectrum_csv, argv, message
):
    out_csv = tmp_path / "c.csv"
    argv = [a.format(census=census_csv, spectrum=spectrum_csv, out=out_csv) for a in argv]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert message in out.err
    assert len(out.err) < 200  # one readable line
    assert out.out == ""
    assert not out_csv.exists()


def test_oracle_torus(tmp_path):
    report = tmp_path / "torus.json"
    r = run_cli(
        "oracle-torus", "--n", "1", "--nu", "1", "--lam", "-1",
        "--report", str(report),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""  # report went to the file
    doc = json.loads(report.read_text())
    assert doc["torus"]["within_budget"] is True
    assert doc["torus"]["budget"] <= 1e-10


def test_oracle_torus_near_zero_lambda_closes_its_tail(tmp_path):
    # lambda = -1e-8 needs ~1e8 shells before a term falls below 1e-22 of the
    # value; the geometric remainder closes the tail at the spectral tail's
    # 7.1e-7 (7e-15 of the value) after about 326,000 shells instead
    report = tmp_path / "torus.json"
    r = run_cli("oracle-torus", "--n", "1", "--nu", "1", "--lam=-1e-8", "--report", str(report))
    assert r.returncode == 0, r.stderr
    assert json.loads(report.read_text())["torus"]["within_budget"] is True


@pytest.mark.parametrize(
    "argv, field, want",
    [
        (["oracle-torus", "--n", "1", "--nu", "1", "--lam", "-1e-8"], ("torus", "lambda"), -1e-8),
        (["poincare", "--census", "{census}", "--z", "6", "--z-im", "-1e-3"],
         ("series", "z", "im"), -1e-3),
        (["oracle-torus", "--n", "2", "--nu", "2", "--lam", "-1", "--point", "-0.3,-1E-2"],
         ("torus", "point"), [-0.3, -0.01]),
    ],
    ids=["oracle-torus-lam", "poincare-z-im", "oracle-torus-point"],
)
def test_negative_exponent_form_is_a_value(tmp_path, census4, argv, field, want):
    # argparse's own negative-number pattern has no exponent form: without
    # the parser's wider one these values read as options (exit 1)
    path = tmp_path / "c4.csv"
    census4.to_csv(path)
    r = run_cli(*(a.format(census=path) for a in argv))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    for key in field:
        doc = doc[key]
    assert doc == want


@pytest.mark.parametrize("n,lam", [("3", "-0.05"), ("2", "-0.002"), ("1", "-1e-13")])
def test_oracle_torus_box_past_the_cap_exits_1(n, lam):
    # the least box that meets the spectral tail holds more than 2^21 points
    r = run_cli("oracle-torus", "--n", n, "--nu", "2", "--lam", lam)
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and f"lambda = {lam} is too close to 0" in lines[0]
    assert r.stdout == ""


def test_oracle_torus_divergent_exits_1():
    r = run_cli("oracle-torus", "--n", "2", "--nu", "1", "--lam", "-1")
    assert r.returncode == 1
    assert "convergent" in r.stderr


@pytest.mark.parametrize("n,nu", [("1", "1"), ("1", "2"), ("2", "2"), ("3", "2")])
def test_oracle_torus_extreme_lambda_exits_0_or_1(capsys, n, nu):
    # a nan side used to die in json.dumps, and an overflowing kernel
    # constant in an OverflowError, each with a traceback; every true tail
    # is positive, also where its terms underflow (n = 1 at -1e205)
    for lam in ("-1e10", "-1e205", "-1e300", "-1e308"):
        code = cli.main(["oracle-torus", "--n", n, "--nu", nu, "--lam", lam])
        out = capsys.readouterr()
        assert code in (0, 1), (lam, out.err)
        if code == 0:
            assert "NaN" not in out.out and out.err == ""
            torus = json.loads(out.out)["torus"]
            assert torus["geometric_tail"] > 0.0 and torus["spectral_tail"] > 0.0
            assert abs(torus["discrepancy"]) <= torus["budget"]
        else:
            lines = out.err.splitlines()
            assert len(lines) == 1 and f"lambda = {float(lam):g} is out of range" in lines[0]
            assert out.out == ""


def test_oracle_torus_out_of_range_lambda_prints_no_traceback():
    # at (1, 2) and -1e300 the kernel constant 4 kappa^3 overflows
    r = run_cli("oracle-torus", "--n", "1", "--nu", "2", "--lam", "-1e300")
    assert r.returncode == 1
    assert r.stderr.splitlines() == [
        "error: lambda = -1e+300 is out of range: the kernel constant of "
        "(n, nu) = (1, 2) overflows"
    ]


def test_perron_check():
    r = run_cli("perron-check", "--u", "1.0")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["perron"]["closed_form"] == pytest.approx(
        0.19978820044686402, rel=1e-15
    )
    assert doc["perron"]["abs_difference"] <= 1e-9


def test_perron_check_certifies_large_u(capsys):
    # The integrand, its roundoff and its truncation bound grow like
    # e^{sigma u}.  On Re z = 1 the estimate passed 1e-9 at the default
    # height from about u = 18.5; on Re z = 1/u the factor stays e.
    for u in (20.0, 30.0, 50.0):
        doc = _report(capsys, ["perron-check", "--u", str(u)])["perron"]
        assert doc["sigma"] == 1.0 / u
        assert doc["quadrature_error_estimate"] <= 1e-9
        assert doc["abs_difference"] <= 1e-9


def test_perron_check_overflowing_denominator_prints_one_line():
    # prod (z + m theta) over 170 factors overflows on the line; under the
    # default warning filter numpy's RuntimeWarnings used to precede the
    # refusal of the nan estimate
    r = run_cli("perron-check", "--u", "1", "--ell", "170")
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("convergence error:"), r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("u, height", [("1", "1e8"), ("-800", "1000"), ("300", "1000")])
def test_perron_check_too_many_panels_exits_2(capsys, u, height):
    # refused before any panel is built: 1e8 panels would need about 200 GB
    assert cli.main(["perron-check", "--u", u, "--height", height]) == 2
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("convergence error: contour height")
    assert "over the cap of 131072" in lines[0]
    assert out.out == ""


def test_convergence_failure_maps_to_exit_2(monkeypatch):
    def boom(*_a, **_k):
        raise ConvergenceError("synthetic convergence failure")

    monkeypatch.setattr(cli, "perron_contour_oracle", boom)
    code = cli.main(["perron-check", "--u", "1.0"])
    assert code == 2


def test_out_of_memory_maps_to_exit_1(monkeypatch, capsys):
    def boom(*_a, **_k):
        raise MemoryError

    monkeypatch.setattr(cli, "perron_contour_oracle", boom)
    assert cli.main(["perron-check", "--u", "1.0"]) == 1
    out = capsys.readouterr()
    assert out.err == "error: the run is out of memory\n"
    assert out.out == ""


def test_enumerate_refuses_a_census_its_shell_counts_do_not_certify(tmp_path, capsys, monkeypatch):
    real = lattice.form_counts

    def one_row_off(fmax):
        n = real(fmax)
        n[5] += 1
        return n

    monkeypatch.setattr(lattice, "form_counts", one_row_off)
    want = "shell F = 5 holds 128 rows, a complete census holds 129"
    with pytest.raises(ConvergenceError, match=f"enumeration at cutoff 4.0: {want}"):
        lattice.enumerate_pruned(4.0)
    path = tmp_path / "c4.csv"
    assert cli.main(["enumerate", "--cutoff", "4", "--out", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and want in out.err
    assert not path.exists()


def test_missing_census_file_exits_1(tmp_path):
    r = run_cli("poincare", "--census", str(tmp_path / "nope.csv"), "--z", "6")
    assert r.returncode == 1


@pytest.mark.parametrize("sub, flag", [("poincare", "--census"), ("spectral-side", "--spectrum")])
def test_binary_input_file_exits_1(tmp_path, sub, flag):
    # random bytes are not UTF-8: reading them used to end in a
    # UnicodeDecodeError traceback
    path = tmp_path / "noise.csv"
    path.write_bytes(np.random.default_rng(5).bytes(2048))
    r = run_cli(sub, flag, str(path), *(["--z", "6"] if sub == "poincare" else ["--x", "1"]))
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: not UTF-8 text")
    assert r.stdout == ""


def test_unwritable_report_path_exits_1(tmp_path):
    # the report used to be written outside main's error handling, so a
    # missing directory ended in a FileNotFoundError traceback
    r = run_cli("perron-check", "--u", "1", "--report", str(tmp_path / "no" / "r.json"))
    assert r.returncode == 1
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
