"""The exit-code contract over drawn flags of every subcommand.

Each draw runs ``cli.main`` in process, under pytest's warnings-as-errors
filter, so a numpy warning is an escaping exception.  The contract: no
exception escapes, a refusal (exit 1 or 2) prints exactly one stderr line,
and every tail and budget a success prints is positive.  Flags are drawn as
argparse accepts them (finite floats, integers), so the parser's own usage
errors are out of scope here; ``test_cli`` covers them.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitcount import cli
from orbitcount.lattice import enumerate_pruned

SPECTRUM = "label,lambda,weight\nconst,0.0,1.0\nlow,-0.64,2.0\ntempered,-3.0,1.0\n"
FAR = "label,lambda,weight\nfar,-1e160,1.0\n"  # z_xi^4 past the float range

#: report fields that bound an error, and must be positive when printed
POSITIVE = {"tail_bound", "geometric_tail", "spectral_tail", "budget"}

# finite floats of every magnitude, edges included
num = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.7e308, -1.7e308]),
)


def _mostly(good, wild=num):
    """Values a run accepts four draws in five, any other the fifth."""
    return st.one_of(good, good, good, good, wild)


def _flag(name, values):
    """``[name, value]`` or nothing, the flag left at its default."""
    return st.one_of(st.just([]), values.map(lambda v: [name, repr(v)]))


def _xs(values):
    return st.lists(values, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))


def _argv(*parts):
    """A flat argv from fixed tokens and strategies of one token or a list."""
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts)).map(
        lambda drawn: [t for p in drawn for t in (p if isinstance(p, list) else [p])]
    )


census = _mostly(st.just("{census}"), st.sampled_from(["{short}", "{missing}"]))
spectrum = _mostly(st.just("{spectrum}"), st.sampled_from(["{far}", "{missing}"]))
ell = _flag("--ell", _mostly(st.integers(1, 4), st.sampled_from([-1, 0, 170, 400])))
theta = _mostly(st.floats(0.05, 5.0))
smoothing = (ell, _flag("--theta", theta))
# theta = 1, the default, collides with the datum at z = 1: always drawn
spectral = (ell, "--theta", theta.map(repr))
x_census = _mostly(st.floats(0.05, 3.0))  # census4 reaches radius 2 log 4 = 2.77

ARGV = st.one_of(
    # the work of a whole census is 96 (cutoff 1) to 31,120 (cutoff 6)
    _argv("enumerate", "--cutoff", st.floats(0.5, 6.0).map(repr), "--out", "{out}",
          _flag("--budget", st.integers(-1, 40_000))),
    _argv("poincare", "--census", census, "--z", _mostly(st.floats(5.0, 50.0)).map(repr),
          _flag("--z-im", num)),
    _argv("smoothed-count", "--census", census, "--x", x_census.map(repr), *smoothing),
    _argv("spectral-side", "--spectrum", spectrum, "--x", _xs(_mostly(st.floats(0.05, 20.0))),
          *spectral),
    _argv("compare", "--census", census, "--spectrum", spectrum, "--x", _xs(x_census),
          *spectral),
    _argv("oracle-torus", "--n", _mostly(st.integers(1, 3), st.integers(-1, 5)).map(str),
          "--nu", _mostly(st.integers(1, 2), st.integers(-1, 3)).map(str),
          "--lam", _mostly(st.floats(-20.0, -0.01)).map(repr),
          st.one_of(st.just([]), _xs(num).map(lambda p: ["--point", p]))),
    _argv("perron-check", "--u", _mostly(st.floats(-5.0, 50.0)).map(repr),
          _flag("--height", _mostly(st.floats(1.0, 2000.0))), *smoothing),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    enumerate_pruned(4.0).to_csv(d / "census4.csv")
    lines = (d / "census4.csv").read_text().splitlines(keepends=True)
    (d / "short.csv").write_text("".join(lines[:4] + lines[5:]))  # shell F = 2 holds 7 rows
    (d / "spectrum.csv").write_text(SPECTRUM)
    (d / "far.csv").write_text(FAR)
    return {
        "census": d / "census4.csv", "short": d / "short.csv", "missing": d / "missing.csv",
        "spectrum": d / "spectrum.csv", "far": d / "far.csv", "out": d / "out.csv",
    }


def _positive_fields(doc):
    """(key, value) of every :data:`POSITIVE` field in a report."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in POSITIVE:
                yield key, value
            yield from _positive_fields(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _positive_fields(value)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(argv=ARGV)
# 4 kappa^3 underflows to 0: a divide-by-zero warning used to precede the refusal
@example(argv=["oracle-torus", "--n", "1", "--nu", "2", "--lam", "-1e-300"])
@example(argv=["oracle-torus", "--n", "1", "--nu", "2", "--lam", "-5e-324"])
# kappa r rounds to 5e-324, whose half has no log: K_1 raised a bare ValueError
@example(argv=["oracle-torus", "--n", "2", "--nu", "2", "--lam", "-5e-324",
               "--point", "3e-162,0"])
# theta u overflows in the smoothing kernel, whose value 1 is still right
@example(argv=["perron-check", "--u", "1.7e308", "--height", "1e5", "--ell", "1",
               "--theta", "1e300"])
# height / width past the float range: the panel count was a bare OverflowError
@example(argv=["perron-check", "--u", "2", "--height", "1.7e308"])
# a budget past int64 sized the entry box: numpy's 298 GiB array error escaped
@example(argv=["enumerate", "--cutoff", "1e5", "--out", "{out}", "--budget", str(10**26)])
def test_exit_code_contract(files, argv):
    argv = [a.format(**files) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code:
        assert code in (1, 2), code
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
        for key, value in _positive_fields(json.loads(out.getvalue())):
            assert value > 0, (key, value)
