"""Residue calculus for the spectral expansion: closed forms against the
circle oracle and the assembled global contour."""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from orbitcount.errors import ConvergenceError, InputError
from orbitcount.perron import SmoothingParams, kernel_denominator
from orbitcount.quadrature import RESULT_TOL, cauchy_circle_residue
from orbitcount.spectral import (
    ORACLE_SIGMA_MARGIN,
    SpectralDatum,
    Spectrum,
    _cmul,
    _crecip,
    _oracle_height,
    _oracle_truncation_bound,
    _residues,
    branch_z,
    global_contour_oracle,
    residue_pair,
    spectral_side_eval,
    z_from_lambda,
)

SM = SmoothingParams(ell=2, theta=1.0)
NU = 2
GRID = [0.6 + 0j, 1.25 + 0j, 2.6 + 0j, 0.45 + 1.1j, 1.4 + 0.8j]
WEIGHTS = [1.3, 0.7, 0.25, 0.9, 0.4]


def _phi(z_xi, X, sm=SM):
    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(z * X) / (
            (z - z_xi) ** NU * (z + z_xi) ** NU * kernel_denominator(sm, z)
        )

    return f


def _per(z_xi, X, sm=SM):
    """The pole-train term Per of one datum, as spectral_side_eval computes it."""
    return complex(_residues(np.array([complex(z_xi)]), X, sm)[2][0])


def _never(*_a, **_k):
    raise AssertionError("integrand called")


def _spectrum(zs=GRID, ws=WEIGHTS):
    return Spectrum(
        tuple(SpectralDatum(f"d{i}", z, w) for i, (z, w) in enumerate(zip(zs, ws)))
    )


def test_branch_and_lambda_roundtrip():
    for lam in (-0.64, -3.0, 0.5):
        z = z_from_lambda(lam)
        assert z.real >= 0.0
        assert z * z - 1 == pytest.approx(lam, rel=1e-14)
    assert branch_z(complex(-2.0, 1.0)) == complex(2.0, -1.0)


def test_collision_detection():
    with pytest.raises(InputError, match=r"collides with kernel pole at -1\*theta"):
        residue_pair(1.0 + 0j, 1.0, SM, NU)  # hits the m=1 train pole
    with pytest.raises(InputError, match=r"collides with kernel pole at -2\*theta"):
        residue_pair(2.0 + 1e-10j, 1.0, SM, NU)
    # off the branch: z_xi itself on the train pole -m theta
    with pytest.raises(InputError, match=r"collides with kernel pole at -1\*theta"):
        residue_pair(-1.0 + 0j, 1.0, SM, NU)
    with pytest.raises(InputError, match=r"collides with kernel pole at -2\*theta"):
        residue_pair(-2.0 + 1e-10j, 1.0, SM, NU)
    with pytest.raises(InputError, match="the two residue points"):
        residue_pair(1e-9 + 0j, 1.0, SM, NU)  # the two families collide at 0
    # theta = 0.8 moves the train off the integers and clears z = 1
    residue_pair(1.0 + 0j, 1.0, SmoothingParams(ell=2, theta=0.8), NU)


def test_residues_match_circle_oracle():
    X = 1.7
    for z_xi in GRID:
        A, B = residue_pair(z_xi, X, SM, NU)
        f = _phi(z_xi, X)
        assert abs(A - cauchy_circle_residue(f, z_xi)) <= 1e-12
        assert abs(B - cauchy_circle_residue(f, -z_xi)) <= 1e-12


def test_per_term_closed_form_ell2():
    # hand expansion for ell = 2: the train at -theta, -2 theta
    X = 1.1
    th = SM.theta
    for z_xi in GRID:
        z2 = z_xi * z_xi
        want = (
            np.exp(-th * X) / (z2 - th**2) ** NU
            - np.exp(-2 * th * X) / (z2 - (2 * th) ** 2) ** NU
        ) / th
        assert abs(_per(z_xi, X) - want) <= 1e-14 * abs(want)


def test_per_term_equals_train_residues():
    X = 0.9
    for z_xi in (0.6 + 0j, 1.4 + 0.8j):
        f = _phi(z_xi, X)
        train = sum(cauchy_circle_residue(f, -m * SM.theta + 0j) for m in range(1, SM.ell + 1))
        assert abs(_per(z_xi, X) - train) <= 1e-12


def test_per_term_decay_envelope():
    # asymptotic ratio e^{-theta} with a transient controlled by the pole
    # prefactors; C = 5 covers every |z_xi| in the grid with margin
    for z_xi in GRID:
        for X in np.arange(5.0, 41.0, 1.0):
            a = abs(_per(z_xi, X))
            b = abs(_per(z_xi, X + 1.0))
            env = np.exp(-SM.theta) * (1.0 + 5.0 * np.exp(-SM.theta * X)) + 1e-9
            assert b <= a * env


def test_side_eval_matches_global_oracle():
    sp = _spectrum()
    for X in (0.5, 1.0, 1.5, 2.0, 3.0):
        side = spectral_side_eval(sp, X, SM, NU)
        oracle = global_contour_oracle(sp, X, SM, NU)
        assert abs(side.total - oracle.value) <= 1e-6
        # the benchmark runs this grid: keep it far under RESULT_TOL
        assert oracle.error_estimate <= 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_global_oracle_meets_its_truncation_bound(ell):
    # criterion 3's grid and weights: the line stops at the least height
    # whose truncation bound is RESULT_TOL/2.  The fixed height 400 read
    # 8.1e-9 at ell = 1, X = 3; the derived height there is about 802
    sm = SmoothingParams(ell=ell, theta=1.0)
    sp = _spectrum()
    sigma, radius, weight = 2.6 + ORACLE_SIGMA_MARGIN, 2.6, math.fsum(WEIGHTS)
    for X in (0.5, 1.0, 1.5, 2.0, 3.0):
        height = _oracle_height(X, ell, sigma, radius, weight)
        bound = _oracle_truncation_bound(height, X, ell, sigma, radius, weight)
        assert bound <= RESULT_TOL / 2
        below = _oracle_truncation_bound(height * (1.0 - 1e-9), X, ell, sigma, radius, weight)
        assert below > RESULT_TOL / 2, (X, height)
        side = spectral_side_eval(sp, X, sm, NU).total
        oracle = global_contour_oracle(sp, X, sm, NU)
        err = abs(side - oracle.value)
        assert err <= RESULT_TOL, (X, err)
        assert err <= bound + oracle.error_estimate, (X, err, bound)


def test_global_oracle_of_no_weight_is_zero():
    # W = 0 bounds the truncation by 0 at any height, and the log form of
    # the bound must not take log(0)
    for sp in (Spectrum(()), _spectrum(ws=[0.0] * len(GRID))):
        assert global_contour_oracle(sp, 1.5, SM, NU).value == 0


def test_global_oracle_refuses_an_x_no_float_height_certifies(monkeypatch):
    # the truncation bound carries e^{sigma X}: at X = 2000 (sigma = 4.1)
    # it passes RESULT_TOL/2 at every float height, refused before the line
    monkeypatch.setattr("orbitcount.perron.vertical_line_integral", _never)
    with pytest.raises(ConvergenceError, match="at every float height"):
        global_contour_oracle(_spectrum(), 2000.0, SM, NU)


def test_global_oracle_on_conjugate_pairs():
    # z_xi and conj z_xi with equal weights: the assembled kernel is
    # conjugate-symmetric, but z_xi^2 is not real, so the whole line is
    # integrated; the result is the real residue sum
    sp = Spectrum(
        tuple(SpectralDatum(f"d{k}", z, 0.9) for k, z in enumerate((0.45 + 1.1j, 0.45 - 1.1j)))
    )
    for X in (0.5, 1.5, 3.0):
        side = spectral_side_eval(sp, X, SM, NU)
        oracle = global_contour_oracle(sp, X, SM, NU)
        assert abs(side.total - oracle.value) <= 1e-6
        assert abs(oracle.value.imag) < 1e-8


@pytest.mark.parametrize("nu", [NU])
def test_global_oracle_integrand_is_the_factored_kernel(monkeypatch, nu):
    # the oracle adds w / (z^2 - z_xi^2)^2 per datum; on its line that must
    # be the factored w / ((z - z_xi)^2 (z + z_xi)^2) to roundoff, for
    # real, purely imaginary and conjugate-pair z_xi
    zs = [0.6, 2.6, 0.7j, 3.0j, 0.45 + 1.1j, 0.45 - 1.1j, 1.4 + 0.8j, 1.4 - 0.8j]
    ws = [1.3, 0.25, 0.5, 2.0, 0.9, 0.9, 0.4, 0.4]
    X = 1.5
    seen = {}

    def record(f, sigma, height, **kw):
        seen.update(f=f, sigma=sigma)

    monkeypatch.setattr("orbitcount.perron.vertical_line_integral", record)
    global_contour_oracle(_spectrum(zs, ws), X, SM, nu)
    z0 = complex(seen["sigma"], -400.0)
    dp = 1j * np.linspace(0.0, 800.0, 161)
    dz = 1j * np.array([-0.4, -0.1, 0.0, 0.05, 0.3, 0.45])
    got = seen["f"](dp, dz)(z0, dp.size)
    z = (z0 + dp)[:, None] + dz
    want = np.exp(z * X) * sum(
        w / ((z - z_xi) ** nu * (z + z_xi) ** nu) for z_xi, w in zip(zs, ws)
    ) / kernel_denominator(SM, z)
    assert got.shape == z.shape
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_annihilation_of_residue_profile():
    # A(X) e^{-z_xi X} is linear in X (A is e^{z_xi X} times a degree-1
    # polynomial at nu = 2), so its second difference vanishes
    for z_xi in (0.6 + 0j, 1.4 + 0.8j):
        g = [
            residue_pair(z_xi, X, SM, NU)[0] * np.exp(-z_xi * X)
            for X in (1.0, 1.5, 2.0)
        ]
        second = abs(g[0] - 2 * g[1] + g[2]) / abs(g[1])
        assert second <= 1e-9


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_nu2_closed_form(ell):
    # the residue of e^{zX} / ((z - a)^2 (z + a)^2 q(z)) at a is g(a) times
    # the logarithmic derivative of g(z) = e^{zX} / ((z + a)^2 q(z)) there:
    # e^{aX} / (4 a^2 q(a)) (X - 1/a - sum_m 1/(a + m theta)); B is it at -a.
    # The reference is g'(a) at 40 digits, on data clear of the poles
    theta = 0.3 if ell == 5 else SM.theta
    sm = SmoothingParams(ell=ell, theta=theta)
    for z_xi in (0.45, 1.25, 2.6, 0.45 + 1.1j, 1.4 + 0.8j, 0.7j, 3j):
        for X in (1.0, 4.0):
            A, B = residue_pair(z_xi, X, sm, NU)
            with mpmath.workdps(40):
                want = [complex(_mp_residue(at, X, theta, ell, NU)) for at in (z_xi, -z_xi)]
            for got, w in zip((A, B), want):
                assert abs(got - w) <= 1e-14 * abs(w), (z_xi, X, got, w)


def test_constant_datum_keeps_its_train():
    # the constant datum (lambda = 0, z_xi = 1) takes A + B + Per like every
    # other datum, so the total is the whole contour closed to the left
    const = SpectralDatum("c", z_from_lambda(0.0), 1.0)
    assert const.z == 1.0
    sp = Spectrum((const, SpectralDatum("r", 0.35 + 0j, 2.0)))
    # no jump in lambda: a datum just off lambda = 0 reads the same
    pair = [Spectrum((SpectralDatum("c", z_from_lambda(lam), 1.0),)) for lam in (0.0, -1e-9)]
    for ell, X in itertools.product((1, 2, 3), (0.5, 1.2, 3.0)):
        sm = SmoothingParams(ell=ell, theta=0.8)
        val = spectral_side_eval(sp, X, sm, NU)
        parts = [d.weight * (sum(residue_pair(d.z, X, sm, NU)) + _per(d.z, X, sm)) for d in sp]
        assert abs(val.total - sum(parts)) <= 1e-14 * sum(abs(t) for t in parts)
        oracle = global_contour_oracle(sp, X, sm, NU)
        assert abs(val.total - oracle.value) <= 1e-6, (ell, X, val.total, oracle.value)
        at, off = (spectral_side_eval(s, X, sm, NU).total for s in pair)
        assert abs(at - off) <= 1e-7 * abs(at), (ell, X, at, off)


def test_side_eval_rejects_nonpositive_x():
    with pytest.raises(InputError):
        spectral_side_eval(_spectrum(), 0.0, SM, NU)


@pytest.mark.parametrize("call, X", [
    *((residue_pair, X) for X in (0.0, -1.0, -1000.0, math.nan, math.inf)),
    (spectral_side_eval, math.nan),
    (spectral_side_eval, math.inf),
    (global_contour_oracle, 0.0),
    (global_contour_oracle, math.nan),
])
def test_bad_x_is_refused_before_any_value(call, X):
    # residue_pair took any X, and spectral_side_eval refused nan and inf
    # only as an overflow "at X = nan"; no numpy warning may come first
    sm = SmoothingParams(ell=2, theta=0.8)
    first = 0.6 if call is residue_pair else _spectrum()
    with pytest.raises(InputError, match=re.escape(f"count parameter X must be finite and > 0, got {X}")):
        call(first, X, sm, NU)


def test_side_eval_refuses_overflow():
    # e^{z_xi X} passes the float range for z_xi = 0.6 at X = 1200
    with pytest.raises(InputError, match=r"datum 'd0' \(z_xi = \(0.6\+0j\)\) overflows at X = 1200"):
        spectral_side_eval(_spectrum(), 1200.0, SM, NU)


@pytest.mark.parametrize("call, z_xi, X", [
    (residue_pair, 0.6 + 0j, 1200.0),  # e^{z_xi X} passes the float range
])
def test_single_datum_calls_refuse_overflow(call, z_xi, X):
    # under filterwarnings = error, a numpy warning before the refusal fails
    with pytest.raises(InputError, match=re.escape(f"z_xi = {z_xi} overflows at X = {X}: its")):
        call(z_xi, X, SmoothingParams(ell=2, theta=0.8), NU)


def test_far_data_underflow_instead_of_refusing():
    # z_xi^2 and z_xi^4 pass the float range, but the values do not: they
    # are products of reciprocals, which underflow (no numpy warning either)
    sm = SmoothingParams(ell=2, theta=0.8)
    assert residue_pair(1e160j, 1.0, sm, NU) == (0j, 0j)  # A and B are about 1e-641
    far = Spectrum((SpectralDatum("far", z_from_lambda(-1e160), 1.0),))
    assert far.data[0].z == 1e80j
    got = spectral_side_eval(far, 1.0, sm, NU).total
    assert abs(got - 1.3086156e-321) <= 2.0**-1074  # one subnormal step


def test_spectrum_csv_both_headers(tmp_path):
    p1 = tmp_path / "lam.csv"
    p1.write_text("label,lambda,weight\nc,0.0,1.0\nphi1,-2.25,2.0\n")
    s1 = Spectrum.from_csv(p1)
    assert s1.data[0].z == pytest.approx(1.0)
    assert s1.data[1].z == pytest.approx(np.sqrt(1.0 - 2.25 + 0j))

    p2 = tmp_path / "z.csv"
    p2.write_text("label,z_re,z_im,weight\na,0.5,0.0,1.5\nb,0.0,1.2,0.5\n")
    s2 = Spectrum.from_csv(p2)
    assert s2.data[1].z == complex(0.0, 1.2)

    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(InputError):
        Spectrum.from_csv(bad)


@pytest.mark.parametrize(
    "header, bad, message",
    [
        ("label,lambda,weight", "b,-1.0", "expected 3 fields"),
        ("label,lambda,weight", "b,-1.0,1.0,2.0", "expected 3 fields"),
        ("label,lambda,weight", "b,-1.0,heavy", "could not convert string to float: 'heavy'"),
        ("label,lambda,weight", "b,x,heavy", "could not convert string to float: 'x'"),
        ("label,z_re,z_im,weight", "b,0.5,1.0", "expected 4 fields"),
        ("label,z_re,z_im,weight", "b,0.5,1.0,1.0,1.0", "expected 4 fields"),
        ("label,z_re,z_im,weight", "b,0.5,i,1.0", "could not convert string to float: 'i'"),
        ("label,z_re,z_im,weight", "b,0.5,1.0,heavy", "could not convert string to float: 'heavy'"),
        ("label,lambda,weight", "low,nan,2.0", "non-finite field 'nan'"),
        ("label,lambda,weight", "low,-3.0,inf", "non-finite field 'inf'"),
        ("label,z_re,z_im,weight", "a,inf,0.0,1.0", "non-finite field 'inf'"),
    ],
)
def test_spectrum_csv_rejects_malformed_rows(tmp_path, header, bad, message):
    good = "a,-2.0,1.0" if header.count(",") == 2 else "a,0.5,0.0,1.0"
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good}\n{bad}\n{good}\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: {message}")):
        Spectrum.from_csv(path)


def test_spectrum_csv_splits_lines_only_at_line_ends(tmp_path):
    # str.splitlines would also split at \x0b, \x0c, \x1c-\x1e, \x85, U+2028
    # and U+2029, and refuse line 2 as ":2: expected 3 fields"; only spaces
    # and tabs are stripped from a field
    path = tmp_path / "labels.csv"
    path.write_bytes("label,lambda,weight\r\na\x0cb,-1.0,1.0\rc d ,-2.0,\t2.0\n\x0ce,-3.0,1.0\n"
                     .encode())
    got = Spectrum.from_csv(path)
    assert [(d.label, d.weight) for d in got] == [("a\x0cb", 1.0), ("c d", 2.0), ("\x0ce", 1.0)]


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "empty spectrum file"),
        (b" \n\n", "empty spectrum file"),
        (b"label,lambda,weight\nb\xe9,-1.0,1.0\n", "not UTF-8 text at byte 21"),
    ],
    ids=["empty", "blank-lines", "latin-1-byte"],
)
def test_spectrum_csv_rejects_unreadable_files(tmp_path, data, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        Spectrum.from_csv(path)


# A mixed spectrum for the array evaluator: the constant datum (z = 1), real,
# purely imaginary and complex parameters.  theta = 0.7 keeps every +/- z_xi
# at least 0.3 from the train -0.7, -1.4, -2.1, far outside the 1e-2 circles.
MIXED = Spectrum(
    (
        SpectralDatum("const", 1.0 + 0j, 1.0),
        SpectralDatum("real", 0.35 + 0j, 2.0),
        SpectralDatum("imag", 3.2j, 0.7),
        SpectralDatum("cplx1", 0.45 + 1.1j, 0.9),
        SpectralDatum("cplx2", 1.4 + 0.8j, 0.4),
        SpectralDatum("real2", 2.6 + 0j, 0.25),
    )
)


@pytest.mark.parametrize("nu", [NU])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_array_evaluator_matches_circle_oracle(nu, ell):
    sm = SmoothingParams(ell=ell, theta=0.7)

    def res(f, at):
        # radius 0.1: every other pole is >= 0.3 away; the larger circle
        # keeps the double poles' rounding near 1e-14 of the addends
        return cauchy_circle_residue(f, complex(at), radius=0.1)

    for X in (0.8, 2.3):
        val = spectral_side_eval(MIXED, X, sm, nu)
        assert [lab for lab, _ in val.per_datum] == [d.label for d in MIXED]
        for d, (_, got) in zip(MIXED, val.per_datum):
            f = _phi(d.z, X, sm)
            parts = [res(f, d.z), res(f, -d.z),
                     sum(res(f, -m * sm.theta) for m in range(1, sm.ell + 1))]
            want = d.weight * sum(parts)
            scale = d.weight * sum(abs(t) for t in parts)
            assert abs(got - want) <= 1e-12 * scale, (d.label, got, want)


def test_per_datum_values_do_not_depend_on_neighbours():
    rng = np.random.default_rng(7)
    zs = np.concatenate(
        [rng.uniform(0.05, 0.6, 40), 1j * rng.uniform(0.5, 20.0, 460), [1.0]]
    )
    sp = Spectrum(
        tuple(SpectralDatum(f"d{i}", complex(z), float(w))
              for i, (z, w) in enumerate(zip(zs, rng.uniform(0.5, 2.0, zs.size))))
    )
    back = Spectrum(tuple(reversed(sp.data)))
    for sm in (SmoothingParams(ell=2, theta=0.8), SmoothingParams(ell=3, theta=0.75)):
        for X in (1.0, 3.5):
            fwd = spectral_side_eval(sp, X, sm, NU)
            rev = spectral_side_eval(back, X, sm, NU)
            assert rev.per_datum == tuple(reversed(fwd.per_datum))
            one = spectral_side_eval(Spectrum(sp.data[123:124]), X, sm, NU)
            assert one.per_datum == fwd.per_datum[123:124]


def test_total_is_the_fsum_of_cancelling_data():
    # weights 1e16, 1, -1e16 on one z_xi: the outer values cancel exactly,
    # and a left-to-right sum would round the middle one away to a multiple of 2
    z = z_from_lambda(-3.0)
    sp = Spectrum(tuple(
        SpectralDatum(f"d{i}", z, w) for i, w in enumerate((1e16, 1.0, -1e16))
    ))
    val = spectral_side_eval(sp, 1.0, SmoothingParams(ell=2, theta=0.8), NU)
    values = [v for _label, v in val.per_datum]
    assert val.total == complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    assert val.total == values[1]


def test_collision_inside_a_large_spectrum_names_the_datum():
    sm = SmoothingParams(ell=2, theta=0.8)
    data = [SpectralDatum(f"t{k}", complex(0.0, y), 1.0)
            for k, y in enumerate(np.linspace(1.5, 20.0, 2000))]
    data[1000] = SpectralDatum("bad", 1.6 + 0j, 1.0)  # z_xi = 2 theta
    data[1500] = SpectralDatum("zero", 1e-9 + 0j, 1.0)  # a later collision
    with pytest.raises(InputError) as info:
        spectral_side_eval(Spectrum(tuple(data)), 1.0, sm, NU)
    assert str(info.value) == (
        "datum 'bad' (z_xi = (1.6+0j)) collides with kernel pole at -2*theta (theta = 0.8); shift theta"
    )


def test_header_only_spectrum(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,lambda,weight\n")
    val = spectral_side_eval(Spectrum.from_csv(path), 1.0, SM, NU)
    assert val.total == 0
    assert val.per_datum == ()


BAD_NU = [0, 1, 1.5, 2.5, 3]


@pytest.mark.parametrize("nu", BAD_NU)
@pytest.mark.parametrize("spectrum", [_spectrum(), Spectrum(())], ids=["five", "empty"])
def test_side_eval_rejects_bad_nu(spectrum, nu):
    with pytest.raises(InputError, match=re.escape(f"nu must be 2, the model's, got {nu}")):
        spectral_side_eval(spectrum, 1.0, SM, nu)


def _mp_residue(at, X, theta, ell, nu):
    """Residue of e^{zX} / ((z - at)^nu (z + at)^nu q(z)) at z = at, by
    numerical differentiation at the caller's working precision."""
    at, X, theta = mpmath.mpc(at), mpmath.mpf(X), mpmath.mpf(theta)

    def g(z):
        q = mpmath.fprod(z + m * theta for m in range(1, ell + 1))
        return mpmath.exp(z * X) / ((z + at) ** nu * q)

    return mpmath.diff(g, at, nu - 1) / mpmath.factorial(nu - 1)


def _mp_datum_value(z_xi, X, theta, ell, nu):
    """w = 1 contribution A + B + Per at 40 digits, by numerical
    differentiation and the train's simple-pole residues."""
    with mpmath.workdps(40):
        xi, X, theta = mpmath.mpc(z_xi), mpmath.mpf(X), mpmath.mpf(theta)
        per = mpmath.fsum(
            mpmath.exp(-m * theta * X)
            / ((m * m * theta * theta - xi * xi) ** nu
               * mpmath.fprod((k - m) * theta for k in range(1, ell + 1) if k != m))
            for m in range(1, ell + 1)
        )
        return complex(_mp_residue(xi, X, theta, ell, nu) + _mp_residue(-xi, X, theta, ell, nu) + per)


@pytest.mark.parametrize(
    "z_xi, X",
    [(0.3185437927620648 + 0j, 1.0), (16.27594765718209j, 1.0), (7.349297750656915j, 4.0)]
    + [(0.8 + d, X) for d in (1e-4, 1e-3, 1e-2, 1e-4j, 1e-3j, 1e-2j) for X in (4.0, 8.0)],
)
def test_cancelling_data_match_mpmath(z_xi, X):
    # A + B + Per cancels by up to four digits on the first three data; the
    # others sit within 1e-2 of the train pole -theta, where B and Per
    # diverge and cancel further
    sm = SmoothingParams(ell=2, theta=0.8)
    got = spectral_side_eval(Spectrum((SpectralDatum("d", z_xi, 1.0),)), X, sm, 2)
    want = _mp_datum_value(z_xi, X, 0.8, 2, 2)
    rel = 1e-9 if abs(z_xi - 0.8) < 0.1 else 5e-12
    assert abs(got.total - want) <= rel * abs(want)


def _prod(a, b):
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.int64)


def test_complex_helpers_round_like_scalar_formulas():
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-3, 3, (2, 400))
    a = (rng.normal(size=400) + 1j * rng.normal(size=400)) * scale[0]
    b = (rng.normal(size=400) + 1j * rng.normal(size=400)) * scale[1]
    b[:4] = [2.5, -1.5j, 3.0 + 1e-300j, 1e-300 - 4.0j]  # real, imaginary, lopsided
    assert _cmul(a, b).tolist() == [_prod(x, y) for x, y in zip(a.tolist(), b.tolist())]
    # bit for bit against CPython's (1 + 0j) / b, signs of zeros included
    assert np.array_equal(_bits(_crecip(b)), _bits([(1 + 0j) / y for y in b.tolist()]))


@pytest.mark.parametrize("nu", [NU])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_single_datum_calls_match_the_array_pass(nu, ell):
    # residue_pair computes only the residues of the array pass, with the
    # array pass's bits
    sm = SmoothingParams(ell=ell, theta=0.8)
    zs = np.array(GRID + [1.0 + 0j, 0.35 + 0j, 7.5j, 0.2 + 19.0j])
    for X in (0.4, 1.7, 3.0):
        A, B, _per = _residues(zs, X, sm)
        for k, z_xi in enumerate(zs.tolist()):
            assert np.array_equal(_bits(residue_pair(z_xi, X, sm, nu)), _bits([A[k], B[k]]))


def test_integral_float_nu_is_the_integer():
    sp = _spectrum()
    want = spectral_side_eval(sp, 1.5, SM, 2)
    got = spectral_side_eval(sp, 1.5, SM, 2.0)
    assert np.array_equal(_bits(got.total), _bits(want.total))
    assert np.array_equal(_bits([v for _, v in got.per_datum]), _bits([v for _, v in want.per_datum]))
    assert residue_pair(0.6, 1.5, SM, 2.0) == residue_pair(0.6, 1.5, SM, 2)
    assert global_contour_oracle(sp, 1.5, SM, 2.0) == global_contour_oracle(sp, 1.5, SM, 2)
    for nu in BAD_NU:
        for call in (global_contour_oracle, spectral_side_eval):
            with pytest.raises(InputError, match=re.escape(f"nu must be 2, the model's, got {nu}")):
                call(sp, 1.5, SM, nu)
        with pytest.raises(InputError, match=re.escape(f"nu must be 2, the model's, got {nu}")):
            residue_pair(0.6, 1.5, SM, nu)

