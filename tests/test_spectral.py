"""Residue calculus for the spectral expansion: closed forms against the
circle oracle and the assembled global contour."""

import re

import numpy as np
import pytest

from orbitcount.errors import InputError, PoleCollisionError
from orbitcount.perron import SmoothingParams, kernel_denominator
from orbitcount.quadrature import cauchy_circle_residue
from orbitcount.spectral import (
    SpectralDatum,
    Spectrum,
    branch_z,
    convention_sign,
    global_contour_oracle,
    lambda_from_z,
    per_term,
    residue_pair,
    spectral_side_eval,
    z_from_lambda,
)

SM = SmoothingParams(ell=2, theta=1.0)
NU = 2
GRID = [0.6 + 0j, 1.25 + 0j, 2.6 + 0j, 0.45 + 1.1j, 1.4 + 0.8j]
WEIGHTS = [1.3, 0.7, 0.25, 0.9, 0.4]


def _phi(z_xi, X):
    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(z * X) / (
            (z - z_xi) ** NU * (z + z_xi) ** NU * kernel_denominator(SM, z)
        )

    return f


def _spectrum(zs=GRID, ws=WEIGHTS):
    return Spectrum(
        tuple(SpectralDatum(f"d{i}", z, w) for i, (z, w) in enumerate(zip(zs, ws)))
    )


def test_branch_and_lambda_roundtrip():
    for lam in (-0.64, -3.0, 0.5):
        z = z_from_lambda(lam, 1.0)
        assert z.real >= 0.0
        assert lambda_from_z(z, 1.0) == pytest.approx(lam, rel=1e-14)
    assert branch_z(complex(-2.0, 1.0)) == complex(2.0, -1.0)


def test_collision_detection():
    with pytest.raises(PoleCollisionError):
        residue_pair(1.0 + 0j, 1.0, SM, NU)  # hits the m=1 train pole
    with pytest.raises(PoleCollisionError):
        residue_pair(2.0 + 1e-10j, 1.0, SM, NU)
    with pytest.raises(PoleCollisionError):
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
        assert abs(per_term(z_xi, X, SM, NU) - want) <= 1e-14 * abs(want)


def test_per_term_equals_train_residues():
    X = 0.9
    for z_xi in (0.6 + 0j, 1.4 + 0.8j):
        f = _phi(z_xi, X)
        train = sum(cauchy_circle_residue(f, complex(p)) for p in SM.pole_train)
        assert abs(per_term(z_xi, X, SM, NU) - train) <= 1e-12


def test_per_term_decay_envelope():
    # asymptotic ratio e^{-theta} with a transient controlled by the pole
    # prefactors; C = 5 covers every |z_xi| in the grid with margin
    for z_xi in GRID:
        for X in np.arange(5.0, 41.0, 1.0):
            a = abs(per_term(z_xi, X, SM, NU))
            b = abs(per_term(z_xi, X + 1.0, SM, NU))
            env = np.exp(-SM.theta) * (1.0 + 5.0 * np.exp(-SM.theta * X)) + 1e-9
            assert b <= a * env


def test_side_eval_matches_global_oracle():
    sp = _spectrum()
    for X in (0.5, 1.0, 1.5, 2.0, 3.0):
        side = spectral_side_eval(sp, X, SM, NU)
        oracle = global_contour_oracle(sp, X, SM, NU)
        assert abs(side.total - oracle.value) <= 1e-6


def test_annihilation_of_residue_profile():
    # A(X) e^{-z_xi X} must be constant in X (the residue is a pure
    # exponential times a polynomial-free coefficient at even nu)
    for z_xi in (0.6 + 0j, 1.4 + 0.8j):
        g = [
            residue_pair(z_xi, X, SM, NU)[0] * np.exp(-z_xi * X)
            for X in (1.0, 1.5, 2.0)
        ]
        second = abs(g[0] - 2 * g[1] + g[2]) / abs(g[1])
        assert second <= 1e-9


def test_nu1_closed_form():
    th, ell = SM.theta, SM.ell
    for z_xi in (0.6 + 0j, 1.25 + 0j, 0.45 + 1.1j):
        for X in (0.8, 1.7):
            A, B = residue_pair(z_xi, X, SM, nu=1)
            q_pos = np.prod([z_xi + m * th for m in range(1, ell + 1)])
            q_neg = np.prod([-z_xi + m * th for m in range(1, ell + 1)])
            assert abs(A - np.exp(z_xi * X) / (2 * z_xi * q_pos)) <= 1e-12 * abs(A)
            assert abs(B + np.exp(-z_xi * X) / (2 * z_xi * q_neg)) <= 1e-12 * abs(B)


def test_constant_datum_omits_train():
    sm = SmoothingParams(ell=2, theta=0.8)
    sp = Spectrum(
        (SpectralDatum("c", 1.0 + 0j, 1.0), SpectralDatum("r", 0.35 + 0j, 2.0))
    )
    X = 1.2
    val = spectral_side_eval(sp, X, sm, NU)
    assert val.constant_labels == ("c",)
    a_c, b_c = residue_pair(1.0 + 0j, X, sm, NU)
    a_r, b_r = residue_pair(0.35 + 0j, X, sm, NU)
    want = 1.0 * (a_c + b_c) + 2.0 * (a_r + b_r + per_term(0.35 + 0j, X, sm, NU))
    assert abs(val.total - want) <= 1e-14 * abs(want)
    # adding the constant datum's train back reproduces the full contour
    oracle = global_contour_oracle(sp, X, sm, NU)
    full = val.total + 1.0 * per_term(1.0 + 0j, X, sm, NU)
    assert abs(full - oracle.value) <= 1e-6


def test_side_eval_rejects_nonpositive_x():
    with pytest.raises(InputError):
        spectral_side_eval(_spectrum(), 0.0, SM, NU)


def test_sign_convention():
    assert convention_sign(2) == 1
    assert convention_sign(1) == -1


def test_spectrum_csv_both_headers(tmp_path):
    p1 = tmp_path / "lam.csv"
    p1.write_text("label,lambda,weight\nc,0.0,1.0\nphi1,-2.25,2.0\n")
    s1 = Spectrum.from_csv(p1, rho_norm=1.0)
    assert s1.data[0].z == pytest.approx(1.0)
    assert s1.data[1].z == pytest.approx(np.sqrt(1.0 - 2.25 + 0j))
    assert s1.data[0].is_constant(1.0)
    assert not s1.data[1].is_constant(1.0)

    p2 = tmp_path / "z.csv"
    p2.write_text("label,z_re,z_im,weight\na,0.5,0.0,1.5\nb,0.0,1.2,0.5\n")
    s2 = Spectrum.from_csv(p2, rho_norm=1.0)
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
    ],
)
def test_spectrum_csv_rejects_malformed_rows(tmp_path, header, bad, message):
    good = "a,-2.0,1.0" if header.count(",") == 2 else "a,0.5,0.0,1.0"
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good}\n{bad}\n{good}\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: {message}")):
        Spectrum.from_csv(path)
