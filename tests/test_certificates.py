"""Printed certificates against references computed another way.

A certificate is a bound that a report prints for what its computation
leaves out.  Each test here recomputes what is left out, independently of
the code that bounds it, and requires the printed bound to be at least
that.

* The census series tail ``series_eval(...).tail`` rests on an
  extrapolated growth model.  The reference sums the exact shell counts
  N(F) of :func:`form_counts` over the F the census omits up to 2048, and
  bounds the rest by N(F) <= 32 F^2: N(F) = 8 sum_{x=1}^{F-1} r2(x (F - x)
  - 1), and r2(m) <= 4 (2 sqrt(m) + 1) <= 4 (F + 1) for m <= F^2 / 4.
* The n = 1 torus geometric tail bounds the images |m| > M of the
  periodized kernel.  For |x| <= 1/2 they sum in closed form, a geometric
  series, to cosh(kappa x) e^{-kappa (M + 1)} / (kappa (1 - e^{-kappa}))
  at nu = 1 and to its lambda-derivative at nu = 2.
* The n = 1 torus spectral tail bounds the whole error of Ewald's split:
  its two Gaussian tails and its rounding.  At nu = 1 the whole sum is
  cosh(kappa (1/2 - |x|)) / (2 kappa sinh(kappa / 2)), and at nu = 2 its
  lambda-derivative; the budget is held against the same value.
* The perron oracle's quadrature error estimate bounds what its panels
  miss of the finite-height line integral.  With the partial fractions
  1 / (z prod_m (z + m theta)) = sum_m c_m / (z + m theta), each term
  integrates in closed form, e^{-m theta u} [Ei(u (z + m theta))] along
  the line for u > 0 and the same with -E1(-w) in place of Ei(w) for
  u < 0, so that the path stays clear of the branch cut.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from orbitcount.lattice import Census, form_counts
from orbitcount.perron import SmoothingParams, perron_contour_oracle, perron_sigma
from orbitcount.poincare import series_eval
from orbitcount.torus import (TorusParams, _geometric_box, torus_geometric_side,
                              torus_identity_check, torus_spectral_side)

F_REF = 2048
SERIES_ZS = [5.3, 6.0, 6.0 + 50.0j, 7.0]


@pytest.fixture(scope="module")
def shell_sizes():
    """N(F) for F = 0, ..., F_REF, each checked against N(F) <= 32 F^2."""
    n = form_counts(F_REF)
    f = np.arange(F_REF + 1)
    assert (n <= 32 * f * f).all()
    return [mp.mpf(int(v)) for v in n]


def _kernel_size(F, z: complex):
    """|u_z(r)| = (r / sinh r) e^{-Re z r} / |z| at r = arccosh(F / 2)."""
    r = mp.acosh(mp.mpf(F) / 2)
    return r / mp.sinh(r) * mp.exp(-z.real * r) / abs(z)


def _beyond_ref(z: complex):
    """A bound on the series terms with F > F_REF.  There r <= log F,
    sinh r >= (F - 1) / 2 and e^r >= F - 1/2, so with N(F) <= 32 F^2 a
    term is at most g(F) = 64 F^2 log F / ((F - 1) (F - 1/2)^{Re z} |z|).
    g decreases for Re z > 3, so the sum over F > F_REF is at most the
    integral of g from F_REF."""
    def g(f):
        return 64 * f * f * mp.log(f) / ((f - 1) * (f - mp.mpf(0.5)) ** z.real * abs(z))

    return mp.quad(g, [F_REF, 2 * F_REF, mp.inf])


@pytest.mark.parametrize("source", ["enumerated", "loaded"])
@pytest.mark.parametrize("cutoff", [1, 2, 4, 8])
def test_series_tail_covers_the_omitted_shells(cutoff, source, shell_sizes, request, tmp_path):
    census = request.getfixturevalue(f"census{cutoff}")
    if source == "loaded":  # its cutoff is the largest gauge, so r0 is smaller
        census.to_csv(tmp_path / "census.csv")
        census = Census.from_csv(tmp_path / "census.csv")
    f_top = int(census.shell_table.fnorm[-1])
    assert np.array_equal(np.bincount(census.fnorm, minlength=f_top + 1),
                          [int(v) for v in shell_sizes[: f_top + 1]])
    with mp.workdps(30):
        for z in SERIES_ZS:
            exact = mp.fsum(shell_sizes[f] * _kernel_size(f, z)
                            for f in range(f_top + 1, F_REF + 1))
            exact += _beyond_ref(z)
            tail = series_eval(census, z).tail
            assert tail >= exact, (z, tail, exact)


def _lam_form(nu: int, lam: float, form):
    """``form(kappa)`` at nu = 1, and its lambda-derivative at nu = 2."""
    def at(lm):
        return form(mp.sqrt(-lm))

    return at(mp.mpf(lam)) if nu == 1 else mp.diff(at, mp.mpf(lam))


def _whole_torus_sum(nu: int, lam: float, xm):
    """The n = 1 periodized kernel at x, to 40 digits (inside mp.workdps)."""
    return _lam_form(nu, lam, lambda k: (
        mp.cosh(k * (mp.mpf(0.5) - abs(xm))) / (2 * k * mp.sinh(k / 2))))


def _omitted_images(nu: int, lam: float, xm, M: int):
    """The images |m| > M of the n = 1 periodized kernel at |x| <= 1/2, a
    geometric series, to 40 digits (inside mp.workdps)."""
    return _lam_form(nu, lam, lambda k: (
        mp.cosh(k * xm) * mp.exp(-k * (M + 1)) / (k * (1 - mp.exp(-k)))))


@pytest.mark.parametrize("x", [0.0, 0.3])
@pytest.mark.parametrize("lam", [-1.0, -3.0, -0.01, -400.0])
@pytest.mark.parametrize("nu", [1, 2])
def test_torus_geometric_tail_covers_the_omitted_images(nu, lam, x):
    # the box the identity check sums: the least whose tail meets the spectral one
    p = TorusParams(n=1, nu=nu, lam=lam)
    target = torus_spectral_side(p, x)[1]
    M, _ = _geometric_box(p, target)
    _value, tail = torus_geometric_side(p, x, target)
    with mp.workdps(40):
        xm = mp.mpf(x)  # the float's exact binary value
        error = _omitted_images(nu, lam, xm, M)
        if lam > -10:  # the whole sum's closed form, less the images |m| <= M
            whole = _whole_torus_sum(nu, lam, xm)
            k = mp.sqrt(-mp.mpf(lam))
            r = [abs(xm + m) for m in range(-M, M + 1)]
            power = [1] * len(r) if nu == 1 else [(1 + k * v) / (2 * k * k) for v in r]
            kept = mp.fsum(mp.exp(-k * v) * p for v, p in zip(r, power)) / (2 * k)
            assert mp.almosteq(whole - kept, error, rel_eps=mp.mpf(10) ** -20)
        assert 0 < error <= tail, (tail, error)


@pytest.mark.parametrize("x", [1e-16, 5e-16, 9.9e-16])
def test_torus_spectral_tail_covers_a_point_next_to_0(x):
    # S(x) = cosh(kappa (1/2 - |x|)) / (2 kappa sinh(kappa / 2)) has a kink
    # of slope -1/2 at 0 that a Fourier box carries only in its omitted
    # terms; Ewald's split carries it in the image m = 0
    value, tail = torus_spectral_side(TorusParams(n=1, nu=1, lam=-1.0), (x,))
    with mp.workdps(40):
        xm = mp.mpf(x)
        exact = mp.cosh(mp.mpf(0.5) - xm) / (2 * mp.sinh(mp.mpf(0.5)))
        assert abs(value - exact) <= tail, (value - exact, tail)


@pytest.mark.parametrize("x", [0.0, 1e-16, 1e-9, 0.125, 0.3, 0.5])
@pytest.mark.parametrize("lam", [-1e-8, -0.01, -1.0, -3.0, -400.0, -1e4, -1e6, -1e10])
@pytest.mark.parametrize("nu", [1, 2])
def test_torus_n1_certificates_hold_against_the_closed_form(nu, lam, x):
    # every n = 1 certificate the oracle prints, held against the 40-digit
    # value: the spectral tail bounds the whole error of the Ewald value, the
    # geometric tail the images its box omits, and the budget the error of
    # both sides; none of these cells is refused
    p = TorusParams(n=1, nu=nu, lam=lam)
    c = torus_identity_check(p, (x,))
    M, _ = _geometric_box(p, c.spectral_tail)
    for bound in (c.spectral_tail, c.geometric_tail, c.budget):
        assert 0.0 < bound < math.inf
    with mp.workdps(40):
        xm = mp.mpf(x)
        exact = _whole_torus_sum(nu, lam, xm)
        omitted = _omitted_images(nu, lam, xm, M)
        spectral_error = abs(mp.mpf(c.spectral) - exact)
        assert spectral_error <= c.spectral_tail, (c.spectral_tail, spectral_error)
        assert 0 < omitted <= c.geometric_tail, (c.geometric_tail, omitted)
        error = spectral_error + abs(mp.mpf(c.geometric) - exact)
        assert error <= c.budget, (c.budget, error)


def _finite_height_perron(u: float, ell: int, T: float):
    """The perron oracle's line integral at theta = 1, on its own line
    Re z = ``perron_sigma(u)`` up to height T, to 40 digits."""
    with mp.workdps(40):
        u, T = mp.mpf(u), mp.mpf(T)
        sigma = mp.mpf(perron_sigma(float(u)))
        antiderivative = mp.ei if u > 0 else (lambda w: -mp.e1(-w))
        total = mp.mpc(0)
        for m in range(ell + 1):
            c = mp.mpf(1)  # 1 / prod_{j != m} (j - m), the residue at -m
            for j in range(ell + 1):
                if j != m:
                    c /= j - m
            lo, hi = (u * (mp.mpc(sigma, t) + m) for t in (-T, T))
            total += c * mp.exp(-m * u) * (antiderivative(hi) - antiderivative(lo))
        return total / (2j * mp.pi)


@pytest.mark.parametrize("T", [250.0, 1000.0])
@pytest.mark.parametrize("u", [1.0, 3.0, -0.7, -1.5])
@pytest.mark.parametrize("ell", [2, 3])
def test_perron_estimate_covers_the_quadrature_error(ell, u, T):
    # at ell = 3, u = 3, T = 250 the quarter-period panels printed 1.35e-17
    # for a true error of 2.47e-17
    li = perron_contour_oracle(u, SmoothingParams(ell=ell), height=T)
    exact = _finite_height_perron(u, ell, T)
    assert abs(exact.imag) < mp.mpf(10) ** -30
    error = abs(mp.mpf(li.value.real) - exact.real)
    assert error <= li.error_estimate, (li.error_estimate, error)
    assert error <= 1e-16
