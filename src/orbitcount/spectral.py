"""Spectral-side evaluator for the smoothed count expansion.

Each spectral datum carries a weight w and a parameter z_xi on the branch
Re z_xi >= 0 (Im z_xi >= 0 when Re z_xi = 0), related to its eigenvalue by
lambda_xi = z_xi^2 - rho_norm^2.  Its contribution to the smoothed count at
X, for kernel exponent nu and smoothing (ell, theta), is

    w * (A + B + Per)

where A and B are the full residues (exponential included) of

    phi(z) = e^{zX} / ((z - z_xi)^nu (z + z_xi)^nu q(z)),
    q(z)   = prod_{m=1}^{ell} (z + m theta),

at z = z_xi and z = -z_xi respectively, and Per is the pole-train sum

    Per = (1/theta^{ell-1}) sum_{m=1}^{ell}
          (-1)^{m-1} e^{-m theta X} / ((m-1)! (ell-m)! (z_xi^2 - m^2 theta^2)^nu).

A carries e^{+z_xi X} times a degree-(nu-1) polynomial in X; B mirrors with
e^{-z_xi X}.  The constant datum (lambda = 0, z_xi = rho_norm) contributes
w * (A + B) with no pole-train part.

The raw contour calculus equals (-1)^nu times this normalization (it is
the power of (lambda_xi - lambda_z) = -(z - z_xi)(z + z_xi) that flips);
``SIGN = (-1)**nu`` is exported and reported so the geometric comparison
can be made on matching conventions.  For the model space nu = 2, SIGN = +1.

Residues are evaluated by a closed three-factor Leibniz expansion (never by
numerical differentiation); an independent small-circle quadrature oracle
in the test suite validates them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, PoleCollisionError
from .perron import SmoothingParams, kernel_denominator, panel_width
from .quadrature import LineIntegral, vertical_line_integral
from .summation import neumaier_sum_complex

#: kernel exponent of the rank-one model space
NU_DEFAULT = 2

#: tolerance below which two poles are treated as collided
POLE_TOL = 1e-8

#: treat |lambda| below this as the constant datum
CONSTANT_LAMBDA_TOL = 1e-12


def branch_z(z: complex) -> complex:
    """Fold z to the branch Re z >= 0 (and Im z >= 0 when Re z == 0)."""
    z = complex(z)
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        return -z
    return z


def z_from_lambda(lam: complex, rho_norm: float) -> complex:
    """Principal z_xi with z_xi^2 = lambda + rho_norm^2, on the branch."""
    return branch_z(cmath.sqrt(complex(lam) + rho_norm * rho_norm))


def lambda_from_z(z: complex, rho_norm: float) -> complex:
    return complex(z) * complex(z) - rho_norm * rho_norm


#: Spectrum file headers and each one's row fields -> z_xi conversion.
_SPECTRUM_HEADERS = {
    ("label", "lambda", "weight"): z_from_lambda,
    ("label", "z_re", "z_im", "weight"): lambda re, im, _rho: branch_z(complex(re, im)),
}


@dataclass(frozen=True)
class SpectralDatum:
    """One spectral line: label, branch parameter z_xi, weight."""

    label: str
    z: complex
    weight: float

    def lam(self, rho_norm: float) -> complex:
        return lambda_from_z(self.z, rho_norm)

    def is_constant(self, rho_norm: float) -> bool:
        return abs(self.lam(rho_norm)) <= CONSTANT_LAMBDA_TOL


@dataclass(frozen=True)
class Spectrum:
    data: tuple[SpectralDatum, ...]
    rho_norm: float = 1.0

    def __iter__(self):
        return iter(self.data)

    @classmethod
    def from_csv(cls, path: str | Path, rho_norm: float = 1.0) -> "Spectrum":
        """Load `label,lambda,weight` or `label,z_re,z_im,weight` files."""
        lines = Path(path).read_text().strip().splitlines()
        if not lines:
            raise InputError(f"{path}: empty spectrum file")
        header = tuple(h.strip() for h in lines[0].split(","))
        if header not in _SPECTRUM_HEADERS:
            raise InputError(
                f"{path}: unrecognized spectrum header {lines[0]!r}; expected "
                "'label,lambda,weight' or 'label,z_re,z_im,weight'"
            )
        to_z = _SPECTRUM_HEADERS[header]
        rows = []
        for ln, line in enumerate(lines[1:], start=2):
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != len(header):
                raise InputError(f"{path}:{ln}: expected {len(header)} fields")
            try:
                *z_fields, w = (float(p) for p in parts[1:])
            except ValueError as exc:
                raise InputError(f"{path}:{ln}: {exc}") from None
            rows.append(SpectralDatum(parts[0], to_z(*z_fields, rho_norm), w))
        return cls(data=tuple(rows), rho_norm=rho_norm)


def _check_collisions(z_xi: complex, params: SmoothingParams, nu: int) -> None:
    if abs(z_xi) < POLE_TOL:
        raise PoleCollisionError(
            f"z_xi = {z_xi}: the two residue points +/- z_xi collide at 0"
        )
    for m in range(1, params.ell + 1):
        # Both (z - z_xi) and (z + z_xi) matter: collision whenever
        # z_xi^2 is within tolerance of (m theta)^2.
        if min(abs(z_xi - m * params.theta), abs(z_xi + m * params.theta)) < POLE_TOL:
            raise PoleCollisionError(
                f"z_xi = {z_xi} collides with kernel pole at -{m}*theta "
                f"(theta = {params.theta}); shift theta"
            )


@functools.lru_cache(maxsize=None)
def _train_weights(params: SmoothingParams) -> np.ndarray:
    """Partial fractions of 1/q(z): w_m = (-1)^(m-1)/(theta^(ell-1) (m-1)! (ell-m)!)."""
    ell, theta = params.ell, params.theta
    return np.array(
        [
            (-1.0) ** (m - 1)
            / (theta ** (ell - 1) * math.factorial(m - 1) * math.factorial(ell - m))
            for m in range(1, ell + 1)
        ]
    )


def residue_pair(
    z_xi: complex,
    X: float,
    params: SmoothingParams,
    nu: int = NU_DEFAULT,
) -> tuple[complex, complex]:
    """Full residues (A, B) of phi at z = +z_xi and z = -z_xi.

    Closed form via the three-factor Leibniz rule on
    (z -/+ z_xi)^{-nu} * e^{zX} * (1/q(z)); all derivatives are explicit:

        d^i (z + s)^{-nu} = (-1)^i (nu)_i (z + s)^{-nu-i}
        d^j e^{zX}        = X^j e^{zX}
        d^k (1/q)         = sum_m w_m (-1)^k k! (z + m theta)^{-k-1}
    """
    if nu < 1 or int(nu) != nu:
        raise InputError(f"kernel exponent nu must be a positive integer, got {nu}")
    z_xi = complex(z_xi)
    _check_collisions(z_xi, params, nu)
    wm = _train_weights(params)
    mths = params.theta * np.arange(1, params.ell + 1)

    def full_residue(at: complex, other_pole: complex) -> complex:
        # residue of (z - other_pole)^{-nu} e^{zX} / q(z) at z = at,
        # where (z - at)^{nu} has been stripped: (1/(nu-1)!) d^{nu-1} at `at`.
        n = nu - 1
        gap = at - other_pole  # = +/- 2 z_xi
        exp_at = cmath.exp(at * X)
        total = 0.0 + 0.0j
        for i in range(n + 1):
            poch = 1.0
            for t in range(i):
                poch *= nu + t
            f1 = (-1.0) ** i * poch * gap ** (-nu - i)
            for j in range(n - i + 1):
                k = n - i - j
                f2 = X**j * exp_at
                f3 = complex(np.sum(wm * (-1.0) ** k * math.factorial(k) * (at + mths) ** (-(k + 1.0))))
                coef = math.factorial(n) / (
                    math.factorial(i) * math.factorial(j) * math.factorial(k)
                )
                total += coef * f1 * f2 * f3
        return total / math.factorial(n)

    A = full_residue(z_xi, -z_xi)
    B = full_residue(-z_xi, z_xi)
    return A, B


def per_term(
    z_xi: complex,
    X: float,
    params: SmoothingParams,
    nu: int = NU_DEFAULT,
) -> complex:
    """Pole-train term, exactly as displayed (see module docstring).

    Matches the residue sum of phi over the kernel poles -theta..-ell theta
    when nu is even (the model case); for odd nu the displayed denominator
    (z_xi^2 - m^2 theta^2)^nu differs from the residue sum by a global sign.
    """
    z_xi = complex(z_xi)
    _check_collisions(z_xi, params, nu)
    ell, theta = params.ell, params.theta
    terms = []
    for m in range(1, ell + 1):
        den = (z_xi * z_xi - (m * theta) ** 2) ** nu
        terms.append(
            (-1.0) ** (m - 1)
            * cmath.exp(-m * theta * X)
            / (math.factorial(m - 1) * math.factorial(ell - m) * den)
        )
    return neumaier_sum_complex(terms) / theta ** (ell - 1)


def convention_sign(nu: int) -> int:
    return 1 if nu % 2 == 0 else -1


@dataclass(frozen=True)
class SpectralValue:
    total: complex
    per_datum: tuple[tuple[str, complex], ...]
    nu: int
    sign: int
    constant_labels: tuple[str, ...] = field(default=())


def spectral_side_eval(
    spectrum: Spectrum,
    X: float,
    params: SmoothingParams,
    nu: int = NU_DEFAULT,
) -> SpectralValue:
    """Sum of datum contributions w (A + B [+ Per]) at count parameter X.

    The constant datum (lambda = 0) omits Per.  Data are processed in file
    order and combined with compensated summation.
    """
    if X <= 0:
        raise InputError(f"count parameter X must be > 0, got {X}")
    contribs = []
    constants = []
    for d in spectrum:
        A, B = residue_pair(d.z, X, params, nu)
        if d.is_constant(spectrum.rho_norm):
            val = d.weight * (A + B)
            constants.append(d.label)
        else:
            val = d.weight * (A + B + per_term(d.z, X, params, nu))
        contribs.append((d.label, val))
    total = neumaier_sum_complex(v for _, v in contribs)
    return SpectralValue(
        total=total,
        per_datum=tuple(contribs),
        nu=nu,
        sign=convention_sign(nu),
        constant_labels=tuple(constants),
    )


def global_contour_oracle(
    spectrum: Spectrum,
    X: float,
    params: SmoothingParams,
    nu: int = NU_DEFAULT,
    *,
    sigma: float | None = None,
    height: float = 400.0,
    abs_tol: float = 1e-10,
) -> LineIntegral:
    """Numeric vertical-line integral of the assembled spectral kernel.

    Integrates sum_xi w_xi e^{zX} / ((z - z_xi)^nu (z + z_xi)^nu q(z)) on
    Re z = sigma with sigma right of every pole.  Closing left picks up
    A + B + (pole-train) for every datum, so for non-constant spectra and
    even nu this converges (fast: the integrand decays like |z|^{-2 nu - ell})
    to the spectral_side_eval total as the height grows.
    """
    if X <= 0:
        raise InputError("contour oracle needs X > 0 for left closure")
    zs = [d.z for d in spectrum]
    if sigma is None:
        sigma = max((abs(z.real) for z in zs), default=0.0) + 1.5
    ws = np.array([d.weight for d in spectrum])
    zarr = np.array(zs)

    def integrand(z):
        z = np.asarray(z, dtype=complex)
        num = np.exp(z * X)
        den_q = kernel_denominator(params, z)
        zz = z[..., None]
        quad = (zz - zarr) ** nu * (zz + zarr) ** nu
        return num * np.sum(ws / quad, axis=-1) / den_q

    return vertical_line_integral(
        integrand, float(sigma), height, abs_tol=abs_tol,
        panel_width=panel_width(X),
        conj_symmetric=_schwarz_symmetric(zarr, ws),
    )


def _schwarz_symmetric(zarr: np.ndarray, ws: np.ndarray) -> bool:
    """Whether the assembled kernel satisfies f(conj z) = conj f(z).

    Each datum enters through w / (z^2 - z_xi^2)^nu with a real weight, so
    the reflection symmetry holds exactly when the weighted multiset
    {(z_xi^2, w_xi)} is closed under conjugation.  Real spectral parameters
    (z real or purely imaginary) always qualify; only synthetic test data
    can fail.
    """
    z2 = np.asarray(zarr, dtype=complex) ** 2
    used = np.zeros(z2.size, dtype=bool)
    for k in range(z2.size):
        target = np.conj(z2[k])
        hit = -1
        for j in range(z2.size):
            if (
                not used[j]
                and abs(z2[j] - target) <= 1e-12 * (1.0 + abs(target))
                and abs(ws[j] - ws[k]) <= 1e-12 * (1.0 + abs(ws[k]))
            ):
                hit = j
                break
        if hit < 0:
            return False
        used[hit] = True
    return True
