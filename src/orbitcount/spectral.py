"""Spectral-side evaluator for the smoothed count expansion.

Each spectral datum carries a weight w and a parameter z_xi on the branch
Re z_xi >= 0 (Im z_xi >= 0 when Re z_xi = 0), related to its eigenvalue by
lambda_xi = z_xi^2 - |rho|^2, where |rho| = 1 for the model space
(``freespace.RHO_NORM``).  Its contribution to the smoothed count at X, for
the model's kernel exponent nu = 2 (``freespace.NU``) and smoothing
(ell, theta), is

    w * (A + B + Per)

where A and B are the full residues (exponential included) of

    phi(z) = e^{zX} / ((z - z_xi)^2 (z + z_xi)^2 q(z)),
    q(z)   = prod_{m=1}^{ell} (z + m theta),

at z = z_xi and z = -z_xi respectively, and Per is the pole-train sum

    Per = sum_{m=1}^{ell} c_m (1/(m theta + z_xi) * 1/(m theta - z_xi))^2,
    c_m = (-1)^{m-1} e^{-m theta X} / ((m-1)! (ell-m)! theta^{ell-1}).

A carries e^{+z_xi X} times a degree-1 polynomial in X; B mirrors with
e^{-z_xi X}.  The constant datum (lambda = 0, z_xi = |rho|) contributes
w * (A + B) with no pole-train part.

The raw contour calculus equals (-1)^nu times this normalization (it is
the power of (lambda_xi - lambda_z) = -(z - z_xi)(z + z_xi) that flips);
at nu = 2 that sign is +1, and the reports state it.  The ``nu`` arguments
accept only the model's value.

A is g'(z_xi) for g(z) = e^{zX} / ((z + z_xi)^2 q(z)), in closed form as g
times its logarithmic derivative (never by numerical differentiation), and
B is the same at -z_xi.  ``_residues`` takes A, B and Per from one table of
reciprocals, whose products underflow where z_xi^2 or q would overflow.  An
independent small-circle quadrature oracle in the test suite validates them.

The formula is evaluated over arrays: one pass computes A, B and Per for
every datum of a spectrum at one X, with a loop only over the train index.
Each datum's value depends on that datum alone, and ``spectral_side_eval``'s
total is their correctly rounded sum (``math.fsum`` per part).
``residue_pair`` is the same code applied to one datum: it computes only
the residues, with the array pass's bits.  All three entry points refuse
an X that is not finite and > 0 (``perron.check_count_parameter``) and a
nu other than 2.  Before any reciprocal or exponential, ``_residues``
refuses the first z_xi on another pole of phi: one with a denominator
+/- z_xi + m theta within ``POLE_TOL`` of 0.

``global_contour_oracle`` checks the total independently: it integrates the
assembled kernel along a vertical line, folded onto the upper half only
when every z_xi is real or purely imaginary: the Perron contour transform
of the kernel sum, at the package's one tolerance ``quadrature.RESULT_TOL``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .freespace import NU, RHO_NORM
from .perron import SmoothingParams, check_count_parameter, smoothing_contour_transform
from .quadrature import LineIntegral, fsum_complex, pointwise

#: tolerance below which two poles are treated as collided
POLE_TOL = 1e-8

#: treat |lambda| below this as the constant datum
CONSTANT_LAMBDA_TOL = 1e-12

#: global contour oracle: abscissa margin and half-height of its line
ORACLE_SIGMA_MARGIN = 1.5
ORACLE_HEIGHT = 400.0


def branch_z(z: complex) -> complex:
    """Fold z to the branch Re z >= 0 (and Im z >= 0 when Re z == 0)."""
    z = complex(z)
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        return -z
    return z


def z_from_lambda(lam: complex) -> complex:
    """Principal z_xi with z_xi^2 = lambda + |rho|^2, on the branch."""
    return branch_z(cmath.sqrt(complex(lam) + RHO_NORM * RHO_NORM))


def lambda_from_z(z: complex) -> complex:
    return complex(z) * complex(z) - RHO_NORM * RHO_NORM


#: Spectrum file headers and each one's row fields -> z_xi conversion.
_SPECTRUM_HEADERS = {
    ("label", "lambda", "weight"): z_from_lambda,
    ("label", "z_re", "z_im", "weight"): lambda re, im: branch_z(complex(re, im)),
}


@dataclass(frozen=True)
class SpectralDatum:
    """One spectral line: label, branch parameter z_xi, weight."""

    label: str
    z: complex
    weight: float

    def lam(self) -> complex:
        return lambda_from_z(self.z)

    def is_constant(self) -> bool:
        return abs(self.lam()) <= CONSTANT_LAMBDA_TOL


@dataclass(frozen=True)
class Spectrum:
    data: tuple[SpectralDatum, ...]

    def __iter__(self):
        return iter(self.data)

    @classmethod
    def from_csv(cls, path: str | Path) -> "Spectrum":
        """Load `label,lambda,weight` or `label,z_re,z_im,weight` files."""
        try:
            lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text at byte {exc.start}") from None
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
                values = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise InputError(f"{path}:{ln}: {exc}") from None
            for p, v in zip(parts[1:], values):
                if not math.isfinite(v):
                    raise InputError(f"{path}:{ln}: non-finite field {p!r}")
            *z_fields, w = values
            rows.append(SpectralDatum(parts[0], to_z(*z_fields), w))
        return cls(data=tuple(rows))


def _check_request(X: float, nu) -> None:
    """Refuse an X not finite and > 0, and a nu but the model's (2.0 is 2)."""
    check_count_parameter(X)
    if nu != NU:
        raise InputError(f"kernel exponent nu must be {NU}, the model's, got {nu}")


# Complex products and quotients over arrays, spelled out in real arithmetic
# as Python's complex type computes them (CPython's c_prod and c_quot).
# numpy's own complex multiply fuses multiply-adds where the CPU has them and
# its divide multiplies by a reciprocal; A + B + Per cancels by up to four
# digits, which magnifies one such rounding to ~1e-12 relative.


def _pack(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = re.astype(complex)
    out.imag = im
    return out


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _pack(ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(a, b) -> np.ndarray:
    """a / b by Smith's algorithm, dividing by the scaled denominator; b != 0."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    ratio = small / big
    denom = big + small * ratio
    return _pack(
        np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
        np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom,
    )


def _check_finite(values: np.ndarray, z: np.ndarray, X: float, labels=None) -> None:
    """Refuse the first value past the float range, naming its z_xi:
    ``values`` holds one value per z_xi, or A then B, each in array order."""
    finite = np.isfinite(values)
    if finite.all():
        return
    k = int(np.argmin(finite)) % z.size
    datum = f"z_xi = {complex(z[k])}"
    if labels is not None:
        datum = f"datum {labels[k]!r} ({datum})"
    raise InputError(f"{datum} overflows at X = {X}: its contribution is not a finite number")


def _residues(z: np.ndarray, X: float, params: SmoothingParams):
    """(A, B, Per) of every z_xi in ``z``, from the reciprocals
    r_m(a) = 1/(a + m theta), m = 0, ..., ell, at a = +/- z_xi:

        A   = e^{aX} r_0(a)^2/4 prod_{m>=1} r_m(a) (X - sum_{m>=0} r_m(a)), a = z_xi,
        B   = the same at a = -z_xi,
        Per = sum_{m>=1} c_m (r_m(z_xi) r_m(-z_xi))^2,

    as 1/(2a) = r_0(a)/2 and r_m(z_xi) r_m(-z_xi) = 1/(m^2 theta^2 - z_xi^2).
    First it refuses the first z_xi, in array order, with a denominator
    a + m theta within ``POLE_TOL`` of 0: at m = 0 the two residue points
    meet, and otherwise z_xi or -z_xi sits on the train pole -m theta.
    """
    ell, theta = params.ell, params.theta
    at = np.concatenate([z, -z])
    den = at[:, None] + theta * np.arange(ell + 1)
    near = (np.abs(den) < POLE_TOL).reshape(2, z.size, ell + 1).any(axis=0)
    if near.any():
        k = int(np.argmax(near.any(axis=1)))
        m, z_xi = int(np.argmax(near[k])), complex(z[k])
        if m == 0:
            raise InputError(f"z_xi = {z_xi}: the two residue points +/- z_xi collide at 0")
        raise InputError(
            f"z_xi = {z_xi} collides with kernel pole at -{m}*theta "
            f"(theta = {theta}); shift theta"
        )
    r = _cdiv(1.0, den)
    g = 0.25 * r[:, 0]
    for m in range(ell + 1):
        g = _cmul(g, r[:, m])
    AB = _cmul(_cmul(g, np.exp(at * X)), X - np.add.reduce(r, axis=-1))
    c = np.array([
        (-1.0) ** (m - 1) * math.exp(-m * theta * X)
        / (math.factorial(m - 1) * math.factorial(ell - m) * theta ** (ell - 1))
        for m in range(1, ell + 1)
    ])
    pair = _cmul(r[: z.size, 1:], r[z.size :, 1:])
    return AB[: z.size], AB[z.size :], np.add.reduce(c * _cmul(pair, pair), axis=-1)


def residue_pair(
    z_xi: complex,
    X: float,
    params: SmoothingParams,
    nu: int = NU,
) -> tuple[complex, complex]:
    """Full residues (A, B) of phi at z = +z_xi and z = -z_xi, with the
    array pass's bits (see ``_residues`` for the closed form).  For a far
    z_xi they underflow to 0 instead of being refused."""
    z = np.array([complex(z_xi)])
    with np.errstate(over="ignore", invalid="ignore"):
        _check_request(X, nu)
        AB = np.concatenate(_residues(z, X, params)[:2])
    _check_finite(AB, z, X)
    return tuple(AB.tolist())


@dataclass(frozen=True)
class SpectralValue:
    total: complex
    per_datum: tuple[tuple[str, complex], ...]
    constant_labels: tuple[str, ...] = ()


def spectral_side_eval(
    spectrum: Spectrum,
    X: float,
    params: SmoothingParams,
    nu: int = NU,
) -> SpectralValue:
    """Sum of datum contributions w (A + B [+ Per]) at count parameter X.

    The constant datum (lambda = 0) omits Per.  Every datum's contribution
    comes from one array evaluation over the whole spectrum; the total is
    their correctly rounded sum.
    """
    data = spectrum.data
    z = np.array([d.z for d in data], dtype=complex)
    w = np.array([d.weight for d in data], dtype=float)
    const = np.array([d.is_constant() for d in data], dtype=bool)
    labels = [d.label for d in data]
    with np.errstate(over="ignore", invalid="ignore"):
        _check_request(X, nu)
        A, B, per = _residues(z, X, params)
        pair = A + B
        contrib = w * np.where(const, pair, pair + per)
    _check_finite(contrib, z, X, labels)
    values = contrib.tolist()
    return SpectralValue(
        total=fsum_complex(values),
        per_datum=tuple(zip(labels, values)),
        constant_labels=tuple(d.label for d, c in zip(data, const) if c),
    )


def global_contour_oracle(
    spectrum: Spectrum,
    X: float,
    params: SmoothingParams,
    nu: int = NU,
) -> LineIntegral:
    """Numeric vertical-line integral of the assembled spectral kernel.

    Integrates sum_xi w_xi e^{zX} / ((z - z_xi)^2 (z + z_xi)^2 q(z)) on
    Re z = sigma, ``ORACLE_SIGMA_MARGIN`` right of every pole, up to height
    ``ORACLE_HEIGHT``, by :func:`orbitcount.perron.smoothing_contour_transform`
    of the kernel sum.  Closing left picks up A + B + (pole-train) for every
    datum, so for non-constant spectra this converges (fast: the integrand
    decays like |z|^{-4 - ell}) to the spectral_side_eval total as the
    height grows.

    The kernel sum adds one datum at a time, each as w_xi / (z^2 - z_xi^2)^2,
    since (z - z_xi)^2 (z + z_xi)^2 = (z^2 - z_xi^2)^2: one power per datum
    and no (panels, nodes, data) array.  On the line both factors are at
    least ``ORACLE_SIGMA_MARGIN`` from zero, so z^2 - z_xi^2 loses little to
    cancellation: the values stay within a few ulps of the factored form's.

    When every z_xi is real or purely imaginary, each z_xi^2 is real, so
    with real weights f(conj z) = conj f(z) and only the upper half of the
    line is integrated; any other spectrum is integrated on the whole line.
    """
    _check_request(X, nu)  # closing the line to the left needs X > 0
    zarr = np.array([d.z for d in spectrum], dtype=complex)
    ws = np.array([d.weight for d in spectrum])
    sigma = float(np.max(np.abs(zarr.real), initial=0.0)) + ORACLE_SIGMA_MARGIN

    data = tuple(zip(ws.tolist(), (zarr * zarr).tolist()))

    def kernel_sum(z):
        zz = z * z
        total = np.zeros_like(z)
        for w, zxi2 in data:
            total += w / (zz - zxi2) ** NU
        return total

    return smoothing_contour_transform(
        pointwise(kernel_sum), X, params, sigma=sigma, height=ORACLE_HEIGHT,
        conj_symmetric=bool(np.all((zarr.real == 0) | (zarr.imag == 0))),
    )
