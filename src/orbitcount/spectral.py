"""Spectral-side evaluator for the smoothed count expansion.

Each spectral datum carries a weight w and a parameter z_xi on the branch
Re z_xi >= 0 (Im z_xi >= 0 when Re z_xi = 0), related to its eigenvalue by
lambda_xi = z_xi^2 - |rho|^2, where |rho| = 1 for the model space
(``freespace.RHO_NORM``).  Its contribution to the smoothed count at X, for
kernel exponent nu and smoothing (ell, theta), is

    w * (A + B + Per)

where A and B are the full residues (exponential included) of

    phi(z) = e^{zX} / ((z - z_xi)^nu (z + z_xi)^nu q(z)),
    q(z)   = prod_{m=1}^{ell} (z + m theta),

at z = z_xi and z = -z_xi respectively, and Per is the pole-train sum

    Per = (1/theta^{ell-1}) sum_{m=1}^{ell}
          (-1)^{m-1} e^{-m theta X} / ((m-1)! (ell-m)! (z_xi^2 - m^2 theta^2)^nu).

A carries e^{+z_xi X} times a degree-(nu-1) polynomial in X; B mirrors with
e^{-z_xi X}.  The constant datum (lambda = 0, z_xi = |rho|) contributes
w * (A + B) with no pole-train part.

The raw contour calculus equals (-1)^nu times this normalization (it is
the power of (lambda_xi - lambda_z) = -(z - z_xi)(z + z_xi) that flips);
``SIGN = (-1)**nu`` is exported and reported so the geometric comparison
can be made on matching conventions.  The model space has nu = 2
(``freespace.NU``), the default here, so SIGN = +1; other nu serve the
residue-calculus checks.

Residues are evaluated by a closed three-factor Leibniz expansion (never by
numerical differentiation); an independent small-circle quadrature oracle
in the test suite validates them.

The formula is evaluated over arrays: one pass computes A, B and Per for
every datum of a spectrum at one X, with loops only over the derivative
orders (at most nu each) and the train index.  Each datum's value depends
on that datum alone, and ``spectral_side_eval``'s total is their correctly
rounded sum (``math.fsum`` per part).  ``residue_pair`` and ``per_term``
are the same code applied to one datum; each computes only its own part
(the residues, or the pole train), with the array pass's bits.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, PoleCollisionError
from .freespace import NU, RHO_NORM
from .perron import SmoothingParams, kernel_denominator, panel_width
from .quadrature import LineIntegral, fsum_complex, vertical_line_integral

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


def _check_collisions(z: np.ndarray, params: SmoothingParams) -> None:
    """Refuse the first z_xi, in array order, that sits on another pole of phi."""
    ell = params.ell
    mth = params.theta * np.arange(1, ell + 1)
    # Both (z - z_xi) and (z + z_xi) matter: collision whenever z_xi is
    # within tolerance of 0 (the two residue points meet) or of +/- m theta.
    near = np.abs(z[:, None] - np.concatenate(([0.0], mth, -mth))) < POLE_TOL
    bad = near.any(axis=1)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    z_xi = complex(z[k])
    if near[k, 0]:
        raise PoleCollisionError(
            f"z_xi = {z_xi}: the two residue points +/- z_xi collide at 0"
        )
    m = int(np.argmax(near[k, 1 : ell + 1] | near[k, ell + 1 :])) + 1
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


# Complex products, powers and quotients over arrays, spelled out in real
# arithmetic as Python's complex type computes them (CPython's c_prod, c_powu
# and c_quot).  numpy's own complex multiply fuses multiply-adds where the CPU
# has them and its divide multiplies by a reciprocal; A + B + Per cancels by
# up to four digits, which magnifies one such rounding to ~1e-12 relative.


def _pack(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = re.astype(complex)
    out.imag = im
    return out


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _pack(ar * br - ai * bi, ar * bi + ai * br)


def _cpow(x: np.ndarray, n: int) -> np.ndarray:
    """x**n for an integer n >= 1, by Python's square-and-multiply."""
    r = np.ones_like(x)
    while True:
        if n & 1:
            r = _cmul(r, x)
        n >>= 1
        if not n:
            return r
        x = _cmul(x, x)


def _cdiv(a, b) -> np.ndarray:
    """a / b by Smith's algorithm, dividing by the scaled denominator; b != 0."""
    a = np.asarray(a, dtype=complex)
    if isinstance(b, float) and b > 0.0:
        # the scalar b + 0i takes the first branch with ratio 0 and denominator b
        return _pack((a.real + a.imag * 0.0) / b, (a.imag - a.real * 0.0) / b)
    b = np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    ratio = small / big
    denom = big + small * ratio
    return _pack(
        np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
        np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom,
    )


def _kernel_exponent(nu) -> int:
    """nu as an int: a positive integer, or an integral float such as 2.0."""
    if nu < 1 or int(nu) != nu:
        raise InputError(f"kernel exponent nu must be a positive integer, got {nu}")
    return int(nu)


def _datum_terms(
    z: np.ndarray, X: float, params: SmoothingParams, nu: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, B and Per (module docstring) for every z_xi of a 1-D complex array.

    Every z_xi is checked for collisions before any value is computed.
    """
    nu = _kernel_exponent(nu)
    _check_collisions(z, params)
    AB = _full_residues(np.concatenate([z, -z]), X, params, nu)  # A and B in one pass
    return AB[: z.size], AB[z.size :], _pole_train(z, X, params, nu)


def _full_residues(at: np.ndarray, X: float, params: SmoothingParams, nu: int) -> np.ndarray:
    """Residue of (z + at)^{-nu} e^{zX} / q(z) at z = at, for every entry of
    ``at``, where (z - at)^{nu} has been stripped: (1/(nu-1)!) d^{nu-1} at
    ``at``, by the closed three-factor Leibniz rule with explicit derivatives

        d^i (z + s)^{-nu} = (-1)^i (nu)_i (z + s)^{-nu-i}
        d^j e^{zX}        = X^j e^{zX}
        d^k (1/q)         = sum_m w_m (-1)^k k! (z + m theta)^{-k-1}

    Each derivative order is one row of a stacked array, and so is each
    Leibniz term (i, j, k = nu-1-i-j); the entries and the train index m are
    array axes.  The terms are added in the order of the nested (i, j) loop.
    """
    n = nu - 1
    mth, train_coef, signed_poch, coef, (i, j, k) = _leibniz_constants(params, nu)
    gap = at + at  # at minus the other pole -at
    shifted = at[:, None] + mth
    # numpy's complex power, not _cpow: reports rest on its rounding
    f3 = np.add.reduce(
        train_coef * np.stack([shifted ** (-(d + 1.0)) for d in range(n + 1)]), axis=-1
    )
    f2 = np.array([[X**d] for d in range(n + 1)]) * np.exp(at * X)
    f1 = signed_poch * _cdiv(1.0, np.stack([_cpow(gap, nu + d) for d in range(n + 1)]))
    terms = _cmul(_cmul(coef * f1[i], f2[j]), f3[k])
    total = np.zeros_like(at)
    for term in terms:
        total += term
    return _cdiv(total, float(math.factorial(n)))


@functools.lru_cache(maxsize=None)
def _leibniz_constants(params: SmoothingParams, nu: int):
    """The data-free factors of :func:`_full_residues` for one (params, nu):
    the train m theta, w_m (-1)^k k! per order k, (-1)^i (nu)_i per order i,
    and each Leibniz term's multinomial coefficient and orders (i, j, k).
    Per-order and per-term factors are rows, broadcasting over the data."""
    n = nu - 1
    mth = params.theta * np.arange(1, params.ell + 1)
    wm = _train_weights(params)
    train_coef = np.array([wm * (-1.0) ** d * math.factorial(d) for d in range(n + 1)])[:, None]
    # (nu)_i = nu (nu + 1) ... (nu + i - 1), the Pochhammer symbol
    signed_poch = np.array([[(-1.0) ** d * math.prod(range(nu, nu + d))] for d in range(n + 1)])
    orders = [(i, j, n - i - j) for i in range(n + 1) for j in range(n - i + 1)]
    coef = np.array([
        [math.factorial(n) / (math.factorial(i) * math.factorial(j) * math.factorial(k))]
        for i, j, k in orders
    ])
    return mth, train_coef, signed_poch, coef, np.array(orders).T


def _pole_train(z: np.ndarray, X: float, params: SmoothingParams, nu: int) -> np.ndarray:
    """Per as displayed: term m is (-1)^(m-1) e^{-m theta X} over
    (m-1)! (ell-m)! (z_xi^2 - m^2 theta^2)^nu, summed over m."""
    ell, theta = params.ell, params.theta
    mth = theta * np.arange(1, ell + 1)
    ms = range(1, ell + 1)
    decay = np.array([(-1.0) ** (m - 1) * cmath.exp(-m * theta * X) for m in ms])
    facts = np.array([math.factorial(m - 1) * math.factorial(ell - m) for m in ms], dtype=float)
    zc = z[:, None]
    den = facts * _cpow(_cmul(zc, zc) - mth**2, nu)
    terms = _cdiv(decay, den)
    rows = [complex(math.fsum(re), math.fsum(im))
            for re, im in zip(terms.real.tolist(), terms.imag.tolist())]
    return _cdiv(np.array(rows, dtype=complex), float(theta ** (ell - 1)))


def residue_pair(
    z_xi: complex,
    X: float,
    params: SmoothingParams,
    nu: int = NU,
) -> tuple[complex, complex]:
    """Full residues (A, B) of phi at z = +z_xi and z = -z_xi (see
    ``_full_residues`` for the closed form)."""
    nu = _kernel_exponent(nu)
    z = complex(z_xi)
    _check_collisions(np.array([z]), params)
    A, B = _full_residues(np.array([z, -z]), X, params, nu)
    return complex(A), complex(B)


def per_term(
    z_xi: complex,
    X: float,
    params: SmoothingParams,
    nu: int = NU,
) -> complex:
    """Pole-train term, exactly as displayed (see module docstring).

    Matches the residue sum of phi over the kernel poles -theta..-ell theta
    when nu is even (the model case); for odd nu the displayed denominator
    (z_xi^2 - m^2 theta^2)^nu differs from the residue sum by a global sign.
    """
    nu = _kernel_exponent(nu)
    z = np.array([complex(z_xi)])
    _check_collisions(z, params)
    return complex(_pole_train(z, X, params, nu)[0])


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
    nu: int = NU,
) -> SpectralValue:
    """Sum of datum contributions w (A + B [+ Per]) at count parameter X.

    The constant datum (lambda = 0) omits Per.  Every datum's contribution
    comes from one array evaluation over the whole spectrum; the total is
    their correctly rounded sum.
    """
    if X <= 0:
        raise InputError(f"count parameter X must be > 0, got {X}")
    nu = _kernel_exponent(nu)
    data = spectrum.data
    z = np.array([d.z for d in data], dtype=complex)
    w = np.array([d.weight for d in data], dtype=float)
    const = np.array([d.is_constant() for d in data], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        A, B, per = _datum_terms(z, X, params, nu)
        pair = A + B
        contrib = w * np.where(const, pair, pair + per)
    finite = np.isfinite(contrib)
    if not finite.all():
        d = data[int(np.argmin(finite))]
        raise InputError(
            f"datum {d.label!r} (z_xi = {d.z}) overflows at X = {X}: "
            "its contribution is not a finite number"
        )
    values = contrib.tolist()
    return SpectralValue(
        total=fsum_complex(values),
        per_datum=tuple(zip((d.label for d in data), values)),
        nu=nu,
        sign=convention_sign(nu),
        constant_labels=tuple(d.label for d, c in zip(data, const) if c),
    )


def global_contour_oracle(
    spectrum: Spectrum,
    X: float,
    params: SmoothingParams,
    nu: int = NU,
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
    nu = _kernel_exponent(nu)
    zs = [d.z for d in spectrum]
    if sigma is None:
        sigma = max((abs(z.real) for z in zs), default=0.0) + 1.5
    ws = np.array([d.weight for d in spectrum])
    zarr = np.array(zs)

    def integrand(zc, dz):
        z = zc[:, None] + dz
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
