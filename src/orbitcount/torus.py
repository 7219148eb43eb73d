"""Flat-torus identity oracle: periodized kernel vs. Fourier resolvent sum.

On the n-torus R^n / Z^n, for lambda < 0 (kappa = sqrt(-lambda)) and kernel
exponent nu, Poisson summation gives the exact identity

    sum_{m in Z^n} k_{n,nu}(|x + m|)  =  sum_{k in Z^n} e^{2 pi i k.x}
                                          / (4 pi^2 |k|^2 - lambda)^nu,

where k_{n,nu} is the free-space kernel of the nu-th resolvent power:

    n = 1: e^{-kappa r}/(2 kappa),          nu = 2: e^{-kappa r}(1 + kappa r)/(4 kappa^3)
    n = 2, nu = 2: r K_1(kappa r)/(4 pi kappa)
    n = 3: e^{-kappa r}/(4 pi r),           nu = 2: e^{-kappa r}/(8 pi kappa)

(each nu = 2 kernel is the lambda-derivative of its nu = 1 kernel).  Both
sides converge absolutely iff 2 nu > n; parameter validation enforces that,
which in particular *refuses* (n, nu) = (2, 1): its Fourier sum diverges
logarithmically and its kernel K_0(kappa r)/(2 pi) is singular on the
lattice.  (3, 1) is refused for the same reason.

Truncation certificates:

* geometric: sup-norm shells s > M contribute at most
  [(2s+1)^n - (2s-1)^n] * k_{n,nu}(s - 1/2) for |x|_inf <= 1/2 (points are
  folded); kernels are positive decreasing.
* spectral: |cos| <= 1 and min |k|_2 on the sup-norm shell s is s, so the
  shell is bounded by the count times (4 pi^2 s^2 + kappa^2)^{-nu}.
* for n = 1 at x = 0 the spectral tail is instead summed by
  Euler-Maclaurin through the f''' term with the closed-form integral,
  remainder <= (2 zeta(4)/(2 pi)^4) |f'''| ~ 0.0014 |f'''|; this is what
  pushes the headline cell to ~1e-13 certified.

The discrepancy budget reported for a comparison is
geom_tail + spec_tail + 5e-13 * (1 + |G| + |S|) (rounding slack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InputError
from .special import bessel_k1

_SPECTRAL_TRUNC_DEFAULT = {1: 20000, 2: 300, 3: 60}
_GEOM_TRUNC_DEFAULT = {1: 40, 2: 25, 3: 18}
_MAX_BOX_POINTS = 300_000_000
_EM_ZETA4_FACTOR = 2.0 * (math.pi**4 / 90.0) / (2.0 * math.pi) ** 4  # ~0.00139


@dataclass(frozen=True)
class TorusParams:
    """Dimension n, kernel power nu, eigenvalue lambda < 0, truncations."""

    n: int
    nu: int
    lam: float
    spectral_trunc: int | None = None
    geom_trunc: int | None = None

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise InputError(f"torus dimension n must be 1, 2, or 3, got {self.n}")
        if self.nu not in (1, 2):
            raise InputError(f"kernel power nu must be 1 or 2, got {self.nu}")
        for name in ("spectral_trunc", "geom_trunc"):
            trunc = getattr(self, name)
            if trunc is not None and trunc < 1:
                raise InputError(f"{name} must be >= 1, got {trunc}")
        if not (self.lam < 0):
            raise InputError(f"lambda must be negative (below spectrum), got {self.lam}")
        if 2 * self.nu <= self.n:
            raise InputError(
                f"(n, nu) = ({self.n}, {self.nu}) is not absolutely convergent: "
                f"the Fourier side needs 2 nu > n (and the kernel side is "
                f"singular on the lattice); use a larger nu"
            )

    @property
    def kappa(self) -> float:
        return math.sqrt(-self.lam)

    @property
    def k_spec(self) -> int:
        if self.spectral_trunc is None:
            return _SPECTRAL_TRUNC_DEFAULT[self.n]
        return self.spectral_trunc

    @property
    def m_geom(self) -> int:
        if self.geom_trunc is None:
            return _GEOM_TRUNC_DEFAULT[self.n]
        return self.geom_trunc


def torus_kernel(params: TorusParams, r) -> np.ndarray:
    """Free-space kernel k_{n,nu}(r), elementwise, with exact r = 0 limits."""
    k = params.kappa
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise InputError("radius must be >= 0")
    n, nu = params.n, params.nu
    # TorusParams refuses 2 nu <= n: (n, nu) is (1, 1), (1, 2), (2, 2) or (3, 2)
    if nu == 1:
        out = np.exp(-k * r) / (2.0 * k)
    elif n == 1:
        out = np.exp(-k * r) * (1.0 + k * r) / (4.0 * k**3)
    elif n == 2:
        pos = r > 0
        out = np.full_like(r, 1.0 / (4.0 * math.pi * k * k))  # the r = 0 limit
        out[pos] = r[pos] * bessel_k1(k * r[pos]) / (4.0 * math.pi * k)
    else:
        out = np.exp(-k * r) / (8.0 * math.pi * k)
    return float(out[0]) if scalar else out


def _fold(x: np.ndarray) -> np.ndarray:
    """Fold coordinates to [-1/2, 1/2]; the lattice sums are periodic."""
    return x - np.round(x)


def _shell_count(n: int, s: int) -> int:
    return (2 * s + 1) ** n - (2 * s - 1) ** n


def torus_geometric_side(params: TorusParams, x) -> tuple[float, float]:
    """(value, certified tail bound) of the periodized kernel at x."""
    x = _fold(np.atleast_1d(np.asarray(x, dtype=float)))
    if x.shape != (params.n,):
        raise InputError(f"point must have {params.n} coordinates, got {x.shape}")
    M = params.m_geom
    if (2 * M + 1) ** params.n > _MAX_BOX_POINTS:
        raise BudgetError(
            (2 * M + 1) ** params.n, _MAX_BOX_POINTS, "geometric box", "lower --geom-trunc"
        )
    rng = np.arange(-M, M + 1, dtype=float)
    if params.n == 1:
        r = np.abs(x[0] + rng)
    elif params.n == 2:
        g0, g1 = np.meshgrid(rng, rng, indexing="ij")
        r = np.sqrt((x[0] + g0) ** 2 + (x[1] + g1) ** 2).ravel()
    else:
        g0, g1, g2 = np.meshgrid(rng, rng, rng, indexing="ij")
        r = np.sqrt((x[0] + g0) ** 2 + (x[1] + g1) ** 2 + (x[2] + g2) ** 2).ravel()
    value = float(np.sum(torus_kernel(params, r)))

    tail = 0.0
    s = M + 1
    while True:
        term = _shell_count(params.n, s) * float(torus_kernel(params, s - 0.5))
        tail += term
        if term < 1e-22 * max(abs(value), 1e-30) or term == 0.0:
            break
        s += 1
        if s > M + 200000:
            raise InputError("geometric tail failed to close; increase geom_trunc")
    return value, tail


def _spectral_f(params: TorusParams, t: np.ndarray) -> np.ndarray:
    """f(t) = 2 (4 pi^2 t^2 + kappa^2)^{-nu}: the two-sided term profile."""
    return 2.0 * (4.0 * math.pi**2 * t * t + params.kappa**2) ** (-params.nu)


def _spectral_fprime(params: TorusParams, t: float) -> float:
    nu, k2 = params.nu, params.kappa**2
    u = 4.0 * math.pi**2 * t * t + k2
    return -16.0 * nu * math.pi**2 * t * u ** (-nu - 1.0)


def _spectral_f3(params: TorusParams, t: float) -> float:
    """Third derivative of f; closed form, cross-checked by finite differences."""
    nu, k2 = params.nu, params.kappa**2
    u = 4.0 * math.pi**2 * t * t + k2
    return (
        128.0 * nu * (nu + 1.0) * math.pi**4 * t * u ** (-nu - 3.0)
        * (3.0 * u - 8.0 * (nu + 2.0) * math.pi**2 * t * t)
    )


def _spectral_integral(params: TorusParams, a: float) -> float:
    """Closed form of int_a^inf f(t) dt for nu in {1, 2}."""
    k = params.kappa
    w = 2.0 * math.pi * a
    if params.nu == 1:
        return (math.pi / 2.0 - math.atan(w / k)) / (math.pi * k)
    # nu = 2: 2 * (1/(2 pi)) * [F(inf) - F(w)],
    # F(u) = u/(2 k^2 (u^2 + k^2)) + atan(u/k)/(2 k^3)
    f_at = w / (2.0 * k * k * (w * w + k * k)) + math.atan(w / k) / (2.0 * k**3)
    f_inf = math.pi / (4.0 * k**3)
    return (f_inf - f_at) / math.pi


def torus_spectral_side(params: TorusParams, x) -> tuple[float, float, bool]:
    """(value, certified tail bound, accelerated?) of the Fourier sum at x."""
    x = _fold(np.atleast_1d(np.asarray(x, dtype=float)))
    if x.shape != (params.n,):
        raise InputError(f"point must have {params.n} coordinates, got {x.shape}")
    K = params.k_spec
    if (2 * K + 1) ** params.n > _MAX_BOX_POINTS:
        raise BudgetError(
            (2 * K + 1) ** params.n, _MAX_BOX_POINTS, "spectral box", "lower --spectral-trunc"
        )
    kappa2 = params.kappa**2
    four_pi2 = 4.0 * math.pi**2
    rng = np.arange(-K, K + 1, dtype=float)

    at_zero = bool(np.all(np.abs(x) < 1e-15))
    if params.n == 1:
        den = (four_pi2 * rng * rng + kappa2) ** params.nu
        value = float(np.sum(np.cos(2.0 * math.pi * rng * x[0]) / den))
    elif params.n == 2:
        g0, g1 = np.meshgrid(rng, rng, indexing="ij")
        den = (four_pi2 * (g0 * g0 + g1 * g1) + kappa2) ** params.nu
        value = float(np.sum(np.cos(2.0 * math.pi * (g0 * x[0] + g1 * x[1])) / den))
    else:
        # chunk over the third axis to keep memory flat
        g0, g1 = np.meshgrid(rng, rng, indexing="ij")
        base = g0 * g0 + g1 * g1
        phase = g0 * x[0] + g1 * x[1]
        acc = 0.0
        for k3 in rng:
            den = (four_pi2 * (base + k3 * k3) + kappa2) ** params.nu
            acc += float(np.sum(np.cos(2.0 * math.pi * (phase + k3 * x[2])) / den))
        value = acc

    if params.n == 1 and at_zero:
        # Euler-Maclaurin acceleration of the exact (positive) tail.
        a = float(K + 1)
        em = (
            _spectral_integral(params, a)
            + 0.5 * float(_spectral_f(params, np.asarray(a)))
            - _spectral_fprime(params, a) / 12.0
            + _spectral_f3(params, a) / 720.0
        )
        value += em
        tail = _EM_ZETA4_FACTOR * abs(_spectral_f3(params, a)) + 1e-16 * abs(value)
        return value, tail, True

    # Shell bound: |cos| <= 1, min |k|_2 on sup-norm shell s is s.  Sum 64
    # shells explicitly, then close with the integral bound
    # sum_{s > s1} c_n s^{n-1-2nu} <= c_n s1^{n-2nu}/(2nu - n), where
    # c_n in {2, 8, 26} dominates the shell count.
    tail = 0.0
    for s in range(K + 1, K + 65):
        tail += _shell_count(params.n, s) * (four_pi2 * s * s + kappa2) ** (-params.nu)
    c_n = {1: 2.0, 2: 8.0, 3: 26.0}[params.n]
    s1 = float(K + 64)
    tail += (
        c_n / four_pi2**params.nu * s1 ** (params.n - 2 * params.nu)
        / (2 * params.nu - params.n)
    )
    return value, tail, False


@dataclass(frozen=True)
class TorusComparison:
    x: tuple[float, ...]
    geometric: float
    geometric_tail: float
    spectral: float
    spectral_tail: float
    accelerated: bool
    budget: float
    discrepancy: float

    @property
    def within_budget(self) -> bool:
        return self.discrepancy <= self.budget


def torus_identity_check(params: TorusParams, x) -> TorusComparison:
    """Evaluate both sides at x and package the certified comparison."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    g, g_tail = torus_geometric_side(params, xa)
    s, s_tail, accel = torus_spectral_side(params, xa)
    budget = g_tail + s_tail + 5e-13 * (1.0 + abs(g) + abs(s))
    return TorusComparison(
        x=tuple(float(v) for v in xa),
        geometric=g,
        geometric_tail=g_tail,
        spectral=s,
        spectral_tail=s_tail,
        accelerated=accel,
        budget=budget,
        discrepancy=abs(g - s),
    )
