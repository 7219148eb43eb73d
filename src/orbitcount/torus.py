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

Each side is one n-dimensional box sum.  The Fourier box K is fixed by n
(``SPECTRAL_TRUNC``).  The geometric side sums the kernel over the least
box |m|_inf <= M whose certified tail is at most the Fourier side's: the
precision floor that the fixed K sets.  The Fourier profile
f(|k|^2) = (4 pi^2 |k|^2 + kappa^2)^{-nu} is even in every k_j, so its box
|k|_inf <= K folds to the octant,

    sum_k e^{2 pi i k.x} f(|k|^2)
        = sum_{k in [0, K]^n} f(|k|^2) prod_j w_{k_j} cos(2 pi k_j x_j),

with w_0 = 1 and w_k = 2, contracted one axis at a time and each axis
summed from k = K down to 0 (small terms first).  For n = 3 the last
axis's sum depends on (k_1, k_2) only through m = k_1^2 + k_2^2, so it is
taken once per distinct m (1,446 of the 3,721 pairs at K = 60), with f
tabulated over the integers |k|^2 <= 3 K^2: the same products summed in
the same order, without the (K+1)^3 box.

Truncation certificates, with count(s) = (2s+1)^n - (2s-1)^n points on the
sup-norm shell s:

* geometric: for |x|_inf <= 1/2 (points are folded) shell s > M is at most
  t_s = count(s) k_{n,nu}(s - 1/2), as the kernels are positive and
  decreasing.  t_{s+1}/t_s <= q(s) = [count(s+1)/count(s)] e^{-kappa} p(s),
  with p = 1 for the e^{-kappa r} kernels, (1 + kappa(s+1/2))/(1 +
  kappa(s-1/2)) for (1, 2) and (s+1/2)/(s-1/2) for (2, 2), since e^x K_1(x)
  decreases.  Each factor is nonincreasing in s, so the tail is at most
  b(M) = t_{M+1} + t_{M+1} q(M+1)/(1 - q(M+1)) where q(M+1) < 1 (else
  b(M) = inf).  Once finite, b never rises:
  b(M+1)/b(M) <= q(M+1)(1 - q(M+1))/(1 - q(M+2)) <= q(M+1) < 1.  So the
  least M that meets the target lies in the one bracket where the grid
  M = 0, 1, 3, 7, ... first meets it: two array passes.  A box holds at
  most 2^21 points (M <= 1,048,575, 723 and 63 for n = 1, 2, 3); a lambda
  so close to 0 that its box would pass the cap is refused before any box
  is built.
* spectral: |cos| <= 1 and min |k|_2 on shell s is s, so the shell is at
  most count(s) (4 pi^2 s^2 + kappa^2)^{-nu}.  Shells K+1 .. s1 = K+64 are
  summed and the rest is at most the integral c_n s1^{n-2nu} /
  ((2nu - n) (4 pi^2)^nu), where c_n = 3^n - 1 >= count(s)/s^{n-1}.
* for n = 1 at x = 0 exactly the spectral tail is instead summed by
  Euler-Maclaurin through the f''' term with the closed-form integral,
  remainder <= (2 zeta(4)/(2 pi)^4) |f'''| ~ 0.0014 |f'''|; this is what
  pushes the headline cell to ~1e-13 certified.

The discrepancy budget reported for a comparison is
geom_tail + spec_tail + 5e-13 * (1 + |G| + |S|) (rounding slack).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .special import bessel_k1

#: per dimension n, the spectral box |k|_inf <= K
SPECTRAL_TRUNC = {1: 20000, 2: 300, 3: 60}
#: the most points (2M + 1)^n a geometric box |m|_inf <= M may hold
_BOX_POINTS = 2**21
_EM_ZETA4_FACTOR = 2.0 * (math.pi**4 / 90.0) / (2.0 * math.pi) ** 4  # ~0.00139


@dataclass(frozen=True)
class TorusParams:
    """Dimension n (which fixes the Fourier box), kernel power nu, lambda < 0."""

    n: int
    nu: int
    lam: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise InputError(f"torus dimension n must be 1, 2, or 3, got {self.n}")
        if self.nu not in (1, 2):
            raise InputError(f"kernel power nu must be 1 or 2, got {self.nu}")
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


def _kernel_constant(params: TorusParams) -> float:
    """The kernel is e^{-kappa r} (or r K_1) over this constant, and for
    n = 2 its r = 0 limit is 1 / (4 pi kappa^2); refused past the float range."""
    k, n, nu = params.kappa, params.n, params.nu
    # TorusParams refuses 2 nu <= n: (n, nu) is (1, 1), (1, 2), (2, 2) or (3, 2)
    const = {(1, 1): 2.0 * k, (1, 2): 4.0 * k * k * k,
             (2, 2): 4.0 * math.pi * k * k, (3, 2): 8.0 * math.pi * k}[n, nu]
    if not const < math.inf:
        raise InputError(f"lambda = {params.lam:g} is out of range: the kernel "
                         f"constant of (n, nu) = ({n}, {nu}) overflows")
    return const


def torus_kernel(params: TorusParams, r) -> np.ndarray:
    """Free-space kernel k_{n,nu}(r), elementwise, with exact r = 0 limits."""
    k, n, nu = params.kappa, params.n, params.nu
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InputError("radius must be >= 0")
    const = _kernel_constant(params)
    # A kappa so small that the kernel overflows (4 kappa^3 underflows to 0
    # below |lambda| of about 1e-216) makes it inf, and the geometric tail
    # then refuses lambda as too close to 0.
    with np.errstate(divide="ignore", over="ignore"):
        if nu == 1 or n == 3:
            out = np.exp(-k * r) / const
        elif n == 1:
            out = np.exp(-k * r) * (1.0 + k * r) / const
        else:
            pos = r > 0
            out = np.full_like(r, 1.0 / const)
            out[pos] = r[pos] * bessel_k1(k * r[pos]) / (4.0 * math.pi * k)
    return out


def _folded_point(params: TorusParams, x) -> np.ndarray:
    """x folded to [-1/2, 1/2]^n, as both sides are periodic, once its shape
    is checked."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (params.n,):
        raise InputError(f"point must have {params.n} coordinates, got {x.shape}")
    return x - np.round(x)


def _shell_count(n: int, s):
    """Points of Z^n on the sup-norm shell s >= 1 (broadcasts over arrays)."""
    return (2 * s + 1) ** n - (2 * s - 1) ** n


def torus_geometric_side(params: TorusParams, x, target: float) -> tuple[float, float]:
    """(value, certified tail bound) of the periodized kernel at x, summed
    over the least box whose tail bound is at most ``target``."""
    if not 0.0 < target < math.inf:
        raise InputError(f"geometric tail target must be finite and > 0, got {target}")
    x = _folded_point(params, x)
    M, tail = _geometric_box(params, target)
    rng = np.arange(-M, M + 1, dtype=float)
    r = np.sqrt(functools.reduce(np.add.outer, [(xj + rng) ** 2 for xj in x])).ravel()
    return float(np.sum(torus_kernel(params, r))), tail


def _ratio_bound(params: TorusParams, s):
    """q(s) of the module docstring (broadcasts over arrays)."""
    n, kappa = params.n, params.kappa
    if params.nu == 1 or n == 3:  # e^{-kappa r} times a constant
        p = 1.0
    elif n == 1:
        p = (1.0 + kappa * (s + 0.5)) / (1.0 + kappa * (s - 0.5))
    else:  # r K_1(kappa r)
        p = (s + 0.5) / (s - 0.5)
    return _shell_count(n, s + 1) / _shell_count(n, s) * math.exp(-kappa) * p


def _box_cap(params: TorusParams) -> int:
    """The largest M whose box holds at most ``_BOX_POINTS`` points, once
    q < 1 on shell M + 1: else no box within it has a tail bound."""
    m_cap = int((_BOX_POINTS ** (1.0 / params.n) - 1.0) // 2.0)
    if not _ratio_bound(params, m_cap + 1) < 1.0:
        raise _too_close(params, m_cap)
    return m_cap


def _too_close(params: TorusParams, m_cap: int) -> InputError:
    return InputError(
        f"lambda = {params.lam:g} is too close to 0: its geometric tail needs a "
        f"box past |m|_inf <= {m_cap}, the largest of at most {_BOX_POINTS} points"
    )


def _tail_bounds(params: TorusParams, M) -> np.ndarray:
    """b(M) of the module docstring for each box M of an integer array."""
    s = M + 1
    t = _shell_count(params.n, s) * torus_kernel(params, s - 0.5)
    q = _ratio_bound(params, s)
    remainder = np.divide(t * q, 1.0 - q, out=np.full_like(q, math.inf), where=q < 1.0)
    # every t_s is positive, but underflows to 0 at a large kappa: the term
    # and the remainder are off by up to ulp(0.0) absolute, so no bound is 0
    return t + remainder + 3 * math.ulp(0.0)


def _geometric_box(params: TorusParams, target: float) -> tuple[int, float]:
    """(M, tail): the least box within the cap whose tail bound (module
    docstring) is at most ``target``, and that bound."""
    m_cap = _box_cap(params)
    # b never rises once finite: the first of M = 0, 1, 3, 7, ..., m_cap
    # that meets the target closes the one bracket that holds the least M
    grid = np.minimum(2 ** np.arange(m_cap.bit_length() + 1) - 1, m_cap)
    j = int(np.argmax(_tail_bounds(params, grid) <= target))
    M = np.arange(grid[j - 1] + 1 if j else 0, grid[j] + 1)
    tails = _tail_bounds(params, M)
    i = int(np.argmax(tails <= target))
    if not tails[i] <= target:
        raise _too_close(params, m_cap)
    return int(M[i]), float(tails[i])


def _euler_maclaurin_tail(params: TorusParams, a: float) -> tuple[float, float]:
    """Euler-Maclaurin sum over t >= a of the two-sided term profile
    f(t) = 2 (4 pi^2 t^2 + kappa^2)^{-nu} through f''', and its remainder
    bound; the integral, f' and f''' are closed forms (nu in {1, 2})."""
    nu, k = params.nu, params.kappa
    u = 4.0 * math.pi**2 * a * a + k**2
    f1 = -16.0 * nu * math.pi**2 * a * u ** (-nu - 1.0)
    f3 = (
        128.0 * nu * (nu + 1.0) * math.pi**4 * a * u ** (-nu - 3.0)
        * (3.0 * u - 8.0 * (nu + 2.0) * math.pi**2 * a * a)
    )
    w = 2.0 * math.pi * a
    if nu == 1:
        integral = (math.pi / 2.0 - math.atan(w / k)) / (math.pi * k)
    else:
        # 2 * (1/(2 pi)) * [F(inf) - F(w)],
        # F(u) = u/(2 k^2 (u^2 + k^2)) + atan(u/k)/(2 k^3)
        k3 = k * k * k  # inf, not OverflowError, past the float range
        f_at = w / (2.0 * k * k * (w * w + k * k)) + math.atan(w / k) / (2.0 * k3)
        integral = (math.pi / (4.0 * k3) - f_at) / math.pi
    em = integral + u ** (-nu) - f1 / 12.0 + f3 / 720.0  # u^-nu = f(a) / 2
    return em, _EM_ZETA4_FACTOR * abs(f3)


def torus_spectral_side(params: TorusParams, x) -> tuple[float, float, bool]:
    """(value, certified tail bound, accelerated?) of the Fourier sum at x."""
    K = SPECTRAL_TRUNC[params.n]
    x = _folded_point(params, x)
    kappa2 = params.kappa**2
    four_pi2 = 4.0 * math.pi**2

    # the octant identity of the module docstring, one axis at a time
    k = np.arange(K + 1, dtype=float)
    k2 = np.arange(K + 1) ** 2
    weight = np.where(k > 0, 2.0, 1.0)
    cos = [weight * np.cos(2.0 * math.pi * k * xj) for xj in x]
    if params.n == 3:
        # one last-axis sum per distinct k_1^2 + k_2^2 (module docstring)
        table = (four_pi2 * np.arange(3 * K * K + 1) + kappa2) ** -params.nu
        m = np.add.outer(k2, k2)
        mu, inv = np.unique(m, return_inverse=True)
        rows = (table[mu[:, None] + k2] * cos.pop())[..., ::-1].sum(-1)
        prof = rows[inv.reshape(m.shape)]  # inv's shape varies with numpy
    else:
        norms = functools.reduce(np.add.outer, [k2] * params.n)
        prof = (four_pi2 * norms + kappa2) ** -params.nu
    for c in cos[::-1]:
        prof = (prof * c)[..., ::-1].sum(-1)
    value = float(prof)

    if params.n == 1 and not x.any():
        # Euler-Maclaurin acceleration of the exact (positive) tail.
        em, remainder = _euler_maclaurin_tail(params, float(K + 1))
        value += em
        # |f'''| and the value underflow at a large kappa: the four pieces
        # of em, the remainder and the slack are each off by up to ulp(0.0)
        # absolute, so no bound is 0
        return value, remainder + 1e-16 * abs(value) + (4 + 2) * math.ulp(0.0), True

    # shells K+1 .. K+64, then the integral bound (module docstring)
    s = np.arange(K + 1, K + 65, dtype=float)
    tail = float(np.sum(_shell_count(params.n, s) * (four_pi2 * s * s + kappa2) ** (-params.nu)))
    tail += (
        (3**params.n - 1) / four_pi2**params.nu * (K + 64.0) ** (params.n - 2 * params.nu)
        / (2 * params.nu - params.n)
    )
    # as in _tail_bounds: each shell and the integral are off by up to
    # ulp(0.0) absolute once they underflow, so no bound is 0
    return value, tail + (s.size + 2) * math.ulp(0.0), False


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
    """Evaluate both sides at x and package the certified comparison; the
    geometric box is the least whose tail is at most the spectral tail."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    # the refusals that need no box come first: a lambda too close to 0
    # (where the spectral profile overflows) and a kernel constant past the
    # float range
    _box_cap(params)
    _kernel_constant(params)
    s, s_tail, accel = torus_spectral_side(params, xa)
    _refuse_unless_finite(params, s, s_tail)
    g, g_tail = torus_geometric_side(params, xa, s_tail)
    budget = g_tail + s_tail + 5e-13 * (1.0 + abs(g) + abs(s))
    _refuse_unless_finite(params, g, g_tail, budget)
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


def _refuse_unless_finite(params: TorusParams, *values: float) -> None:
    # e.g. 3u overflows while u^{-4} underflows in the Euler-Maclaurin f'''
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"lambda = {params.lam:g} is out of range: a side, tail or "
                         f"budget of (n, nu) = ({params.n}, {params.nu}) is not finite")
