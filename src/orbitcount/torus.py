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

The geometric side is one box sum: the kernel over the least box
|m|_inf <= M whose certified tail is at most the Fourier side's.

At n = 1 the Fourier side is Ewald's split (Ewald, Ann. Phys. 1921).  With
a_k = 4 pi^2 k^2 + kappa^2, write a^{-nu} = Gamma(nu)^{-1} int_0^inf
t^{nu-1} e^{-t a} dt and split it at t0 = 1/(4 pi).  The part above t0
stays a Fourier sum; below t0, Jacobi's theta identity (Poisson summation
of the Gaussian) turns it into a sum over images:

    S(x) = sum_k cos(2 pi k x) Q_nu(y_k) / a_k^nu  +  sum_m R_nu(|x + m|),

    y_k = t0 a_k,  Q_1(y) = e^{-y},  Q_2(y) = (1 + y) e^{-y},
    R_nu(r) = (4 pi)^{-1/2} Gamma(nu)^{-1} int_0^t0 t^{nu-3/2} e^{-kappa^2 t - r^2/(4t)} dt.

With s = r / (2 sqrt(t0)) = sqrt(pi) r, q = kappa sqrt(t0),
A = e^{-kappa r} erfc(s - q), B = e^{kappa r} erfc(s + q) and
G = e^{-s^2 - q^2}, the real-space integrals are

    R_1 = (A - B) / (4 kappa),
    R_2 = [(1 + kappa r) A - (1 - kappa r) B] / (8 kappa^3) - G / (4 pi kappa^2),

and as t0 -> inf they tend to the kernels e^{-kappa r}/(2 kappa) and
(1 + kappa r) e^{-kappa r}/(4 kappa^3).  B is 0 where erfc(s + q)
underflows; where it is positive, s + q < 27.3 and (s + q)^2 >= 2 kappa r
keep e^{kappa r} below e^{373}.  8 kappa^3 is taken as 8 kappa times
kappa^2, as it overflows where 4 kappa^3 does not.  Both sums run over
|k|, |m| <= L = 6, the Fourier one folded to 0 <= k <= L with weight 2 for
k > 0, one math.erfc call per term (numpy has no erfc).

Its error bound is the sum of three parts:

* the Gaussian tails.  For k >= 1, y_k >= pi gives Q_nu(y_k) / a_k^nu <=
  e^{-y_k} / (4 pi^2); for t <= t0, e^{-kappa^2 t - r^2/(4t)} <=
  e^{-max(kappa r, pi r^2)}, so R_1 is at most that over 2 pi and R_2 over
  24 pi^2.  The omitted frequencies |k| >= L + 1 and images r >= h = L + 1/2
  come in pairs, each pair at most e^{-pi h} times the one before (for the
  images as max(kappa r, pi r^2) is convex with slope at least
  max(kappa, pi r)), so together they are at most
  [e^{-q^2 - pi (L+1)^2} + e^{-max(kappa h, pi h^2)}] / (pi (1 - e^{-pi h})).
* rounding, eps = 2^-52 times a sum of magnitudes, assuming libm's exp and
  cos within 1 ulp and erfc within 8 ulps (tests/test_certificates.py holds
  the bound against 40-digit values).  A Fourier term t is off by
  eps t (32 + 4 y + 4 pi k): y is off by 2 eps y, which moves e^{-y} by
  that much relative, and the cosine's argument by pi k eps.  In an image,
  A and B are off by eps (32 + 4 kappa r) relative, the kappa r part being
  the argument rounding of e^{-kappa r} and e^{kappa r}; the arguments
  s -+ q are off by at most 2.25 u (s + q) (u = eps/2), which moves A and B
  each by at most 2.6 u (s + q) G absolute, as
  e^{-kappa r - (s - q)^2} = e^{kappa r - (s + q)^2} = G; the bound allows
  32 eps (s + q) G.  G is off by eps (32 + 8 (s^2 + q^2)) relative.  Each
  piece carries its image's weights: 1 + kappa r at nu = 2, and the
  divisor 4 kappa, or 8 kappa and kappa^2.  The 32s cover the other
  roundings, the final sum's included (about 24 eps).  Where erfc(s + q) is subnormal or 0, s + q > 26.5, and
  as s <= sqrt(pi) h < 11.6, q > 15: B <= G / (sqrt(pi) (s + q)) and its
  error (below ulp(0.0) e^{373}) are then far below eps times the nearest
  image's A term, about e^{-kappa/2} / kappa.
* an absolute floor of (14 L + 12) ulp(0.0): the 3 (2 L + 1) image pieces,
  the L + 1 Fourier terms and the two sums are each off by up to 2 ulp(0.0)
  once they underflow, so no bound is 0.

For lambda from -1e-8 to -1e6 and x in [0, 1/2] the bound is 7e-15 to
5e-13 of the value, which is within it of the closed form
cosh(kappa (1/2 - |x|)) / (2 kappa sinh(kappa / 2)) and its
lambda-derivative.

At n = 2 and 3 the Fourier side is a box |k|_inf <= K, fixed by n
(``SPECTRAL_TRUNC``).  The Fourier profile
f(|k|^2) = (4 pi^2 |k|^2 + kappa^2)^{-nu} is even in every k_j, so its box
|k|_inf <= K folds to the octant,

    sum_k e^{2 pi i k.x} f(|k|^2)
        = sum_{k in [0, K]^n} f(|k|^2) prod_j w_{k_j} cos(2 pi k_j x_j),

with w_0 = 1 and w_k = 2, contracted one axis at a time and each axis
summed from k = K down to 0 (small terms first).  The last axis's sum
depends on the others only through m = k_1^2 + ... + k_{n-1}^2, so it is
taken once per distinct m, with f evaluated on m + k_n^2: 301 norms at
n = 2 and 1,446 (of 3,721 pairs) at n = 3.  f and its product with the
last axis's cosines are formed in place in that one (norms, K + 1) array.
These are the box's products summed in the same order, without building
the (K+1)^n box.

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
* spectral, n = 2 and 3: |cos| <= 1 and min |k|_2 on shell s is s, so the
  shell is at most count(s) (4 pi^2 s^2 + kappa^2)^{-nu}.  Shells
  K+1 .. s1 = K+64 are summed and the rest is at most the integral
  c_n s1^{n-2nu} / ((2nu - n) (4 pi^2)^nu), where c_n = 3^n - 1 >=
  count(s)/s^{n-1}.

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

#: per dimension n >= 2, the spectral box |k|_inf <= K
SPECTRAL_TRUNC = {2: 300, 3: 60}
#: at n = 1, the half-width L of both sums of Ewald's split at t0 = 1/(4 pi)
_EWALD_L = 6
#: the most points (2M + 1)^n a geometric box |m|_inf <= M may hold
_BOX_POINTS = 2**21


@dataclass(frozen=True)
class TorusParams:
    """Dimension n (which fixes the Fourier side's rule), kernel power nu, lambda < 0."""

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
    return _box_sum(params, x, M), tail


def _box_sum(params: TorusParams, x: np.ndarray, M: int) -> float:
    """The kernel summed over the box |m|_inf <= M around a folded x."""
    rng = np.arange(-M, M + 1, dtype=float)
    r = np.sqrt(functools.reduce(np.add.outer, [(xj + rng) ** 2 for xj in x])).ravel()
    return float(np.sum(torus_kernel(params, r)))


def _ratio_bound(params: TorusParams, s, count):
    """q(s) of the module docstring, given count(s) (broadcasts over arrays)."""
    n, kappa = params.n, params.kappa
    if params.nu == 1 or n == 3:  # e^{-kappa r} times a constant
        p = 1.0
    elif n == 1:
        p = (1.0 + kappa * (s + 0.5)) / (1.0 + kappa * (s - 0.5))
    else:  # r K_1(kappa r)
        p = (s + 0.5) / (s - 0.5)
    return _shell_count(n, s + 1) / count * math.exp(-kappa) * p


def _box_cap(params: TorusParams) -> int:
    """The largest M whose box holds at most ``_BOX_POINTS`` points, once
    q < 1 on shell M + 1: else no box within it has a tail bound."""
    m_cap = int((_BOX_POINTS ** (1.0 / params.n) - 1.0) // 2.0)
    if not _ratio_bound(params, m_cap + 1, _shell_count(params.n, m_cap + 1)) < 1.0:
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
    count = _shell_count(params.n, s)
    t = count * torus_kernel(params, s - 0.5)
    q = _ratio_bound(params, s, count)
    remainder = np.divide(t * q, 1.0 - q, out=np.full_like(q, math.inf), where=q < 1.0)
    # every t_s is positive, but underflows to 0 at a large kappa: the term
    # and the remainder are off by up to ulp(0.0) absolute, so no bound is 0
    return t + remainder + 3 * math.ulp(0.0)


def _geometric_box(params: TorusParams, target: float,
                   m_cap: int | None = None) -> tuple[int, float]:
    """(M, tail): the least box within the cap whose tail bound (module
    docstring) is at most ``target``, and that bound; ``m_cap`` is
    :func:`_box_cap`'s, computed here unless given."""
    if m_cap is None:
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


def _profile(params: TorusParams, s2):
    """(4 pi^2 s2 + kappa^2)^{-nu}, elementwise.  A float array s2 is
    overwritten with the result, which needs no temporary; a number is not."""
    s2 *= 4.0 * math.pi**2
    s2 += params.kappa**2
    u = np.reciprocal(s2, out=s2) if isinstance(s2, np.ndarray) else 1.0 / s2
    if params.nu == 2:
        u *= u
    return u


def _ewald_side(params: TorusParams, x: float) -> tuple[float, float]:
    """(value, certified error bound) of the n = 1 Fourier sum at a folded x,
    by Ewald's split (module docstring)."""
    nu, kappa, L = params.nu, params.kappa, _EWALD_L
    q, d, scale = kappa / (2.0 * math.sqrt(math.pi)), 2 ** (nu + 1) * kappa, kappa ** (2 * nu - 2)
    value = size = 0.0
    for k in range(L, -1, -1):  # small terms first
        y = math.pi * k * k + q * q  # t0 a_k
        t = (2.0 if k else 1.0) * math.exp(-y) * (1.0 + (nu - 1) * y) * _profile(params, k * k)
        value += t * math.cos(2.0 * math.pi * k * x)
        size += t * (32.0 + 4.0 * y + 4.0 * math.pi * k)
    # each image adds R = [p A - (2 - p) B] / d, less G / (4 pi) at nu = 2, over scale
    for r in (abs(x + m) for m in range(-L, L + 1)):
        kr, s, p = kappa * r, math.sqrt(math.pi) * r, 1.0 + (nu - 1) * kappa * r
        g = math.exp(-(s * s + q * q))
        a = math.exp(-kr) * math.erfc(s - q)
        b = (e := math.erfc(s + q)) and math.exp(kr) * e  # e > 0: kr <= (s + q)^2 / 2
        value += ((p * a - (2.0 - p) * b) / d - (nu - 1) * g / (4.0 * math.pi)) / scale
        size += (p * ((a + b) * (32.0 + 4.0 * kr) + 32.0 * (s + q) * g) / d
                 + (nu - 1) * (32.0 + 8.0 * (s * s + q * q)) * g / (4.0 * math.pi)) / scale
    h = L + 0.5  # each omitted term is at most e^{-pi h} times the one before
    tail = math.exp(-math.pi * (L + 1) ** 2 - q * q) + math.exp(-max(kappa * h, math.pi * h * h))
    return value, (tail / (math.pi * (1.0 - math.exp(-math.pi * h))) + math.ulp(1.0) * size
                   + (14 * L + 12) * math.ulp(0.0))


def torus_spectral_side(params: TorusParams, x) -> tuple[float, float]:
    """(value, certified tail bound) of the Fourier sum at x."""
    x = _folded_point(params, x)
    if params.n == 1:
        return _ewald_side(params, float(x[0]))
    K = SPECTRAL_TRUNC[params.n]

    # the octant identity of the module docstring, one axis at a time, the
    # last once per distinct partial norm k_1^2 + ... + k_{n-1}^2
    k = np.arange(K + 1, dtype=float)
    k2 = np.arange(K + 1) ** 2
    weight = np.where(k > 0, 2.0, 1.0)
    cos = [weight * np.cos(2.0 * math.pi * k * xj) for xj in x]
    m = functools.reduce(np.add.outer, [k2] * (params.n - 1), np.zeros((), int))
    mu, inv = np.unique(m, return_inverse=True)
    # one (norms, K + 1) float array: the norms m + k_n^2, then in place
    # their profile and its product with the last axis's cosine row
    box = _profile(params, mu[:, None] + k * k)
    box *= cos.pop()
    rows = box[..., ::-1].sum(-1)
    prof = rows[inv.reshape(m.shape)]  # inv's shape varies with numpy
    for c in cos[::-1]:
        prof = (prof * c)[..., ::-1].sum(-1)
    value = float(prof)

    # shells K+1 .. K+64, then the integral bound (module docstring)
    s = np.arange(K + 1, K + 65, dtype=float)
    tail = float(np.sum(_shell_count(params.n, s) * _profile(params, s * s)))
    tail += (
        (3**params.n - 1) / (4.0 * math.pi**2) ** params.nu
        * (K + 64.0) ** (params.n - 2 * params.nu) / (2 * params.nu - params.n)
    )
    # as in _tail_bounds: each shell and the integral are off by up to
    # ulp(0.0) absolute once they underflow, so no bound is 0
    return value, tail + (s.size + 2) * math.ulp(0.0)


@dataclass(frozen=True)
class TorusComparison:
    x: tuple[float, ...]
    geometric: float
    geometric_tail: float
    spectral: float
    spectral_tail: float
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
    m_cap = _box_cap(params)
    _kernel_constant(params)
    s, s_tail = torus_spectral_side(params, xa)
    _refuse_unless_finite(params, s, s_tail)
    M, g_tail = _geometric_box(params, s_tail, m_cap)
    g = _box_sum(params, _folded_point(params, xa), M)
    budget = g_tail + s_tail + 5e-13 * (1.0 + abs(g) + abs(s))
    _refuse_unless_finite(params, g, g_tail, budget)
    return TorusComparison(
        x=tuple(float(v) for v in xa),
        geometric=g,
        geometric_tail=g_tail,
        spectral=s,
        spectral_tail=s_tail,
        budget=budget,
        discrepancy=abs(g - s),
    )


def _refuse_unless_finite(params: TorusParams, *values: float) -> None:
    # a guard: no (n, nu, lambda) is known to reach it, but no report prints nan
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"lambda = {params.lam:g} is out of range: a side, tail or "
                         f"budget of (n, nu) = ({params.n}, {params.nu}) is not finite")
