"""Modified Bessel function K_1 of real positive argument.

This is the radial kernel primitive of the flat torus oracle in dimension
n = 2 (:mod:`orbitcount.torus`), implemented here from scratch rather than
delegated:

* ``x <= K1_CROSSOVER``: the ascending series
  (DLMF 10.31.2 / A&S 9.6.11 shape), q = x^2/4,

      K_1(x) = 1/x + log(x/2) (x/2) P(q) - (x/4) S(q),
      P(q) = sum_k a_k q^k,   S(q) = sum_k h_k a_k q^k,
      a_k = 1/(k! (k+1)!),    h_k = psi(k+1) + psi(k+2),

  both cut at the fixed degree 16 and evaluated by Horner's rule in q.
  The pairs (a_k, h_k a_k) are built once at import, h_k by the harmonic
  recursion h_0 = 1 - 2 gamma, h_k = h_{k-1} + 1/k + 1/(k+1).  At the
  crossover (q = 1.8225) the first dropped terms, k = 17, move K_1 by
  7.2e-25 relative (the whole dropped tail likewise).  The log and 1/x
  terms cancel against the sums only mildly on this range (worst near the
  crossover, losing < 2 digits): against 30-digit mpmath at the float x,
  the test suite's 1,002 points of (0, 2.7], 2.7 and its lower neighbour
  included, read at most 6.0e-15 relative.  Where 1/x overflows (x below
  about 5.6e-309) a lane is +inf and skips the sums.

* ``x > K1_CROSSOVER``: K_1(x) = g(u) e^{-x} / sqrt(x) with u = 2.7/x in
  (0, 1], where g = sqrt(x) e^x K_1(x) >= sqrt(pi/2) is smooth in u.  g is
  the 22-term Chebyshev series c_0/2 + sum c_j T_j(2u - 1), evaluated by
  Clenshaw's recurrence (a fixed number of array passes); the dropped
  terms sum to under 2.5e-18.  The table is the 64-node cosine transform
  of g at 40 digits, rounded to doubles (tools/gen_k1_chebyshev.py).
  Past about 745.13, e^{-x} and so the lane are exactly 0.0.

Both branches meet 1e-12 relative against the quadrature oracle of

    K_1(x) = integral_0^infty e^{-x cosh t} cosh(t) dt

on a dense log grid.  K1_CROSSOVER is fixed into _K1_CHEB: the table is
the expansion in u = K1_CROSSOVER / x, so changing the crossover means
rerunning tools/gen_k1_chebyshev.py and pasting its output.

Both branches are fixed-length polynomial evaluations (Horner and
Clenshaw), one array pass over all of their lanes at once, a 0-d input
included, so every lane runs exactly the operations, in the same order,
of a one-point loop, and its value does not depend on the other elements
of the input.  The arithmetic is IEEE +, -, *, / and sqrt (correctly
rounded in numpy as in Python); log(x/2) and e^{-x} are taken per element
with ``math``, since numpy's vectorized log and exp may round differently
in the last bit on some CPUs.  So no bit depends on the CPU.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

EULER_GAMMA = 0.5772156649015328606

#: series/Chebyshev switch point; fixed into _K1_CHEB (module docstring)
K1_CROSSOVER = 2.7


def _series_pairs() -> tuple[tuple[float, float], ...]:
    """(a_k, h_k a_k) for k = 16 .. 0, in Horner's order (module docstring)."""
    pairs, a, h = [], 1.0, 1.0 - 2.0 * EULER_GAMMA  # a_0; psi(1) + psi(2)
    for k in range(17):
        if k:
            a /= k * (k + 1)
            h += 1.0 / k + 1.0 / (k + 1)
        pairs.append((a, h * a))
    return tuple(reversed(pairs))


_SERIES = _series_pairs()


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    return np.array([fn(v) for v in x.tolist()], dtype=float)


def _series(x: np.ndarray) -> np.ndarray:
    """Ascending series on lanes 0 < x <= K1_CROSSOVER: P and S by Horner."""
    q = 0.25 * x * x
    p = s = 0.0
    for a, b in _SERIES:
        p, s = p * q + a, s * q + b
    return 1.0 / x + _per_element(math.log, 0.5 * x) * (0.5 * x * p) - 0.25 * x * s


# c_0 .. c_21 of g(u) = sqrt(x) e^x K_1(x), u = K1_CROSSOVER / x, in
# T_j(2u - 1) (module docstring); c_22 is -1.8e-18
_K1_CHEB = (
    2.6684914436895015, 0.07909504184298946, -0.001731856866666664,
    9.593838798634923e-05, -7.824165884988163e-06, 8.084042622951765e-07,
    -9.867098483570571e-08, 1.366941479721908e-08, -2.0949214757962363e-09,
    3.4893554496930074e-10, -6.235608479105494e-11, 1.1839342607195151e-11,
    -2.37018938634843e-12, 4.972801850592892e-13, -1.0879939549719525e-13,
    2.4721375470188264e-14, -5.813505822130686e-15, 1.4107355069656445e-15,
    -3.5236844208720046e-16, 9.039400585922135e-17, -2.377060036955223e-17,
    6.3968233068418166e-18,
)


def _chebyshev(x: np.ndarray) -> np.ndarray:
    """Clenshaw's recurrence for g on lanes x > K1_CROSSOVER, then
    K_1 = g e^{-x} / sqrt(x)."""
    t = 2.0 * (K1_CROSSOVER / x) - 1.0
    t2 = t + t
    b1 = b2 = 0.0
    for c in _K1_CHEB[:0:-1]:
        b1, b2 = t2 * b1 - b2 + c, b1
    g = t * b1 - b2 + 0.5 * _K1_CHEB[0]
    return g / np.sqrt(x) * _per_element(math.exp, -x)


def bessel_k1(x):
    """K_1(x) for real x > 0, elementwise; the output has the input's shape,
    and a scalar or 0-d input gives a 0-d value (a numpy float).

    One array path: the series lanes (x <= K1_CROSSOVER) and the Chebyshev
    lanes (every larger x) each run together (module docstring), so each
    element is bit for bit what a one-point call gives.  Certified relative
    accuracy 1e-12 on [1e-6, 700] (checked against the quadrature oracle in
    the test suite); +inf where 1/x overflows, below about 5.6e-309, and
    0.0 where e^{-x} underflows, past about 745.13.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InputError("bessel_k1 needs finite x > 0")
    flat = arr.ravel()
    with np.errstate(over="ignore"):
        out = 1.0 / flat  # +inf where K_1 ~ 1/x is past the float range
    series = (flat <= K1_CROSSOVER) & (out < np.inf)
    cheb = flat > K1_CROSSOVER
    out[series] = _series(flat[series])
    out[cheb] = _chebyshev(flat[cheb])
    return out.reshape(arr.shape)[()]
