"""Modified Bessel function K_1 of real positive argument.

This is the radial kernel primitive of the flat torus oracle in dimension
n = 2 (:mod:`orbitcount.torus`), implemented here from scratch rather than
delegated:

* ``x <= K1_CROSSOVER``: the ascending series
  (DLMF 10.31.2 / A&S 9.6.11 shape)

      K_1(x) = 1/x + log(x/2) I_1(x)
               - (x/4) sum_k [psi(k+1) + psi(k+2)] (x^2/4)^k / (k! (k+1)!)

  with the digamma pair built by the harmonic recursion.  The log and 1/x
  terms cancel against the series only mildly on this range (worst case
  ~x = crossover, losing < 2 digits), so doubles deliver ~1e-14 relative.

* ``x > K1_CROSSOVER``: the steed/Lentz-style continued fraction for the
  confluent second solution (the classic CF2 of Temme's algorithm, as used
  by the standard special-function libraries), which yields K_0 and the
  ratio to K_1 simultaneously:

      K_0(x) = sqrt(pi/(2x)) e^{-x} / S,     K_1(x) = K_0(x) (x + 1/2 - h)/x.

The crossover was tuned against the quadrature oracle of

    K_1(x) = integral_0^infty e^{-x cosh t} cosh(t) dt

on a dense log grid; anywhere in [2, 3.5] meets 1e-12 relative, and 2.7
minimized the worst-case disagreement.

Both branches are one array evaluation over all of their lanes at once, a
0-d input included.  A lane that meets its stopping test is frozen with the
values of that iteration.  The series drops it from its working arrays at
once; CF2 keeps iterating it, unread, until at most half of the working
lanes are live, and then drops all the frozen ones, so its nine arrays are
compacted about log2(lanes) times rather than at every iteration.  So every
lane's result comes from exactly the iterations and the operations, in the
same order, of a one-point loop, and its value does not depend on the other
elements of the input.  The
arithmetic is IEEE +, -, *, / (correctly rounded in numpy as in Python);
log(x/2), sqrt(pi/(2x)) and e^{-x} are taken per element with ``math``,
since numpy's vectorized log and exp may round differently in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

EULER_GAMMA = 0.5772156649015328606

#: series/continued-fraction switch point (tuned against the oracle grid)
K1_CROSSOVER = 2.7

#: beyond this, e^{-x} is a hard zero even in denormals
K1_HARD_UNDERFLOW = 746.0

_EPS = 2.2204460492503131e-16
_MAXIT = 20000


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    return np.array([fn(v) for v in x.tolist()], dtype=float)


def _series(x: np.ndarray) -> np.ndarray:
    """Ascending series on lanes 0 < x <= ~3.5."""
    q = 0.25 * x * x
    # I_1 sum and the psi-weighted sum share the term (q^k / (k! (k+1)!));
    # the psi pair h depends on k only, so it is one float for every lane.
    term = np.ones_like(x)
    h = 1.0 - 2.0 * EULER_GAMMA  # psi(1) + psi(2)
    s_i1 = term.copy()
    s_psi = h * term
    sum_i1, sum_psi = np.empty_like(x), np.empty_like(x)
    live = np.arange(x.size)
    for k in range(1, _MAXIT + 2):
        term = term * (q / (k * (k + 1)))
        h += 1.0 / k + 1.0 / (k + 1)
        s_i1 = s_i1 + term
        s_psi = s_psi + h * term
        done = term * max(h, 1.0) < _EPS * (np.abs(s_psi) + np.abs(s_i1))
        sum_i1[live[done]] = s_i1[done]
        sum_psi[live[done]] = s_psi[done]
        keep = ~done
        live, q, term, s_i1, s_psi = live[keep], q[keep], term[keep], s_i1[keep], s_psi[keep]
        if not live.size:
            break
    else:  # pragma: no cover - series converges in < 40 terms
        raise RuntimeError("K_1 series failed to converge")
    i1 = 0.5 * x * sum_i1
    return 1.0 / x + _per_element(math.log, 0.5 * x) * i1 - 0.25 * x * sum_psi


def _cf2(x: np.ndarray) -> np.ndarray:
    """CF2 on lanes x >= 2, down to the hard-underflow point.

    The core yields K_0(x) e^x and K_1(x) e^x, so it stays finite; e^{-x}
    is applied last.  The recurrence coefficients a and c depend on the
    iteration only and are one float for every lane.
    """
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25
    q = np.full_like(x, a1)
    c = a1
    a = -a1
    s = 1.0 + a1 * delh
    h_end, s_end = np.empty_like(x), np.empty_like(x)
    if not x.size:  # no lane would ever converge
        return h_end
    live = np.arange(x.size)
    active = np.ones(x.size, dtype=bool)  # not converged yet
    for i in range(2, _MAXIT + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        done = active & (np.abs(dels / s) <= _EPS)
        h_end[live[done]] = h[done]
        s_end[live[done]] = s[done]
        active &= ~done
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        if 2 * n_active <= live.size:  # shrink by halves, not every iteration
            live, b, d, delh, h, q1, q2, q, s, active = (
                v[active] for v in (live, b, d, delh, h, q1, q2, q, s, active)
            )
    else:  # pragma: no cover - CF2 converges in tens of iterations
        raise RuntimeError("K_1 continued fraction failed to converge")
    h_end = a1 * h_end
    k0_scaled = _per_element(math.sqrt, math.pi / (2.0 * x)) / s_end
    k1_scaled = k0_scaled * (x + 0.5 - h_end) / x
    return k1_scaled * _per_element(math.exp, -x)


def bessel_k1(x):
    """K_1(x) for real x > 0, elementwise; the output has the input's shape,
    and a scalar or 0-d input gives a 0-d value (a numpy float).

    One array path: the series lanes (x <= K1_CROSSOVER) and the CF2 lanes
    (up to K1_HARD_UNDERFLOW) each run together, with converged lanes frozen
    (module docstring), so each element is bit for bit what a one-point call
    gives.  Certified relative accuracy 1e-12 on [1e-6, 700] (checked
    against the quadrature oracle in the test suite); graceful underflow to
    0 past ~x = 746.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InputError("bessel_k1 needs finite x > 0")
    flat = arr.ravel()
    out = np.zeros_like(flat)  # past K1_HARD_UNDERFLOW, e^{-x} is 0
    series = flat <= K1_CROSSOVER
    cf2 = ~series & (flat <= K1_HARD_UNDERFLOW)
    out[series] = _series(flat[series])
    out[cf2] = _cf2(flat[cf2])
    return out.reshape(arr.shape)[()]
