"""Census-truncated series of free-space kernels, with certified tails.

For a census Gamma_B (all lattice elements with gauge <= B) and Re z large
enough, the series value at the identity is

    P_z = sum_{gamma in census} u_z(cartan radius of gamma),

accumulated shell by shell (shells = exact-F classes in canonical order):
a shell adds count * u_z(radius) from the census shell table, as the growth
fits read it.  Each shell partial sum is the correctly rounded sum
(``math.fsum``) of the shell sums through it, and the last one is the
reported total.

Tail certification.  The kernel magnitude obeys the exact majorant

    |u_z(r)| <= (C_G / |z|) * (r / sinh r) * e^{-Re z * r},

and the census count is modelled by

    N(gauge <= T) <= safety * c * T^{sigma0 + eps}.

The prefactor c is the census's largest shell ratio max_j N(T_j) /
T_j^{sigma0 + eps}, so the model holds on every observed shell; beyond the
census it is extrapolated, an assumption that an unconditional packing
bound would remove.  The exponent sigma0 = 4 is the e^{2r} = gauge^4
volume growth of hyperbolic 3-space, not a fit; eps = 0.25 and safety = 4
are fixed margins (:class:`GrowthModel`), recorded in reports.  In radius
form N(r) <= safety * c * e^{(sigma0+eps) r/2}, so the tail beyond the
census radius R0 is bounded by summing count-bound(top of slab) *
|u_z|(bottom of slab) over half-unit slabs.
This converges iff Re z > (sigma0 + eps)/2; the one abscissa gate,
in :func:`tail_bound`, refuses Re z <= sigma0 + 1 + eps = 5.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .freespace import C_G, kernel, product_factor
from .lattice import Census

_EPS = float(np.finfo(float).eps)


class GrowthModel:
    """Counting model N(gauge <= T) <= safety * prefactor * T^(sigma0 + eps)."""

    #: growth exponent of the census lattice: a ball of radius r in
    #: hyperbolic 3-space has volume growing like e^{2r} = gauge^4
    sigma0 = 4.0
    #: exponent margin and prefactor safety of the certificate
    eps = 0.25
    safety = 4.0

    @property
    def required_abscissa(self) -> float:
        """The series' one abscissa gate: :func:`tail_bound` refuses Re z <= this."""
        return self.sigma0 + 1.0 + self.eps


def fit_prefactor(census: Census, model: GrowthModel) -> float:
    """Prefactor c for N(T) <= c T^(sigma0+eps): the observed majorant.

    max_j N_j / T_j^(sigma0+eps) over the census shells, with N_j the
    cumulative count through shell j at gauge T_j, so the model holds on
    every observed shell.  The safety factor is applied by the caller (and
    recorded in reports).
    """
    a = model.sigma0 + model.eps
    t = census.shell_table
    gauges = np.exp(0.5 * t.radius)  # >= 1, as F >= 2
    return float(np.max(np.cumsum(t.count) / gauges**a))


def tail_bound(census: Census, z: complex, model: GrowthModel, prefactor: float) -> float:
    """Certified bound on the series tail beyond the census radius.

    Half-unit slabs [R0 + j/2, R0 + (j+1)/2) of element radius: per slab,
    count is bounded by the model at the slab top and each term by the
    kernel majorant at the slab bottom, R0 + j/2 >= 0.  Each term is at most
    q = e^{(sigma0+eps)/4 - Re z/2} times the one before, as r / sinh r
    decreases; the slabs are summed down to 1e-30 of the first term and the
    rest is bounded by last * q / (1 - q), so the bound covers the whole
    tail.

    The terms and their sum are rounded doubles, so the bound adds an
    explicit slack to stay above the exact slab series.  Every intermediate
    of slab j's exponent is at most reach_j = R0 + (j + 1)/2 in magnitude,
    so the exponent is off by at most 6 eps (a/2 + Re z) reach_j
    and the term by that much relative, plus 16 eps for its other factors;
    their sum is correctly rounded, so the (n + 2) eps allowed for it is a
    conservative over-count.  The slack is eps * sum_j term_j (n + 18
    + 6 (a/2 + Re z) reach_j), about 5e-14 of the bound at z = 6.

    eps is a power of two, so it is applied inside the weights: that changes
    no bit unless a product is subnormal, and keeps every weight finite up
    to the largest Re z, where the terms underflow to 0.  A term that
    underflows is off by up to ``math.ulp(0.0)`` absolute, not relative, so
    the slack has an absolute floor of (n + 2) ulp(0.0): one per term, two
    for the remainder and the sum.  It changes the bits only of a bound that
    is 0 or near the subnormal range, and no bound is 0.

    Re z <= ``model.required_abscissa`` is refused first, then a z of
    infinite or nan modulus and a prefactor that is not a finite positive
    float.  Above the abscissa q < 0.21, so the terms and remainder sum to
    under 1.54 times the first term, itself below the largest float / 5.25
    or inf: the fsum cannot overflow, and an inf or nan bound is refused.
    """
    zc = complex(z)
    rez = zc.real
    if rez <= model.required_abscissa:
        raise InputError(f"Re z = {rez:g} is below the certified abscissa "
                         f"{model.required_abscissa:g} (sigma0 + 1 + margin)")
    try:
        modulus = abs(zc)
    except OverflowError:  # both parts finite, |z| beyond the largest float
        modulus = math.inf
    if not modulus < math.inf:
        raise InputError(f"|z| for z = {zc} is not finite; no tail bound can be certified")
    if not 0.0 < prefactor < math.inf:
        raise InputError(f"tail bound needs a finite positive prefactor, got {prefactor}")
    a = model.sigma0 + model.eps
    r0 = 2.0 * math.log(census.cutoff)
    log_q = a / 4.0 - rez / 2.0
    j = np.arange(math.ceil(math.log(1e-30) / log_q))
    lo = r0 + 0.5 * j  # slab bottom
    # Re z * lo past the largest float is a term of 0; a prefactor past
    # about 1e306 can make a term inf or nan, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = 0.5 * a * (lo + 0.5) - rez * lo
        terms = (
            model.safety * prefactor * np.exp(exponent)
            * (C_G / modulus) * product_factor(lo)
        )
    q = math.exp(log_q)
    total = math.fsum(terms.tolist() + [float(terms[-1]) * q / (1.0 - q)])
    # rounding slack (docstring): |exponent error| <= 6 eps (a/2 + Re z) reach
    reach = r0 + 0.5 * (j + 1)
    total += (float(terms @ (_EPS * (j.size + 18) + 6.0 * _EPS * (0.5 * a + rez) * reach))
              + (j.size + 2) * math.ulp(0.0))
    if not total < math.inf:
        raise InputError(f"prefactor {prefactor:g} overflows the tail bound at z = {zc}")
    return total


@dataclass(frozen=True)
class SeriesValue:
    """Series evaluation with its certificate and shell decomposition."""

    value: complex
    tail: float
    z: complex
    shells: tuple[tuple[int, int, complex], ...]  # (F, count, partial sum)
    prefactor: float


def series_eval(
    census: Census,
    z: complex,
    *,
    model: GrowthModel | None = None,
) -> SeriesValue:
    """Evaluate the kernel series over the census at the identity.

    Shell-by-shell partial sums in canonical order, each shell sum count *
    kernel at the shell radius, with the tail certificate of
    :func:`tail_bound`.  The certificate is computed first, so a z below
    the abscissa or of non-finite modulus is refused before any kernel is
    evaluated; a z at which a shell sum overflows is refused too.
    """
    model = model or GrowthModel()
    zc = complex(z)
    prefactor = fit_prefactor(census, model)
    tail = tail_bound(census, zc, model, prefactor)
    t = census.shell_table
    with np.errstate(over="ignore", invalid="ignore"):
        sums = t.count * kernel(zc, t.radius)
    if not np.isfinite(sums).all():  # e^{-z r} past the largest float
        raise InputError(f"z = {zc} overflows the kernel: a shell sum is not a finite number")

    re, im = (_prefix_fsums(part.tolist()) for part in (sums.real, sums.imag))
    partials = [complex(x, y) for x, y in zip(re, im)]
    shells = tuple(zip(t.fnorm.tolist(), t.count.tolist(), partials))
    return SeriesValue(value=partials[-1], tail=tail, z=zc, shells=shells, prefactor=prefactor)


def _prefix_fsums(xs: list[float]) -> list[float]:
    """``math.fsum(xs[:k])`` for k = 1, ..., len(xs), from one exact running sum.

    Each x is finite, num / den with den a power of two, so every prefix
    sum is an integer over the largest den, and integer true division rounds
    it correctly.
    """
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max((den for _num, den in ratios), default=1)
    acc, out = 0, []
    for num, den in ratios:
        acc += num * (scale // den)
        out.append(acc / scale)
    return out


def series_evaluator_for_contour(census: Census):
    """Series value (identity point) as a contour-quadrature block integrand.

    Returns ``f(dp, dz)``, the integrand form of
    :func:`orbitcount.quadrature.vertical_line_integral`, whose
    ``block(z0, n)`` gives the values at z = z0 + dp[:n, None] + dz, of
    shape (n, nodes), of

        sum_shells count * C_G * pf(r) * e^{-z r} / z.

    Every node is a block start plus a panel offset plus a node offset,
    the last two shared by every block, so e^{-z r} = e^{-z0 r} e^{-dp r}
    e^{-dz r}.  ``f`` builds weights * e^{-dp (x) r} and e^{-r (x) dz} once
    per line; a block is then shells exponentials, one (n, shells) scaling
    and the matrix product with the node table.  No abscissa gate here: on
    a vertical line every z shares one Re z and the caller certifies the
    tail once at that abscissa.
    """
    rads = census.shell_table.radius
    weights = census.shell_table.count * C_G * product_factor(rads)

    def f(dp: np.ndarray, dz: np.ndarray):
        panel = weights * np.exp(-np.outer(dp, rads))
        node = np.exp(-np.outer(rads, dz))

        def block(z0: complex, n: int) -> np.ndarray:
            z = (z0 + dp[:n])[:, None] + dz
            return ((panel[:n] * np.exp(-z0 * rads)) @ node) / z

        return block

    return f
