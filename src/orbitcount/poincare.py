"""Census-truncated series of free-space kernels, with certified tails.

For a census Gamma_B (all lattice elements with gauge <= B) and Re z large
enough, the series value at a base point g is

    P_z(g) = sum_{gamma in census} u_z(cartan radius of gamma g),

accumulated shell by shell (shells = exact-F classes in canonical order).
Each shell partial sum is the correctly rounded sum (``math.fsum``) of the
shell sums through it, and the last one is the reported total.  At the
identity a shell adds count * u_z(radius) from the census shell table, as
the growth fits read it; only a translated base point reads the rows.

Tail certification.  The kernel magnitude obeys the exact majorant

    |u_z(r)| <= (C_G / |z|) * (r / sinh r) * e^{-Re z * r},

and the census growth is modelled by N(gauge <= T) <= c * T^{sigma0 + eps}
with c fitted by least squares on the observed shells and multiplied by a
safety factor; sigma0 = 4, eps = 0.25 and safety = 4 are fixed
(:class:`GrowthModel`) and recorded in reports.  In radius form
N(r) <= c_safe e^{(sigma0+eps) r/2}, so the tail beyond the census radius
R0 is bounded by summing count-bound(top of slab) * |u_z|(bottom of slab)
over half-unit slabs; at a translated base point g each slab bottom moves
in by radius(g).
This converges iff Re z > (sigma0 + eps)/2; the stricter documented
precondition Re z > sigma0 + 1 (+ margin) is enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, TailError
from .freespace import C_G, kernel, product_factor
from .group import check_unimodular, radius as group_radius
from .lattice import Census

_EPS = float(np.finfo(float).eps)


class GrowthModel:
    """Counting model N(gauge <= T) <= safety * c_ls * T^(sigma0 + eps)."""

    #: growth exponent of the census lattice.  Least squares on log N(T)
    #: vs log T over T in [2, 8] lands near 4 (see fit_growth and the
    #: tests); volume heuristics for this lattice predict the same exponent.
    sigma0 = 4.0
    #: exponent margin and prefactor safety of the certificate
    eps = 0.25
    safety = 4.0

    @property
    def required_abscissa(self) -> float:
        """Documented series precondition: Re z must exceed this."""
        return self.sigma0 + 1.0 + self.eps


def fit_growth(
    census: Census, t_lo: float = 2.0, t_hi: float = 8.0
) -> tuple[float, float]:
    """Least-squares (exponent, prefactor) of log N(T) ~ log c + s log T.

    Sampled at the gauge of each census shell inside [t_lo, t_hi], using the
    cumulative count through that shell.
    """
    t = census.shell_table
    if not t.count.size:
        raise InputError("cannot fit growth on an empty census")
    gauges = np.exp(0.5 * t.radius)
    inside = (t_lo <= gauges) & (gauges <= t_hi)
    if inside.sum() < 2:
        raise InputError(
            f"census has {inside.sum()} shells with gauge in [{t_lo}, {t_hi}]; "
            "need at least 2 to fit growth"
        )
    cumulative = np.cumsum(t.count)[inside]
    slope, intercept = np.polyfit(np.log(gauges[inside]), np.log(cumulative), 1)
    return float(slope), float(math.exp(intercept))


def fit_prefactor(census: Census, model: GrowthModel) -> float:
    """Prefactor c for N(T) <= c T^(sigma0+eps), from the observed shells.

    Least squares at the model's fixed exponent, floored by the observed
    majorant max_j N_j / T_j^(sigma0+eps) so the certificate can never
    undercut the data it was fitted on.  The safety factor is applied by
    the caller (and recorded in reports).
    """
    a = model.sigma0 + model.eps
    t = census.shell_table
    if not t.count.size:
        return 1.0
    gauges = np.exp(0.5 * t.radius)  # >= 1, as F >= 2
    n = np.cumsum(t.count)
    major = float(np.max(n / gauges**a))
    c_ls = math.exp(float(np.mean(np.log(n) - a * np.log(gauges))))
    return max(c_ls, major)


def tail_bound(
    census: Census,
    z: complex,
    model: GrowthModel,
    c_ls: float,
    *,
    shift: float = 0.0,
) -> float:
    """Certified bound on the series tail beyond the census radius.

    Half-unit slabs [R0 + j/2, R0 + (j+1)/2) of element radius: per slab,
    count is bounded by the model at the slab top and each term by the
    kernel majorant at the slab bottom.  Once a slab bottom is >= 0 each
    term is at most q = e^{(sigma0+eps)/4 - Re z/2} times the one before,
    as r / sinh r decreases; the slabs are summed down to 1e-30 of the
    first such term and the rest is bounded by last * q / (1 - q), so the
    bound covers the whole tail.

    ``shift`` is the radius of the base point g the series is evaluated at.
    A missing element gamma has radius(gamma) > R0 and, by the triangle
    inequality, radius(gamma g) >= radius(gamma) - shift, so each slab's
    kernel majorant is taken ``shift`` lower (clamped at radius 0).

    The terms and their sum are rounded doubles, so the bound adds an
    explicit slack to stay above the exact slab series.  Every intermediate
    of slab j's exponent is at most reach_j = R0 + shift + (j + 1)/2 in
    magnitude, so the exponent is off by at most 6 eps (a/2 + Re z) reach_j
    and the term by that much relative, plus 16 eps for its other factors;
    their sum is correctly rounded, so the (n + 2) eps allowed for it is a
    conservative over-count.  The slack is eps * sum_j term_j (n + 18
    + 6 (a/2 + Re z) reach_j), about 5e-14 of the bound at z = 6.
    """
    rez = complex(z).real
    a = model.sigma0 + model.eps
    if rez <= a / 2.0 + 0.1:
        raise InputError(
            f"Re z = {rez:g} cannot certify a tail against growth exponent {a:g}"
        )
    r0 = 2.0 * math.log(census.cutoff)
    log_q = a / 4.0 - rez / 2.0
    clamped = max(0, math.ceil(2.0 * (shift - r0)))
    j = np.arange(clamped + math.ceil(math.log(1e-30) / log_q))
    lo = r0 - shift + 0.5 * j
    bot = np.maximum(lo, 0.0)  # slab bottom, translated radius
    terms = (
        model.safety * c_ls * np.exp(0.5 * a * (lo + 0.5 + shift) - rez * bot)
        * (C_G / abs(complex(z))) * product_factor(bot)
    )
    q = math.exp(log_q)
    total = math.fsum(terms.tolist() + [float(terms[-1]) * q / (1.0 - q)])
    # rounding slack (docstring): |exponent error| <= 6 eps (a/2 + Re z) reach
    reach = r0 + shift + 0.5 * (j + 1)
    total += _EPS * float(terms @ (j.size + 18 + 6.0 * (0.5 * a + rez) * reach))
    if not math.isfinite(total):
        raise TailError("tail bound diverged; abscissa too small for the model")
    return total


@dataclass(frozen=True)
class SeriesValue:
    """Series evaluation with its certificate and shell decomposition."""

    value: complex
    tail: float
    z: complex
    shells: tuple[tuple[int, int, complex], ...]  # (F, count, partial sum)
    c_ls: float


def series_eval(
    census: Census,
    z: complex,
    *,
    model: GrowthModel | None = None,
    point: np.ndarray | None = None,
) -> SeriesValue:
    """Evaluate the kernel series over the census at ``point`` (default: id).

    Shell-by-shell partial sums in canonical order: at the identity each
    shell sum is count * kernel at the shell radius; at ``point`` it is the
    sum of the shell's row kernels.  The tail certificate covers the
    translated series: it is the identity-point bound with every kernel
    majorant moved in by the radius of ``point`` (see :func:`tail_bound`),
    so a far-off base point needs a deeper census for the same tail.
    """
    model = model or GrowthModel()
    zc = complex(z)
    if zc.real <= model.required_abscissa:
        raise InputError(
            f"Re z = {zc.real:g} is below the certified abscissa "
            f"{model.required_abscissa:g} (sigma0 + 1 + margin)"
        )
    shift = 0.0
    if point is not None:
        point = check_unimodular(point)
        if point.shape != (2, 2):
            raise DomainError("base point must be a single 2x2 matrix")
        shift = float(group_radius(point, validate=False))
    if census.size == 0:
        return SeriesValue(
            value=0.0 + 0.0j,
            tail=tail_bound(census, zc, model, 1.0, shift=shift),
            z=zc,
            shells=(),
            c_ls=1.0,
        )

    t = census.shell_table
    if point is None:
        sums = t.count * kernel(zc, t.radius)
    else:
        radii = group_radius(census.matrices() @ point, validate=False)
        sums = np.add.reduceat(kernel(zc, radii), t.start)

    re, im = sums.real.tolist(), sums.imag.tolist()
    partials = [complex(math.fsum(re[:k]), math.fsum(im[:k])) for k in range(1, len(re) + 1)]
    shells = tuple(zip(t.fnorm.tolist(), t.count.tolist(), partials))

    c_ls = fit_prefactor(census, model)
    tail = tail_bound(census, zc, model, c_ls, shift=shift)
    return SeriesValue(value=partials[-1], tail=tail, z=zc, shells=shells, c_ls=c_ls)


def series_evaluator_for_contour(census: Census):
    """Series value (identity point) on a contour-quadrature panel grid.

    Returns ``f(zc, dz)``, the integrand form of
    :func:`orbitcount.quadrature.vertical_line_integral`: the values at
    z = zc[:, None] + dz, of shape (panels, nodes), of

        sum_shells count * C_G * pf(r) * e^{-z r} / z.

    Every node is a panel centre plus an offset shared by all panels, so
    e^{-z r} = e^{-zc r} e^{-dz r} and one call is the matrix product
    (weights * e^{-zc (x) r}) @ e^{-r (x) dz}: panels x shells plus
    shells x nodes exponentials instead of one per (panel, node, shell).
    Shell weights are computed once.  No abscissa gate here: on a vertical
    line every z shares one Re z and the caller certifies the tail once at
    that abscissa.
    """
    rads = census.shell_table.radius
    weights = census.shell_table.count * C_G * product_factor(rads)

    def f(zc: np.ndarray, dz: np.ndarray) -> np.ndarray:
        panel = weights * np.exp(-np.outer(zc, rads))
        node = np.exp(-np.outer(rads, dz))
        return (panel @ node) / (zc[:, None] + dz)

    return f
