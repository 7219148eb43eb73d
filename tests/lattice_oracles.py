"""Pure-Python oracles of the lattice enumeration, reached only by tests.

* :func:`gdivmod` and :func:`gxgcd` -- scalar nearest-rounding division and
  extended Euclid in Z[i], the oracles of ``lattice._gxgcd_arrays``.
* :func:`enumerate_literal` -- four-entry box scan.  Oracle of the
  enumerators for tiny cutoffs.
"""

from orbitcount.lattice import (
    DEFAULT_WORK_BUDGET,
    Census,
    Gint,
    _entry_box,
    _round_nearest,
    f_threshold,
    gconj,
    gmul,
    gnorm,
    gsub,
)


def gdivmod(x: Gint, y: Gint) -> tuple[Gint, Gint]:
    """Nearest-rounding division: q with |x - q y| minimal-ish, r = x - q y.

    Guarantees gnorm(r) <= gnorm(y) / 2, which makes the Euclid loop below
    terminate fast.
    """
    if y == (0, 0):
        raise ZeroDivisionError("Gaussian division by zero")
    n = gnorm(y)
    p = gmul(x, gconj(y))
    q = (_round_nearest(p[0], n), _round_nearest(p[1], n))
    return q, gsub(x, gmul(q, y))


def gxgcd(x: Gint, y: Gint) -> tuple[Gint, Gint, Gint]:
    """Extended Euclid in Z[i]: returns (g, u, v) with u x + v y = g."""
    r0, r1 = x, y
    u0, u1 = (1, 0), (0, 0)
    v0, v1 = (0, 0), (1, 0)
    while r1 != (0, 0):
        q, r = gdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, gsub(u0, gmul(q, u1))
        v0, v1 = v1, gsub(v0, gmul(q, v1))
    return r0, u0, v0


def enumerate_literal(cutoff: float, *, budget: int = DEFAULT_WORK_BUDGET) -> Census:
    """Four-entry literal box scan.  Test oracle; O(box^4), tiny cutoffs only."""
    fmax = f_threshold(cutoff)
    box = _entry_box(fmax, budget, lambda k: k**4, "literal enumeration")
    box = [tuple(v) for v in box.tolist()]
    rows = []
    for a in box:
        for b in box:
            for c in box:
                bc = gmul(b, c)
                for d in box:
                    det = gsub(gmul(a, d), bc)
                    if det != (1, 0):
                        continue
                    f = gnorm(a) + gnorm(b) + gnorm(c) + gnorm(d)
                    if f <= fmax:
                        rows.append([*a, *b, *c, *d])
    return Census.from_rows(rows, cutoff=cutoff)
