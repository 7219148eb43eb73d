"""Print the Chebyshev table of K_1 that src/orbitcount/special.py embeds.

Above the crossover c = special.K1_CROSSOVER (2.7), special.bessel_k1 writes

    K_1(x) = g(u) e^{-x} / sqrt(x),   g = sqrt(x) e^x K_1(x),   u = c / x,

so u runs over (0, 1] and g(u) is smooth there, tending to sqrt(pi/2) as
u -> 0.  g is expanded in Chebyshev polynomials of t = 2u - 1:

    g = c_0/2 + sum_{j >= 1} c_j T_j(t),

    c_j = (2/N) sum_{k < N} g(t_k) cos(pi j (k + 1/2) / N),
    t_k = cos(pi (k + 1/2) / N),

the N = 64 node discrete cosine transform, taken with mpmath at 40
significant digits and at c equal to the double K1_CROSSOVER.  The first
TERMS coefficients, each rounded to the nearest double, are printed as the
literal tuple; the first dropped coefficient is printed as a comment.
tests/test_special.py regenerates the table with :func:`coefficients` and
asserts that it equals the embedded one bit for bit.

Usage: python3 tools/gen_k1_chebyshev.py
"""

import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbitcount.special import K1_CROSSOVER  # noqa: E402

NODES = 64
TERMS = 22
DIGITS = 40


def coefficients() -> list:
    """c_0 .. c_TERMS of g, as mpmath numbers: the embedded table and the
    first dropped coefficient."""
    with mp.workdps(DIGITS):
        c = mp.mpf(K1_CROSSOVER)
        theta = [mp.pi * (k + mp.mpf(1) / 2) / NODES for k in range(NODES)]
        g = []
        for th in theta:
            x = c / ((mp.cos(th) + 1) / 2)
            g.append(mp.sqrt(x) * mp.exp(x) * mp.besselk(1, x))
        return [2 * mp.fsum(gk * mp.cos(j * th)
                            for gk, th in zip(g, theta)) / NODES
                for j in range(TERMS + 1)]


def main() -> int:
    coef = coefficients()
    values = [float(v) for v in coef[:TERMS]]
    print("_K1_CHEB = (")
    for i in range(0, TERMS, 3):
        print("    " + " ".join(f"{v!r}," for v in values[i:i + 3]))
    print(")")
    print(f"# first dropped coefficient c_{TERMS} = {float(coef[TERMS]):.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
