"""Workload sizes and the seeded inputs the benchmark generates.

``FULL`` is what every benchmark run uses; ``TOY`` is the same code path at
toy size, for the self-test.  The program only ever receives the generated
files and parameters, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Sizes:
    name: str
    #: census cutoff of build, of query's set-up and of the traced run
    census_cutoff: float
    query_z: float
    query_x: float
    query_xs: tuple[float, ...]
    spectrum_exceptional: int
    spectrum_tempered: int
    crosscheck_cutoff: float
    bridge_heights: tuple[float, ...]
    #: traced run: enumerations reported as lattice.enumerate_c4/_c8/_c16
    #: (lattice.enumerate itself is at census_cutoff)
    scaling_cutoffs: tuple[float, float, float]
    bessel_points: int
    #: set-up repeats per run; setup_s is their median
    setup_reps: int = 3
    theta: float = 0.8


FULL = Sizes(
    name="full",
    census_cutoff=12.0,
    query_z=6.0,
    query_x=3.0,
    query_xs=(1.0, 2.0, 3.0, 4.0),
    spectrum_exceptional=5,
    spectrum_tempered=1995,
    crosscheck_cutoff=8.0,
    bridge_heights=(500.0, 1000.0, 2000.0, 4000.0),
    scaling_cutoffs=(4.0, 8.0, 16.0),
    bessel_points=100_000,
)

TOY = Sizes(
    name="toy",
    census_cutoff=4.0,
    query_z=6.0,
    query_x=2.0,
    query_xs=(1.0, 2.0),
    spectrum_exceptional=2,
    spectrum_tempered=17,
    # the sigma = 7 series certificate (tail <= 1e-8) needs depth 8
    crosscheck_cutoff=8.0,
    bridge_heights=(2000.0,),
    scaling_cutoffs=(1.0, 2.0, 5.0),
    bessel_points=1000,
    setup_reps=1,
)

SIZES = {s.name: s for s in (FULL, TOY)}

# Draw ranges of the synthetic spectrum.  Exceptional eigenvalues in
# (-0.9, -0.5) have spectral parameters in (0.32, 0.71), clear of the
# smoothing poles at theta = 0.8 and 1.6 and of the constant datum's z = 1;
# tempered ones (lambda < -1) have purely imaginary parameters.
EXCEPTIONAL_LAMBDA = (-0.9, -0.5)
TEMPERED_LAMBDA = (-400.0, -1.25)
WEIGHT = (0.5, 2.0)


def write_spectrum(path: Path, sizes: Sizes, seed: int) -> int:
    """Write the seeded `label,lambda,weight` file; returns the datum count."""
    rng = random.Random(seed)
    lines = ["label,lambda,weight", "const,0.0,1.0"]
    for i in range(sizes.spectrum_exceptional):
        lam = rng.uniform(*EXCEPTIONAL_LAMBDA)
        lines.append(f"ex{i},{lam:.17g},{rng.uniform(*WEIGHT):.17g}")
    for i in range(sizes.spectrum_tempered):
        lam = rng.uniform(*TEMPERED_LAMBDA)
        lines.append(f"t{i},{lam:.17g},{rng.uniform(*WEIGHT):.17g}")
    path.write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def torus_point(n: int, seed: int) -> tuple[float, ...]:
    """Seeded off-origin torus point, each coordinate in [0.05, 0.45]."""
    rng = random.Random(seed * 7919 + n)
    return tuple(rng.uniform(0.05, 0.45) for _ in range(n))
