"""The crosscheck workload: an in-process verification session.

Three parts, each timed and gated with the acceptance battery's tolerances:

* bridge  -- smoothed count vs the contour transform of the census series
  at X = 1, sigma = 7 over the bridge heights, plus the sigma = 7 series
  certificate;
* torus   -- (n, nu) in {(1,1), (1,2), (2,2), (3,2)} x lambda in {-1, -3}
  x {origin, a seeded point};
* contour -- the smoothing kernel's contour oracle (criterion 2) and the
  residue and global-contour oracles (criterion 3).

It runs in-process because the CLI forms of these checks are mostly
interpreter and numpy start-up.  Run as a script it is the benchmark's
child process: it builds the census (the set-up), repeats the session for
``--seconds`` and prints one JSON document.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from common import Outcome
import gates
from sizes import SIZES, Sizes, torus_point
from spans import NullTracer

from orbitcount.lattice import Census, enumerate_pruned
from orbitcount.perron import (
    SmoothingParams,
    kernel_denominator,
    perron_contour_oracle,
    smoothed_geometric_count,
    smoothing_contour_transform,
    smoothing_kernel,
)
from orbitcount.poincare import series_eval, series_evaluator_for_contour
from orbitcount.quadrature import cauchy_circle_residue
from orbitcount.spectral import (
    SpectralDatum,
    Spectrum,
    global_contour_oracle,
    residue_pair,
    spectral_side_eval,
)
from orbitcount.torus import TorusParams, torus_identity_check

TORUS_CELLS = ((1, 1), (1, 2), (2, 2), (3, 2))
TORUS_LAMBDAS = (-1.0, -3.0)

# criterion-3 residue grid and weights, as in the acceptance battery
RESIDUE_GRID = (0.6 + 0j, 1.25 + 0j, 2.6 + 0j, 0.45 + 1.1j, 1.4 + 0.8j)
RESIDUE_WEIGHTS = (1.3, 0.7, 0.25, 0.9, 0.4)


def bridge(census: Census, heights, tracer, steps: Outcome) -> None:
    sm = SmoothingParams(ell=2, theta=1.0)
    X, sigma = 1.0, 7.0
    with tracer.span("perron.bridge_direct"):
        direct = smoothed_geometric_count(census, X, sm).value
    with tracer.span("poincare.certificate"):
        steps.check(gates.certificate_gate(series_eval(census, sigma).tail))
    with tracer.span("poincare.contour_evaluator"):
        f = series_evaluator_for_contour(census)
    f = tracer.wrap("poincare.contour_evaluator", f)
    for h in heights:
        with tracer.span("perron.bridge_transform"):
            li = smoothing_contour_transform(f, X, sm, sigma=sigma, height=h)
        tracer.count("perron.bridge_evals", li.evaluations)
        tracer.count("perron.bridge_panels", li.panels)
        steps.check(gates.bridge_gate(h, direct, li.value.real))


def torus_grid(seed: int, tracer, steps: Outcome) -> None:
    for n, nu in TORUS_CELLS:
        for lam in TORUS_LAMBDAS:
            for x in ((0.0,) * n, torus_point(n, seed)):
                with tracer.span(f"torus.cell_n{n}"):
                    cmp = torus_identity_check(TorusParams(n=n, nu=nu, lam=lam), x)
                headline = (n, nu, lam) == (1, 1, -1.0) and not any(x)
                cell = f"(n={n}, nu={nu}, lambda={lam:g}, x={x})"
                steps.check(gates.torus_gate(cell, cmp.discrepancy, cmp.budget, headline))


def contour_oracles(tracer, steps: Outcome) -> None:
    sm = SmoothingParams(ell=2, theta=1.0)

    # criterion 2: cubic convergence of the kernel's contour form in T
    closed = float(smoothing_kernel(sm, 1.0))
    errs = {}
    negatives = []
    for T in (250.0, 500.0, 1000.0, 2000.0):
        with tracer.span("perron.contour_oracle"):
            li = perron_contour_oracle(1.0, sm, height=T)
        tracer.count("perron.contour_oracle_evals", li.evaluations)
        tracer.count("perron.contour_oracle_panels", li.panels)
        errs[T] = abs(li.value.real - closed)
    for u in (-0.7, -1.5):
        with tracer.span("perron.contour_oracle"):
            li = perron_contour_oracle(u, sm, height=500.0)
        tracer.count("perron.contour_oracle_evals", li.evaluations)
        tracer.count("perron.contour_oracle_panels", li.panels)
        negatives.append(abs(li.value))
    slope = -np.polyfit(np.log(list(errs)), np.log(list(errs.values())), 1)[0]
    steps.check(gates.perron_oracle_gate(errs[1000.0], float(slope), negatives))

    # criterion 3: residues vs circle quadrature, assembled sum vs contour
    nu, X0 = 2, 1.7
    for z_xi in RESIDUE_GRID:
        def phi(z, z_xi=z_xi):
            z = np.asarray(z, dtype=complex)
            return np.exp(z * X0) / (
                (z - z_xi) ** nu * (z + z_xi) ** nu * kernel_denominator(sm, z)
            )

        with tracer.span("spectral.residue_pair"):
            A, B = residue_pair(z_xi, X0, sm, nu)
        with tracer.span("quadrature.circle_residue"):
            cA = cauchy_circle_residue(phi, z_xi)
            cB = cauchy_circle_residue(phi, -z_xi)
        steps.check(
            gates.residue_gate(f"+{z_xi}", A, cA) + gates.residue_gate(f"-{z_xi}", B, cB)
        )
    sp = Spectrum(
        tuple(
            SpectralDatum(f"d{i}", z, w)
            for i, (z, w) in enumerate(zip(RESIDUE_GRID, RESIDUE_WEIGHTS))
        )
    )
    for X in (0.5, 1.0, 1.5, 2.0, 3.0):
        with tracer.span("spectral.residue_sum"):
            side = spectral_side_eval(sp, X, sm, nu).total
        with tracer.span("spectral.global_oracle"):
            li = global_contour_oracle(sp, X, sm, nu)
        tracer.count("spectral.global_oracle_evals", li.evaluations)
        tracer.count("spectral.global_oracle_panels", li.panels)
        steps.check(gates.global_contour_gate(X, side, li.value))
    for z_xi in (0.6 + 0j, 1.4 + 0.8j):
        with tracer.span("spectral.residue_pair"):
            g = [residue_pair(z_xi, Xk, sm, nu)[0] * np.exp(-z_xi * Xk) for Xk in (1.0, 1.5, 2.0)]
        steps.check(gates.annihilation_gate(str(z_xi), g))


def run_session(census: Census, sizes: Sizes, seed: int, tracer, steps: Outcome) -> dict:
    """One pass over the three parts; returns their wall times in seconds."""
    times = {}
    for part, body in (
        ("bridge_s", lambda: bridge(census, sizes.bridge_heights, tracer, steps)),
        ("torus_s", lambda: torus_grid(seed, tracer, steps)),
        ("contour_s", lambda: contour_oracles(tracer, steps)),
    ):
        t0 = time.perf_counter()
        try:
            with tracer.span("crosscheck." + part[:-2]):
                body()
        except Exception as exc:  # a failed step is counted, the session goes on
            steps.check([f"{part[:-2]}: {exc!r}"])
        times[part] = time.perf_counter() - t0
    return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", choices=sorted(SIZES), default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    sizes = SIZES[args.sizes]

    setup = []
    for _ in range(sizes.setup_reps):
        t0 = time.perf_counter()
        census = enumerate_pruned(sizes.crosscheck_cutoff)
        setup.append(time.perf_counter() - t0)

    steps = Outcome()
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        passes.append(run_session(census, sizes, args.seed, NullTracer(), steps))
    doc = {
        "setup_s": statistics.median(setup),
        "passes": passes,
        "attempted": steps.attempted,
        "failed": steps.failed,
        "failures": steps.failures[:20],
    }
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
