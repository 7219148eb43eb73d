"""The traced run: per-layer timings of each module's public functions.

Spans are recorded from this file, around the calls it makes into each
layer (and around the series evaluator that the bridge transform calls
back).  A metric is the self time of its spans, summed within one
repetition and taken as the median over repetitions.  The mapping of each
layer metric to the end-to-end metric it should move is in README.md.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from common import ROOT, Outcome, run_child
import gates
from sizes import Sizes, write_spectrum
from session import run_session
from spans import Tracer

from orbitcount.lattice import Census, enumerate_pruned, f_threshold, shell_counts
from orbitcount.perron import SmoothingParams, smoothed_geometric_count
from orbitcount.poincare import GrowthModel, fit_prefactor, series_eval, tail_bound
from orbitcount.special import bessel_k1
from orbitcount.spectral import Spectrum, spectral_side_eval


def machine_notes() -> list[str]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{k}={os.environ.get(k)}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [
        f"machine.cores {os.cpu_count()}",
        f"machine.cpu {model}",
        f"machine.python {platform.python_version()}",
        f"machine.numpy {np.__version__}",
        f"machine.blas {blas.get('name')} {blas.get('version')}",
        f"machine.threads {threads}",
    ]


def _repeat(tracer: Tracer, name: str, reps: int, fn):
    """Call ``fn`` ``reps`` times, each in its own span and repetition."""
    result = None
    for i in range(reps):
        tracer.rep = i
        with tracer.span(name):
            result = fn()
    tracer.rep = 0
    return result


def _rows_equal(name: str, got, want) -> list[str]:
    return [] if np.array_equal(got, want) else [f"{name}: rows differ from the reference census"]


def run(sizes: Sizes, seed: int, work: Path, spans_path: Path) -> Outcome:
    out = Outcome()
    tr = Tracer()
    t_run = time.perf_counter()
    want = gates.expected()[sizes.name]

    # cli: a fresh process that imports the CLI module
    _repeat(tr, "cli.startup", 5, lambda: run_child([sys.executable, "-c", "import orbitcount.cli"], work))

    # lattice: cutoff scaling of the production enumerator, c4 -> c16
    c4, c8, c16 = sizes.scaling_cutoffs
    c12 = sizes.census_cutoff
    census = {}
    for label, cutoff, reps in (("_c4", c4, 5), ("_c8", c8, 3), ("", c12, 1)):
        census[cutoff] = _repeat(tr, "lattice.enumerate" + label, reps, lambda c=cutoff: enumerate_pruned(c))
    big = census[c12]
    out.check(gates.same(
        [big.size, len(big.shells()), [[k, n] for k, n in shell_counts(big, 0.25)]],
        [want["census"]["size"], want["census"]["distinct_shells"], want["census"]["radius_histogram"]],
        "lattice.enumerate",
    ))
    for lo, hi in ((c4, c8), (c8, c12)):
        inner = census[hi].rows[census[hi].fnorm <= f_threshold(lo)]
        out.check(_rows_equal(f"census {lo:g} inside {hi:g}", inner, census[lo].rows))
    deep = _repeat(tr, "lattice.enumerate_c16", 1, lambda: enumerate_pruned(c16))
    out.check(_rows_equal(f"census {c12:g} inside {c16:g}", deep.rows[deep.fnorm <= f_threshold(c12)], big.rows))
    del deep
    two = _repeat(tr, "lattice.enumerate_workers2", 1, lambda: enumerate_pruned(c12, workers=2))
    out.check(_rows_equal("workers=2", two.rows, big.rows))
    del two

    # lattice: census construction and I/O at the build cutoff
    shuffled = big.rows[np.random.default_rng(seed).permutation(big.size)]
    rebuilt = _repeat(tr, "lattice.from_rows", 3, lambda: Census.from_rows(shuffled, cutoff=c12))
    out.check(_rows_equal("from_rows", rebuilt.rows, big.rows))
    path = work / "census.csv"
    _repeat(tr, "lattice.to_csv", 1, lambda: big.to_csv(path))
    loaded = _repeat(tr, "lattice.from_csv", 1, lambda: Census.from_csv(path))
    out.check(_rows_equal("from_csv", loaded.rows, big.rows))
    _repeat(tr, "lattice.shell_counts", 3, lambda: shell_counts(big, 0.25))

    # poincare and perron on the loaded census, as the query workload's CLI
    # calls see it (a loaded census infers its cutoff from the largest gauge,
    # which moves the tail bound)
    model = GrowthModel()
    val = _repeat(tr, "poincare.series_eval", 5, lambda: series_eval(loaded, sizes.query_z, model=model))
    c_ls = _repeat(tr, "poincare.fit_prefactor", 5, lambda: fit_prefactor(loaded, model))
    _repeat(tr, "poincare.tail_bound", 5, lambda: tail_bound(loaded, sizes.query_z, model, c_ls))
    out.check(gates.same(
        [{"re": val.value.real, "im": val.value.imag}, val.tail],
        [want["poincare"]["value"], want["poincare"]["tail_bound"]],
        "poincare.series_eval",
    ))
    sm = _repeat(tr, "perron.smoothed_count", 5,
                 lambda: smoothed_geometric_count(loaded, sizes.query_x, SmoothingParams()))
    out.check(gates.same(sm.value, want["smoothed_count"]["value"], "perron.smoothed_count"))

    # spectral: the seeded spectrum file
    spec_path = work / "spectrum.csv"
    data_count = write_spectrum(spec_path, sizes, seed)
    spectrum = _repeat(tr, "spectral.from_csv", 3, lambda: Spectrum.from_csv(spec_path))
    params = SmoothingParams(theta=sizes.theta)
    totals = _repeat(tr, "spectral.side_eval", 1,
                     lambda: [spectral_side_eval(spectrum, x, params).total for x in sizes.query_xs])
    out.check(
        ([] if len(spectrum.data) == data_count else ["spectral.from_csv: datum count"])
        + ([] if all(math.isfinite(abs(t)) for t in totals) else ["spectral.side_eval: non-finite"])
    )

    # the crosscheck session: quadrature, torus, special, series evaluator
    xc = sizes.crosscheck_cutoff
    run_session(census[xc] if xc in census else enumerate_pruned(xc), sizes, seed, tr, out)

    xs = np.geomspace(1e-6, 700.0, sizes.bessel_points)
    k1 = _repeat(tr, "special.bessel_k1", 3, lambda: bessel_k1(xs))
    out.check([] if np.all(np.isfinite(k1)) and np.all(k1 > 0) else ["special.bessel_k1: bad values"])

    # tracing overhead: cost of one span times the number recorded
    probe = Tracer()
    t0 = time.perf_counter()
    for _ in range(20_000):
        with probe.span("probe"):
            pass
    per_span = (time.perf_counter() - t0) / 20_000
    wall = time.perf_counter() - t_run

    m = out.metrics
    for name in (
        "cli.startup", "lattice.enumerate", "lattice.enumerate_c4", "lattice.enumerate_c8",
        "lattice.enumerate_c16", "lattice.enumerate_workers2", "lattice.from_rows",
        "lattice.to_csv", "lattice.from_csv", "lattice.shell_counts",
        "poincare.series_eval", "poincare.fit_prefactor", "poincare.tail_bound",
        "poincare.contour_evaluator", "perron.smoothed_count", "perron.bridge_transform",
        "perron.contour_oracle", "spectral.from_csv", "spectral.side_eval",
        "spectral.global_oracle", "torus.cell_n1", "torus.cell_n2", "torus.cell_n3",
        "special.bessel_k1",
    ):
        m[name + "_s"] = (tr.layer_seconds(name), "s")
    m["lattice.census_bytes"] = (path.stat().st_size, "bytes")
    m["lattice.census_rows"] = (big.size, "count")
    m["lattice.shells"] = (len(big.shells()), "count")
    cnt = tr.counters
    for name in ("perron.bridge", "perron.contour_oracle", "spectral.global_oracle"):
        m[name + "_evals"] = (cnt[name + "_evals"], "count")
        m[name + "_panels"] = (cnt[name + "_panels"], "count")
    evals = sum(cnt[k] for k in cnt if k.endswith("_evals"))
    panels = sum(cnt[k] for k in cnt if k.endswith("_panels"))
    m["quadrature.evals_per_panel"] = (evals / panels, "evals/panel")
    t = {k: m[k][0] for k in m if k.startswith("lattice.enumerate")}
    m["lattice.workers2_ratio"] = (t["lattice.enumerate_workers2_s"] / t["lattice.enumerate_s"], "ratio")
    m["lattice.c16_c4_ratio"] = (t["lattice.enumerate_c16_s"] / t["lattice.enumerate_c4_s"], "ratio")
    m["trace.overhead_s"] = (per_span * len(tr.spans), "s")

    out.notes += machine_notes()
    base = t["lattice.enumerate_s"]
    out.notes.append(
        f"evidence lattice.enumerate_workers2_s / lattice.enumerate_s = "
        f"{t['lattice.enumerate_workers2_s'] / base:.3f} (base lattice.enumerate_s = {base:.3f} s, "
        f"cutoff {c12:g}, workers=1)"
    )
    chain = [("c4", c4, "lattice.enumerate_c4_s"), ("c8", c8, "lattice.enumerate_c8_s"),
             ("c12", c12, "lattice.enumerate_s"), ("c16", c16, "lattice.enumerate_c16_s")]
    for (la, ca, ka), (lb, cb, kb) in zip(chain, chain[1:]):
        ratio = t[kb] / t[ka]
        out.notes.append(
            f"evidence {lb}/{la} = {ratio:.3f} (base {ka} = {t[ka]:.4f} s); "
            f"local exponent log(ratio)/log({cb:g}/{ca:g}) = {math.log(ratio) / math.log(cb / ca):.2f}"
        )
    out.notes.append(
        f"evidence c16/c4 = {t['lattice.enumerate_c16_s'] / t['lattice.enumerate_c4_s']:.1f} "
        f"(base lattice.enumerate_c4_s = {t['lattice.enumerate_c4_s']:.4f} s)"
    )
    out.notes.append(f"trace.spans {len(tr.spans)} ({per_span * 1e6:.2f} us each); traced run wall {wall:.1f} s")
    tr.dump(spans_path)
    out.notes.append(f"trace.spans_file {spans_path.relative_to(ROOT)}")
    return out
