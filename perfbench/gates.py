"""Correctness gates.  Each returns a list of failure messages; empty = pass.

Census-derived outputs are compared with values frozen from the seed
program (``expected.json``): integers exactly, floats to 1e-12 relative.
Spectrum-derived outputs must agree across commands.  The crosscheck gates
are the acceptance battery's tolerances.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

FLOAT_RTOL = 1e-12


@functools.cache
def expected() -> dict:
    """Frozen census-derived outputs, keyed by sizes name (``sizes.py``)."""
    return json.loads((Path(__file__).parent / "expected.json").read_text())


def same(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for k in want for m in same(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in same(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and (
            got == want or abs(got - want) <= FLOAT_RTOL * max(abs(got), abs(want))
        )
        return [] if ok else [f"{where}: {got!r} != {want!r} (rel 1e-12)"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------------
# build and query: CLI reports


def census_summary(report: dict) -> dict:
    c = report["census"]
    return {k: c[k] for k in ("size", "distinct_shells", "compact_count", "radius_histogram")}


def poincare_summary(report: dict) -> dict:
    s = report["series"]
    return {
        "value": s["value"],
        "tail_bound": s["tail_bound"],
        "c_fit": s["growth"]["c_fit"],
        "census_size": s["census_size"],
        "shell_partial_sums": s["shell_partial_sums"],
    }


def smoothed_summary(report: dict) -> dict:
    s = report["smoothed_count"]
    return {k: s[k] for k in ("value", "census_size_used", "shell_subtotals")}


def compare_geometric(report: dict) -> list:
    return [
        [r["x"], r["geometric"], r["geometric_signed"], r["census_size_used"]]
        for r in report["compare"]["rows"]
    ]


def build_gate(report: dict, sizes_name: str) -> list[str]:
    return same(census_summary(report), expected()[sizes_name]["census"], "enumerate")


def poincare_gate(report: dict, sizes_name: str) -> list[str]:
    return same(poincare_summary(report), expected()[sizes_name]["poincare"], "poincare")


def smoothed_gate(report: dict, sizes_name: str) -> list[str]:
    return same(smoothed_summary(report), expected()[sizes_name]["smoothed_count"], "smoothed-count")


def spectral_gate(report: dict, xs, data_count: int) -> list[str]:
    sp = report["spectral"]
    bad = []
    if sp["data_count"] != data_count:
        bad.append(f"spectral-side: data_count {sp['data_count']} != {data_count}")
    if [e["x"] for e in sp["evaluations"]] != list(xs):
        bad.append("spectral-side: X list differs from the one requested")
    for e in sp["evaluations"]:
        if len(e["per_datum"]) != data_count:
            bad.append(f"spectral-side: X={e['x']}: {len(e['per_datum'])} per-datum rows")
        if not all(math.isfinite(v) for v in e["total"].values()):
            bad.append(f"spectral-side: X={e['x']}: non-finite total")
    return bad


def compare_gate(report: dict, spectral_report: dict, sizes_name: str) -> list[str]:
    """Census columns match the frozen values; the spectral column equals
    the spectral-side total at each X; difference = signed geometric - spectral."""
    bad = same(compare_geometric(report), expected()[sizes_name]["compare_geometric"], "compare")
    totals = {e["x"]: e["total"] for e in spectral_report["spectral"]["evaluations"]}
    for r in report["compare"]["rows"]:
        if r["spectral"] != totals.get(r["x"]):
            bad.append(f"compare: X={r['x']}: spectral {r['spectral']} != spectral-side {totals.get(r['x'])}")
        if r["difference"] != r["geometric_signed"] - r["spectral"]["re"]:
            bad.append(f"compare: X={r['x']}: difference column is inconsistent")
    return bad


# ---------------------------------------------------------------------------
# crosscheck: acceptance-battery tolerances


def certificate_gate(tail: float) -> list[str]:
    return [] if tail <= 1e-8 else [f"bridge: sigma=7 series tail {tail:.3g} > 1e-8"]


def bridge_gate(height: float, direct: float, transform: float) -> list[str]:
    """The transform must agree to 1e-6 once the height truncation
    O(e^{sigma X}/T^3) is below it (T >= 2000 at X = 1, sigma = 7)."""
    diff = abs(transform - direct)
    if not math.isfinite(diff):
        return [f"bridge: T={height:g}: non-finite transform"]
    if height >= 2000.0 and diff > 1e-6:
        return [f"bridge: T={height:g}: |transform - direct| = {diff:.3g} > 1e-6"]
    return []


def torus_gate(cell: str, discrepancy: float, budget: float, headline: bool) -> list[str]:
    bad = []
    if not discrepancy <= budget:
        bad.append(f"torus {cell}: discrepancy {discrepancy:.3g} > budget {budget:.3g}")
    if headline and not budget <= 1e-10:
        bad.append(f"torus {cell}: headline budget {budget:.3g} > 1e-10")
    return bad


def perron_oracle_gate(err_at_1000: float, slope: float, negatives: list[float]) -> list[str]:
    bad = []
    if not err_at_1000 <= 1e-5:
        bad.append(f"perron oracle: error at T=1000 is {err_at_1000:.3g} > 1e-5")
    if not abs(slope - 3.0) <= 0.3:
        bad.append(f"perron oracle: convergence rate {slope:.3f} is not 3 +/- 0.3")
    bad += [f"perron oracle: value {v:.3g} at negative u exceeds 1e-8" for v in negatives if not v <= 1e-8]
    return bad


def residue_gate(label: str, closed: complex, circle: complex) -> list[str]:
    d = abs(closed - circle)
    return [] if d <= 1e-8 else [f"residue {label}: |closed - circle| = {d:.3g} > 1e-8"]


def global_contour_gate(X: float, side: complex, contour: complex) -> list[str]:
    d = abs(side - contour)
    return [] if d <= 1e-6 else [f"global contour X={X:g}: |side - contour| = {d:.3g} > 1e-6"]


def annihilation_gate(label: str, g: list[complex]) -> list[str]:
    """The leading residue profile is exactly exponential in X."""
    rel = abs(g[0] - 2 * g[1] + g[2]) / abs(g[1])
    return [] if rel <= 1e-9 else [f"residue profile {label}: second difference {rel:.3g} > 1e-9"]
