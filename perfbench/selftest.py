"""Self-test of the benchmark, at toy size.

    python3 perfbench/selftest.py

Runs every workload traced and untraced at toy size (cutoff 4, a 20-datum
spectrum, one bridge height), checks that each run reports exactly the
metrics BENCHMARK.json names with their units and passes its gates, that
every gate fails when fed a corrupted output, and that the benchmark
refuses to run where the program's sources are missing.  Takes a few
seconds; exits nonzero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import ROOT
import gates
import run
from sizes import TOY

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_runs() -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            out = run.run(w["name"], seed=7, seconds=0.0, trace=trace, sizes=TOY)
            doc = json.loads(run.result_line(out))
            label = f"{w['name']} trace={int(trace)}"
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(doc["correct"] and doc["failed"] == 0, f"{label}: gates failed: {out.failures[:5]}")
            expect(doc["attempted"] >= 1, f"{label}: no operations")
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            expect(got == wanted, f"{label}: metrics {sorted(set(got) ^ set(wanted))} differ from BENCHMARK.json")
            expect(all(v["value"] > 0 for v in doc["metrics"].values()), f"{label}: a metric reads 0")
            print(f"ok   {label}: {len(got)} metrics, {doc['attempted']} operations")
            if trace:  # the per-layer suite does not depend on the workload
                break


def check_gates_reject_corruption() -> None:
    want = gates.expected()[TOY.name]
    census = {"census": copy.deepcopy(want["census"])}
    poincare = {"series": {**copy.deepcopy(want["poincare"]), "growth": {"c_fit": want["poincare"]["c_fit"]}}}
    del poincare["series"]["c_fit"]
    smoothed = {"smoothed_count": copy.deepcopy(want["smoothed_count"])}
    xs = [row[0] for row in want["compare_geometric"]]
    spectral = {"spectral": {"data_count": 2, "evaluations": [
        {"x": x, "total": {"re": 0.5 * x, "im": 0.0}, "per_datum": [0, 0]} for x in xs]}}
    compare = {"compare": {"rows": [
        {"x": x, "geometric": g, "geometric_signed": gs, "census_size_used": n,
         "spectral": {"re": 0.5 * x, "im": 0.0}, "difference": gs - 0.5 * x}
        for x, g, gs, n in want["compare_geometric"]]}}

    def both(name, gate, doc, corrupt):
        expect(gate(doc) == [], f"{name}: gate rejects the frozen output")
        bad = copy.deepcopy(doc)
        corrupt(bad)
        expect(gate(bad) != [], f"{name}: gate accepts a corrupted output")
        print(f"ok   {name}: gate passes the true output and rejects a corrupted one")

    def nudge(x: float) -> float:
        return x * (1.0 + 1e-9)

    both("enumerate size", lambda r: gates.build_gate(r, TOY.name), census,
         lambda r: r["census"].update(size=r["census"]["size"] + 1))
    both("enumerate histogram", lambda r: gates.build_gate(r, TOY.name), census,
         lambda r: r["census"]["radius_histogram"][3].__setitem__(1, 0))
    both("poincare value", lambda r: gates.poincare_gate(r, TOY.name), poincare,
         lambda r: r["series"]["value"].update(re=nudge(r["series"]["value"]["re"])))
    both("poincare tail", lambda r: gates.poincare_gate(r, TOY.name), poincare,
         lambda r: r["series"].update(tail_bound=nudge(r["series"]["tail_bound"])))
    both("smoothed-count", lambda r: gates.smoothed_gate(r, TOY.name), smoothed,
         lambda r: r["smoothed_count"].update(census_size_used=r["smoothed_count"]["census_size_used"] - 1))
    both("spectral-side", lambda r: gates.spectral_gate(r, xs, 2), spectral,
         lambda r: r["spectral"].update(data_count=3))
    both("compare geometric", lambda r: gates.compare_gate(r, spectral, TOY.name), compare,
         lambda r: r["compare"]["rows"][0].update(geometric=nudge(r["compare"]["rows"][0]["geometric"])))
    both("compare spectral column", lambda r: gates.compare_gate(r, spectral, TOY.name), compare,
         lambda r: r["compare"]["rows"][-1]["spectral"].update(re=1.0 + r["compare"]["rows"][-1]["spectral"]["re"]))

    cases = [
        ("bridge", gates.bridge_gate(2000.0, 1.0, 1.0 + 5e-7), gates.bridge_gate(2000.0, 1.0, 1.0 + 2e-6)),
        ("certificate", gates.certificate_gate(3e-9), gates.certificate_gate(2e-8)),
        ("torus budget", gates.torus_gate("c", 1e-13, 1e-12, True), gates.torus_gate("c", 2e-12, 1e-12, False)),
        ("torus headline", gates.torus_gate("c", 1e-13, 1e-12, True), gates.torus_gate("c", 1e-13, 2e-10, True)),
        ("perron oracle", gates.perron_oracle_gate(1e-6, 3.0, [1e-9]), gates.perron_oracle_gate(1e-6, 2.5, [1e-9])),
        ("residue", gates.residue_gate("z", 1 + 1j, 1 + 1j + 1e-9), gates.residue_gate("z", 1 + 1j, 1 + 1j + 1e-7)),
        ("global contour", gates.global_contour_gate(1.0, 2.0, 2.0 + 1e-7), gates.global_contour_gate(1.0, 2.0, 2.1)),
        ("annihilation", gates.annihilation_gate("z", [1.0, 1.0, 1.0]), gates.annihilation_gate("z", [1.0, 1.1, 1.0])),
    ]
    for name, good, bad in cases:
        expect(good == [] and bad != [], f"{name}: gate does not separate good from corrupted input")
        print(f"ok   {name}: gate passes the true output and rejects a corrupted one")


def check_refuses_without_program() -> None:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark exits 0 without the program's sources")
    expect('"metrics"' not in proc.stdout, "benchmark prints a result without the program's sources")
    print("ok   refuses to run without the program's sources")


if __name__ == "__main__":
    check_gates_reject_corruption()
    check_refuses_without_program()
    check_runs()
    print("selftest passed")
