"""Paired benchmark runs of two checkouts, and their summary.

    python3 tools/paired_bench.py PARENT CHANGE [--workload W ...]
        [--pairs N] [--seconds S] [--seed SEED]

PARENT and CHANGE are two source checkouts, each with its own
``perfbench/``.  For each workload, pair i runs

    python3 perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0

once in each checkout, one process at a time.  The parent goes first in
even pairs and the change first in odd ones, so a drift in the machine's
speed falls on both sides alike.  Each run's last stdout line is its JSON
result.

For every metric the summary gives each side's median, quartiles and
interquartile range (IQR), and the number of pairs the change won: it read
better, in the metric's direction from the change's ``BENCHMARK.json``
(lower when the metric is not listed there).  A metric is "unresolved"
when the parent's IQR exceeds the distance between the two medians: the
runs then cannot tell the sides apart.  Failed operations are summed per
side, beside the count of runs that ended without a result.
The text goes to stdout, and its last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("build", "query", "crosscheck")
SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of one side's values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[tuple[float, float]], better: str = "lower") -> dict:
    """Summary of one metric from its (parent, change) value pairs."""
    parent, change = (spread([p[i] for p in pairs]) for i in (0, 1))
    sign = 1.0 if better == "lower" else -1.0
    return {
        "better": better,
        "pairs": len(pairs),
        "parent": parent,
        "change": change,
        "change_won": sum(sign * (c - p) < 0 for p, c in pairs),
        "unresolved": parent["iqr"] > abs(change["median"] - parent["median"]),
    }


def directions(checkout: Path) -> dict[str, str]:
    """Each metric's better direction, from the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run; its JSON result, or None if it ended without one."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_workload(checkouts: dict[str, Path], workload: str, pairs: int, seed: int,
                 seconds: float, better: dict[str, str]) -> dict:
    runs: dict[str, list] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(checkouts[side], workload, seed + i, seconds))
        print(f"  {workload} pair {i + 1}/{pairs}", file=sys.stderr)
    complete = [i for i in range(pairs) if all(runs[s][i] is not None for s in SIDES)]
    names = sorted(set.intersection(*(
        set(runs[s][i]["metrics"]) for s in SIDES for i in complete)) if complete else set())
    return {
        "metrics": {
            name: summarize([tuple(runs[s][i]["metrics"][name]["value"] for s in SIDES)
                             for i in complete], better.get(name, "lower"))
            for name in names
        },
        "failed": {s: sum(r["failed"] for r in runs[s] if r) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in runs[s] if r) for s in SIDES},
        "runs_without_result": {s: sum(r is None for r in runs[s]) for s in SIDES},
    }


def report_lines(workload: str, result: dict) -> list[str]:
    def side(s: dict) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] IQR {s['iqr']:.3g}"

    lines = []
    for name, m in result["metrics"].items():
        lines.append(
            f"{workload} {name} ({m['better']} is better): parent {side(m['parent'])}; "
            f"change {side(m['change'])}; change won {m['change_won']}/{m['pairs']}"
            + ("; unresolved" if m["unresolved"] else "")
        )
    f, a, n = result["failed"], result["attempted"], result["runs_without_result"]
    lines.append(
        f"{workload} failed operations: parent {f['parent']} of {a['parent']}, change "
        f"{f['change']} of {a['change']}; runs without a result: parent {n['parent']}, "
        f"change {n['change']}"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="paired parent/change benchmark runs")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(checkouts["change"])
    summary = {}
    for workload in args.workload or WORKLOADS:
        summary[workload] = run_workload(checkouts, workload, args.pairs, args.seed,
                                         args.seconds, better)
        print("\n".join(report_lines(workload, summary[workload])), flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
