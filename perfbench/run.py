"""orbitcount benchmark.

    python3 perfbench/run.py --workload {build,query,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed).  One process drives the load, one workload
at a time; every process it starts has BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics of one workload:

* ``setup_s``     median of the workload's set-up, repeated ``setup_reps`` times;
* ``work_s``      wall time of one pass over the workload's operations,
                  each operation at its fastest over the run's passes;
* ``peak_rss_mb`` peak RSS of the processes that ran the work (``wait4``).

``--trace 1`` runs the per-layer suite of ``layers.py`` instead, with spans
recorded from the benchmark's own code.

Every output is checked (``gates.py``).  An operation is one CLI call or one
in-process step; it fails on a nonzero exit, an exception or a gate
mismatch.  Lines before the last one are a human-readable report; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from common import ROOT, Child, Outcome, run_child
import gates
from sizes import FULL, Sizes, write_spectrum

HERE = Path(__file__).resolve().parent


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "orbitcount.cli", *map(str, args)]


def run_op(out: Outcome, name: str, argv: list[str], work: Path, gate) -> tuple[Child, dict | None]:
    """One CLI call: counted, its JSON report parsed and gated."""
    child = run_child(argv, work)
    if child.code != 0:
        out.check([f"{name}: exit {child.code}: {child.stderr.strip()[-300:]}"])
        return child, None
    try:
        report = json.loads(child.stdout)
        failures = gate(report)
    except (ValueError, KeyError, TypeError) as exc:
        out.check([f"{name}: unreadable report: {exc!r}"])
        return child, None
    out.check(failures)
    return child, report


def timed_passes(seconds: float, one_pass) -> list:
    """Repeat ``one_pass`` until ``seconds`` have elapsed (at least once)."""
    results = []
    t_start = time.perf_counter()
    while not results or time.perf_counter() - t_start < seconds:
        results.append(one_pass())
    return results


def _finish(out: Outcome, setup: list[float], passes: list[dict], rss: list[float]) -> Outcome:
    """setup_s is the median set-up; work_s sums each operation's fastest
    time over the run's passes (see README.md for why the fastest)."""
    fastest = {op: min(p[op] for p in passes) for op in passes[0]}
    out.metrics["setup_s"] = (statistics.median(setup), "s")
    out.metrics["work_s"] = (sum(fastest.values()), "s")
    out.metrics["peak_rss_mb"] = (max(rss), "MB")
    for op, t in fastest.items():
        times = ", ".join(f"{p[op]:.4f}" for p in passes)
        out.notes.append(f"{op} {t!r} s (fastest of {len(passes)} passes: {times})")
    return out


# ---------------------------------------------------------------------------
# workloads


def workload_build(sizes: Sizes, seed: int, seconds: float, work: Path) -> Outcome:
    """``orbitcount enumerate`` through the CLI.  The census depends only on
    the cutoff, so the seed changes nothing here.  Set-up is a warm-up
    enumeration at cutoff 2 (bytecode, imports, file system)."""
    out = Outcome()
    census = work / "census.csv"
    setup = []
    for _ in range(sizes.setup_reps):
        child, _ = run_op(out, "warm-up", cli("enumerate", "--cutoff", 2, "--out", census), work, lambda r: [])
        setup.append(child.wall_s)
    rss = []

    def one_pass() -> dict:
        child, _ = run_op(
            out, "enumerate",
            cli("enumerate", "--cutoff", sizes.census_cutoff, "--out", census),
            work, lambda r: gates.build_gate(r, sizes.name),
        )
        rss.append(child.rss_mb)
        return {"enumerate_s": child.wall_s}

    passes = timed_passes(seconds, one_pass)
    return _finish(out, setup, passes, rss)


def workload_query(sizes: Sizes, seed: int, seconds: float, work: Path) -> Outcome:
    """Four CLI queries on a census built in set-up, with a seeded spectrum."""
    out = Outcome()
    census = work / "census.csv"
    spectrum = work / "spectrum.csv"
    setup = []
    for _ in range(sizes.setup_reps):
        t0 = time.perf_counter()
        run_op(
            out, "setup enumerate",
            cli("enumerate", "--cutoff", sizes.census_cutoff, "--out", census),
            work, lambda r: gates.build_gate(r, sizes.name),
        )
        data_count = write_spectrum(spectrum, sizes, seed)
        setup.append(time.perf_counter() - t0)
    if out.failed:
        raise RuntimeError("query set-up failed: " + "; ".join(out.failures))
    xs = ",".join(f"{x:g}" for x in sizes.query_xs)
    theta = str(sizes.theta)
    rss = []

    def one_pass() -> dict:
        times = {}

        def op(key, argv, gate):
            child, report = run_op(out, key, argv, work, gate)
            times[key + "_s"] = child.wall_s
            rss.append(child.rss_mb)
            return report

        op("poincare", cli("poincare", "--census", census, "--z", sizes.query_z),
           lambda r: gates.poincare_gate(r, sizes.name))
        op("smoothed_count", cli("smoothed-count", "--census", census, "--x", sizes.query_x),
           lambda r: gates.smoothed_gate(r, sizes.name))
        spectral_report = op(
            "spectral_side",
            cli("spectral-side", "--spectrum", spectrum, "--x", xs, "--theta", theta),
            lambda r: gates.spectral_gate(r, sizes.query_xs, data_count),
        )
        op("compare",
           cli("compare", "--census", census, "--spectrum", spectrum, "--x", xs, "--theta", theta),
           lambda r: gates.compare_gate(r, spectral_report or {"spectral": {"evaluations": []}}, sizes.name))
        return times

    passes = timed_passes(seconds, one_pass)
    return _finish(out, setup, passes, rss)


def workload_crosscheck(sizes: Sizes, seed: int, seconds: float, work: Path) -> Outcome:
    """The in-process verification session of ``session.py``, in one child."""
    out = Outcome()
    child = run_child(
        [sys.executable, str(HERE / "session.py"), "--sizes", sizes.name,
         "--seed", str(seed), "--seconds", repr(float(seconds))],
        work,
    )
    if child.code != 0:
        raise RuntimeError(f"crosscheck session exited {child.code}: {child.stderr.strip()[-500:]}")
    doc = json.loads(child.stdout)
    out.attempted, out.failed, out.failures = doc["attempted"], doc["failed"], doc["failures"]
    return _finish(out, [doc["setup_s"]], doc["passes"], [child.rss_mb])


WORKLOADS = {
    "build": workload_build,
    "query": workload_query,
    "crosscheck": workload_crosscheck,
}


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> Outcome:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=scratch))
    try:
        if trace:
            sys.path.insert(0, str(ROOT / "src"))
            import layers

            return layers.run(sizes, seed, work, scratch / f"spans-{workload}-{seed}.json")
        return WORKLOADS[workload](sizes, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(out: Outcome) -> str:
    return json.dumps(
        {
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="orbitcount benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its scratch files and ends its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "orbitcount" / "cli.py").is_file():
        print(f"error: no orbitcount sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in out.metrics.items():
        print(f"{name} {value!r} {unit}")
    for line in out.notes:
        print(line)
    for msg in out.failures[:20]:
        print(f"FAILED {msg}")
    print(f"fail_ratio {out.failed / out.attempted!r} ({out.failed} of {out.attempted} operations)")
    print(result_line(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
