"""Re-freeze golden reports in tests/data/reports/ from the current program.

Runs the ``RUNS`` entries of tests/test_reports.py for the named reports, in
a temporary directory that holds the test spectrum as ``spectrum.csv`` and
the cutoff-4 census the census-reading runs use, and writes each report to
tests/data/reports/NAME.json.  Before it writes a report it prints every
field that differs from the file it replaces, old -> new, with the relative
change of a number.  Re-freeze a report only for a change that is intended
and declared: the golden check compares every field but
``meta.generated_at``.

Usage: python3 tools/freeze_reports.py NAME [NAME ...]
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from orbitcount import cli  # noqa: E402
from test_reports import GOLDEN, RUNS, SPECTRUM  # noqa: E402


def changes(old, new, where: str):
    """(field, old, new) for every leaf that differs; a missing one is None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from changes(old.get(key), new.get(key), f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changes(a, b, f"{where}[{i}]")
    elif not where.endswith(".meta.generated_at") and (type(old) is not type(new) or old != new):
        yield where, old, new


def show_changes(name: str, old, new) -> None:
    diffs = list(changes(old, new, name)) if old is not None else []
    for where, a, b in diffs:
        line = f"  {where}: {a!r} -> {b!r}"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)) and a:
            line += f" (relative {(b - a) / abs(a):+.2e})"
        print(line)
    if old is None:
        print(f"  {name}: new report")
    elif not diffs:
        print(f"  {name}: no field changed")


def freeze(names: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("spectrum.csv").write_text(SPECTRUM)
            if cli.main(RUNS["enumerate"] + ["--report", os.devnull]) != 0:
                sys.exit("enumerate failed; nothing written")
            for name in names:
                out, fresh = GOLDEN / f"{name}.json", Path(f"{name}.json")
                if cli.main(RUNS[name] + ["--report", str(fresh)]) != 0:
                    sys.exit(f"{name} failed; it and the names after it were not written")
                old = json.loads(out.read_text()) if out.exists() else None
                show_changes(name, old, json.loads(fresh.read_text()))
                out.write_bytes(fresh.read_bytes())
                print(f"wrote {out.relative_to(ROOT)}")
        finally:
            os.chdir(ROOT)


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = [n for n in names if n not in RUNS]
    if not names or unknown:
        sys.exit(f"usage: freeze_reports.py NAME [NAME ...]; NAME is one of {', '.join(RUNS)}")
    freeze(names)
