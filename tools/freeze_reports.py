"""Re-freeze golden reports in tests/data/reports/ from the current program.

Runs the ``RUNS`` entries of tests/test_reports.py for the named reports, in
a temporary directory that holds the test spectrum as ``spectrum.csv`` and
the cutoff-4 census the census-reading runs use, and writes each report to
tests/data/reports/NAME.json.  Re-freeze a report only for a change that is
intended and declared: the golden check compares every field but ``meta``.

Usage: python3 tools/freeze_reports.py NAME [NAME ...]
"""

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from orbitcount import cli  # noqa: E402
from test_reports import GOLDEN, RUNS, SPECTRUM  # noqa: E402


def freeze(names: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("spectrum.csv").write_text(SPECTRUM)
            if cli.main(RUNS["enumerate"] + ["--report", os.devnull]) != 0:
                sys.exit("enumerate failed; nothing written")
            for name in names:
                out = GOLDEN / f"{name}.json"
                if cli.main(RUNS[name] + ["--report", str(out)]) != 0:
                    sys.exit(f"{name} failed; it and the names after it were not written")
                print(f"wrote {out.relative_to(ROOT)}")
        finally:
            os.chdir(ROOT)


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = [n for n in names if n not in RUNS]
    if not names or unknown:
        sys.exit(f"usage: freeze_reports.py NAME [NAME ...]; NAME is one of {', '.join(RUNS)}")
    freeze(names)
