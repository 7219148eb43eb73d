"""Command-line interface.

Subcommands
-----------
enumerate      build a census CSV for a gauge cutoff
poincare       evaluate the kernel series over a census with its tail bound
smoothed-count smoothed, product-weighted count below radius X
spectral-side  evaluate a spectrum file's expansion at one or more X
compare        geometric vs spectral columns over a list of X (no verdict)
oracle-torus   flat-torus two-sided identity check
perron-check   smoothing kernel: closed form vs finite contour integral

Every subcommand emits a JSON report (stdout by default, ``--report PATH``
to write a file).  Exit codes: 0 success, 1 invalid input/parameters,
2 numeric-convergence failure (uncertifiable tail or quadrature).

A subcommand accepts only the options it reads.  Besides its own inputs,
these run options, whose defaults are the library's (``meta.config``
records exactly the ones a subcommand takes):

enumerate      --budget
smoothed-count --ell --theta
spectral-side  --ell --theta
compare        --ell --theta
perron-check   --ell --theta

``poincare`` and ``oracle-torus`` take none; the torus's ``--nu``
(default 1) is a torus parameter.  The model space fixes the kernel
exponent nu = 2, |rho| = 1 and the free-space normalization C_G = 1
(``freespace.NU``, ``freespace.RHO_NORM``, ``freespace.C_G``);
``spectral-side`` and ``compare`` report nu and |rho|, and the growth
constants of the tail certificate, which ``poincare`` reports, are fixed
too.

Examples
--------
    orbitcount enumerate --cutoff 4 --out census4.csv
    orbitcount poincare --census census4.csv --z 6
    orbitcount smoothed-count --census census4.csv --x 1.5
    orbitcount compare --census census4.csv --spectrum spectrum.csv --x 1,1.5,2
    orbitcount oracle-torus --n 1 --nu 1 --lam -1 --point 0
    orbitcount perron-check --u 1.0 --height 1000
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import perron
from .errors import ConvergenceError, InputError
from .freespace import NU, RHO_NORM
from .lattice import DEFAULT_WORK_BUDGET, Census, enumerate_pruned, shell_counts
from .perron import (
    SmoothingParams,
    perron_contour_oracle,
    perron_sigma,
    smoothed_geometric_count,
    smoothing_kernel,
)
from .poincare import GrowthModel, series_eval
from .reports import base_meta, complex_fields, write_json
from .spectral import Spectrum, spectral_side_eval


def _smoothing(args) -> SmoothingParams:
    return SmoothingParams(ell=args.ell, theta=args.theta)


def _finite_float(raw: str) -> float:
    """argparse ``type=`` for float options: nan and +/-inf are bad input."""
    try:
        x = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {raw!r}")
    return x


# run option key -> (flag, type, default, help); the defaults are the library's
_OPTIONS = {
    "work_budget": ("--budget", int, DEFAULT_WORK_BUDGET, "work budget"),
    "ell": ("--ell", int, SmoothingParams.ell, "smoothing order"),
    "theta": ("--theta", _finite_float, SmoothingParams.theta, "smoothing step"),
}


def _add_options(p: argparse.ArgumentParser, fn, keys: tuple[str, ...]) -> None:
    """Add ``--report`` and the flags of the run options ``keys``; ``main``
    records exactly those keys in ``meta.config``.  The library call that
    reads an option refuses a bad value."""
    p.add_argument("--report", help="write the JSON report here (default: stdout)")
    for key in keys:
        flag, kind, default, text = _OPTIONS[key]
        p.add_argument(flag, dest=key, type=kind, default=default,
                       help=f"{text} (default {default})")
    p.set_defaults(fn=fn, keys=keys)


def _parse_floats(raw: str, what: str) -> list[float]:
    """A comma-separated list of finite floats (X values, a torus point)."""
    blank = [not s.strip() for s in raw.split(",")]
    if all(blank):
        raise InputError(f"empty {what} list")
    if any(blank):
        raise InputError(f"bad {what} list {raw!r}: entry {blank.index(True) + 1} is blank")
    try:
        xs = [float(s) for s in raw.split(",")]
    except ValueError as exc:
        raise InputError(f"bad {what} list {raw!r}: {exc}") from None
    if not all(math.isfinite(x) for x in xs):
        raise InputError(f"bad {what} list {raw!r}: every entry must be finite")
    return xs


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_enumerate(args) -> dict:
    census = enumerate_pruned(args.cutoff, budget=args.work_budget)
    census.to_csv(args.out)
    shells = census.shell_table
    return {
        "census": {
            "cutoff": args.cutoff,
            "path": args.out,
            "size": census.size,
            "compact_count": int(shells.count[0]),
            "max_gauge": float(np.exp(0.5 * shells.radius[-1])),
            "distinct_shells": len(shells.fnorm),
            "radius_histogram": [[left, n] for left, n in shell_counts(census, width=0.25)],
        },
    }


def _cmd_poincare(args) -> dict:
    census = Census.from_csv(args.census)
    model = GrowthModel()
    val = series_eval(census, complex(args.z, args.z_im), model=model)
    return {
        "series": {
            "z": complex_fields(val.z),
            "value": complex_fields(val.value),
            "tail_bound": val.tail,
            "required_abscissa": model.required_abscissa,
            "growth": {
                "sigma0": model.sigma0,
                "eps": model.eps,
                "safety": model.safety,
                "c_fit": val.prefactor,
            },
            "census_size": census.size,
            "shell_partial_sums": [
                {"fnorm": f, "count": n, "partial": complex_fields(p)}
                for f, n, p in val.shells
            ],
        },
    }


def _cmd_smoothed_count(args) -> dict:
    sm = _smoothing(args)
    census = Census.from_csv(args.census)
    out = smoothed_geometric_count(census, args.x, sm)
    return {
        "smoothed_count": {
            "x": out.X,
            "value": out.value,
            "ell": sm.ell,
            "theta": sm.theta,
            "census_size_used": out.census_size_used,
            "shell_subtotals": [
                {"fnorm": f, "subtotal": v} for f, v in out.shell_subtotals
            ],
        },
    }


def _cmd_spectral_side(args) -> dict:
    sm = _smoothing(args)
    spectrum = Spectrum.from_csv(args.spectrum)
    rows = []
    for x in _parse_floats(args.x, "X"):
        val = spectral_side_eval(spectrum, x, sm)
        rows.append(
            {
                "x": x,
                "total": complex_fields(val.total),
                "per_datum": [
                    {"label": lab, "value": complex_fields(v)}
                    for lab, v in val.per_datum
                ],
            }
        )
    return {
        "spectral": {
            "nu": NU,
            "rho_norm": RHO_NORM,
            "data_count": len(spectrum.data),
            "evaluations": rows,
        },
    }


def _cmd_compare(args) -> dict:
    sm = _smoothing(args)
    census = Census.from_csv(args.census)
    spectrum = Spectrum.from_csv(args.spectrum)
    rows = []
    for x in _parse_floats(args.x, "X"):
        geo = smoothed_geometric_count(census, x, sm)
        sp = spectral_side_eval(spectrum, x, sm)
        rows.append(
            {
                "x": x,
                "geometric": geo.value,
                "geometric_signed": geo.value,  # times (-1)^nu, +1 at nu = 2
                "spectral": complex_fields(sp.total),
                "difference": geo.value - sp.total.real,
                "census_size_used": geo.census_size_used,
            }
        )
    return {
        "compare": {
            "nu": NU,
            "ell": sm.ell,
            "theta": sm.theta,
            "rows": rows,
            "note": "differences are informational; no pass/fail is implied",
        },
    }


def _cmd_oracle_torus(args) -> dict:
    # imported here: no other command needs torus or special
    from .torus import TorusParams, torus_identity_check

    params = TorusParams(n=args.n, nu=args.nu, lam=args.lam)
    point = _parse_floats(args.point, "point") if args.point is not None else [0.0] * params.n
    cmp = torus_identity_check(params, np.asarray(point))
    return {
        "torus": {
            "n": params.n,
            "nu": params.nu,
            "lambda": params.lam,
            "point": list(cmp.x),
            "geometric": cmp.geometric,
            "geometric_tail": cmp.geometric_tail,
            "spectral": cmp.spectral,
            "spectral_tail": cmp.spectral_tail,
            "budget": cmp.budget,
            "discrepancy": cmp.discrepancy,
            "within_budget": cmp.within_budget,
        },
    }


def _cmd_perron_check(args) -> dict:
    sm = _smoothing(args)
    closed = float(smoothing_kernel(sm, args.u))
    contour = perron_contour_oracle(args.u, sm, height=args.height)
    return {
        "perron": {
            "u": args.u,
            "ell": sm.ell,
            "theta": sm.theta,
            "sigma": perron_sigma(args.u),
            "height": args.height,
            "closed_form": closed,
            "contour": complex_fields(contour.value),
            "abs_difference": abs(closed - contour.value.real),
            "quadrature_error_estimate": contour.error_estimate,
            "integrand_evaluations": contour.evaluations,
        },
    }


# ---------------------------------------------------------------------------


_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that starts with "-" as an option unless it
        # matches this pattern.  Its own (-1, -.5) has no exponent form and
        # would make ``--lam -1e-8`` "expect one argument"; this one takes
        # every negative float and float list (``--point -0.3,0.1``).
        self._negative_number_matcher = re.compile(rf"^-{_NUMBER}(,\s*[-+]?{_NUMBER})*$")

    def error(self, message):
        # A usage error is bad input (exit 1); exit 2 means "not certified".
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="orbitcount", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="build a census CSV")
    p.add_argument("--cutoff", type=_finite_float, required=True, help="gauge cutoff >= 1")
    p.add_argument("--out", required=True, help="census CSV path")
    _add_options(p, _cmd_enumerate, ("work_budget",))

    p = sub.add_parser("poincare", help="kernel series over a census")
    p.add_argument("--census", required=True)
    p.add_argument("--z", type=_finite_float, required=True, help="Re z (must exceed the certified abscissa)")
    p.add_argument("--z-im", type=_finite_float, default=0.0, help="Im z (default 0)")
    _add_options(p, _cmd_poincare, ())

    p = sub.add_parser("smoothed-count", help="smoothed weighted count below radius X")
    p.add_argument("--census", required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    _add_options(p, _cmd_smoothed_count, ("ell", "theta"))

    p = sub.add_parser("spectral-side", help="evaluate a spectrum file at X values")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--x", required=True, help="comma-separated X values")
    _add_options(p, _cmd_spectral_side, ("ell", "theta"))

    p = sub.add_parser("compare", help="geometric vs spectral columns (no verdict)")
    p.add_argument("--census", required=True)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--x", required=True, help="comma-separated X values")
    _add_options(p, _cmd_compare, ("ell", "theta"))

    p = sub.add_parser("oracle-torus", help="flat-torus identity check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--point", help="comma-separated coordinates (default origin)")
    p.add_argument("--nu", type=int, default=1, help="kernel power (default 1)")
    _add_options(p, _cmd_oracle_torus, ())

    p = sub.add_parser("perron-check", help="smoothing kernel vs contour integral")
    p.add_argument("--u", type=_finite_float, required=True, help="kernel argument X - r")
    p.add_argument("--height", type=_finite_float,
                   default=perron.perron_contour_oracle.__kwdefaults__["height"])
    _add_options(p, _cmd_perron_check, ("ell", "theta"))

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.fn(args)
        doc["meta"] = base_meta(args.command, {k: getattr(args, k) for k in args.keys})
        write_json(doc, args.report)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the run is out of memory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
