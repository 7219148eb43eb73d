"""Run configuration: defaults, key=value files, CLI overrides.

Config files are flat ``key = value`` lines ('#' comments, blank lines
ignored).  Keys match the dataclass fields below; unknown keys are input
errors so typos cannot silently fall back to defaults.  Precedence is
defaults < file < explicit CLI flags.

The fields are only what a run may vary.  Values that the model space or
the tail certificate fix are constants where they are used: the kernel
exponent nu = 2 and |rho| = 1 in :mod:`orbitcount.freespace`, the growth
model in :class:`orbitcount.poincare.GrowthModel`; enumeration runs on
one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .errors import InputError
from .lattice import DEFAULT_WORK_BUDGET


@dataclass
class RunConfig:
    c_g: float = 1.0            # free-space normalization constant
    ell: int = 2                # smoothing order
    theta: float = 1.0          # smoothing step
    work_budget: int = DEFAULT_WORK_BUDGET
    quad_tol: float = 1e-9      # contour quadrature absolute tolerance

    def validate(self) -> "RunConfig":
        if self.ell < 1:
            raise InputError("ell must be >= 1")
        if self.theta <= 0:
            raise InputError("theta must be > 0")
        if self.work_budget < 1:
            raise InputError("work_budget must be >= 1")
        if self.quad_tol <= 0:
            raise InputError("quad_tol must be > 0")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str) -> Any:
    ftype = _FIELD_TYPES[key]
    try:
        if ftype == "int":
            return int(raw)
        if ftype != "float":
            return raw
        x = float(raw)
    except ValueError:
        raise InputError(f"config key {key}: cannot parse {raw!r}") from None
    if not math.isfinite(x):
        raise InputError(f"config key {key}: {raw!r} is not a finite number")
    return x


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Parse a key=value file into a {field: value} dict."""
    out: dict[str, Any] = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InputError(f"{path}:{ln}: expected 'key = value'")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise InputError(f"{path}:{ln}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def build_config(file_path: str | None, overrides: dict[str, Any]) -> RunConfig:
    """defaults < file < overrides (None-valued overrides are skipped)."""
    vals: dict[str, Any] = {}
    if file_path:
        vals.update(load_config_file(file_path))
    for k, v in overrides.items():
        if v is not None:
            if k not in _FIELD_TYPES:
                raise InputError(f"unknown config override {k!r}")
            vals[k] = v
    return RunConfig(**vals).validate()
