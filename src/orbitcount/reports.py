"""Report serialization: JSON documents.

Floats go through Python's shortest-round-trip ``repr``, which preserves
the exact same bits on parse.

Reruns with identical inputs and configuration on one machine produce
byte-identical documents except for the single ``meta.generated_at``
timestamp field.  Across machines a float may move in its last bits: numpy's
SIMD paths (AVX-512 on x86) round ``exp``, ``sinh``, ``arccosh`` and
``expm1`` unlike libm on some inputs.  With and without them, ``poincare
--z 6`` on the cutoff-4 census differs in 1 float (1.3e-16 relative) and
``compare`` in 3 (at most 3.9e-16); the golden-report check's 1e-14
relative tolerance absorbs both.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from . import __version__


def base_meta(command: str, config: dict[str, Any]) -> dict[str, Any]:
    return {
        "tool": "orbitcount",
        "version": __version__,
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": dict(sorted(config.items())),
    }


def complex_fields(z: complex) -> dict[str, float]:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def write_json(doc: dict[str, Any], path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
