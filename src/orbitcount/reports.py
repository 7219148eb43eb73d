"""Report serialization: JSON documents.

Floats go through Python's shortest-round-trip ``repr``, which preserves
the exact same bits on parse.

Reruns with identical inputs and configuration produce byte-identical
documents except for the single ``meta.generated_at`` timestamp field.
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
