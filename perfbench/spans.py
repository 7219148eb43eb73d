"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, rep): ``parent`` is the index of the
enclosing span (or -1) and ``rep`` numbers the repetition of a timed call,
so the spans of one repetition share an identifier.  A layer's self time is
its span's duration minus the time its child spans cover.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    """Records spans and work counters from the benchmark's own code."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.rep = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else -1,
            "rep": self.rep,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """Callable that runs ``fn`` inside a span (for callbacks a layer calls)."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_seconds(self, name: str) -> float:
        """Median over repetitions of the summed self time of spans ``name``."""
        per_rep: dict[int, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s["name"] == name:
                per_rep[s["rep"]] = per_rep.get(s["rep"], 0.0) + own
        if not per_rep:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(per_rep.values())

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": self.spans, "self_s": self.self_times(), "counters": self.counters}
        path.write_text(json.dumps(doc) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans and counters cost nothing."""

    rep = 0

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount: float) -> None:
        pass

    def wrap(self, name: str, fn):
        return fn
