"""Spans and counts recorded around the benchmark's calls into pdlkit.

Spans are kept in memory as [name, start, end, parent, op, error] and
written out when the run ends. Both tracers give every call the same
stack depth (one frame between the caller and pdlkit), so a formula
that exhausts the recursion limit does so traced or not.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, label=None, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op) -> None:
        pass

    def end_op(self) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    """Records a span per call and sums counts by name."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._op = None

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, index: int, error) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = error
        self._open.pop()

    def begin_op(self, op) -> None:
        self._op = op
        self._start("op")

    def end_op(self) -> None:
        self._finish(self._open[-1], None)
        self._op = None

    def call(self, name, fn, *args, label=None, **kwargs):
        """Run fn inside a span; label(result), if given, suffixes the name."""
        index = self._start(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            self._finish(index, type(err).__name__)
            raise
        self._finish(index, None)
        if label is not None:
            self.spans[index][0] = f"{name}.{label(result)}"
        return result

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, summed by name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, _), inner in zip(self.spans, covered):
            totals[name] += end - start - inner
        return totals

    def errors_by_module(self) -> dict[str, int]:
        """Spans that raised, by the module prefix of their name."""
        errors: dict[str, int] = defaultdict(int)
        for name, _, _, _, _, error in self.spans:
            if error is not None:
                errors[name.split(".")[0]] += 1
        return errors

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            keys = ("name", "start", "end", "parent", "op", "error")
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
