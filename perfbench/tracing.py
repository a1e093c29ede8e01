"""In-memory spans around the calls the benchmark makes into the library.

A span records its name, its start and end on ``perf_counter``, the
span that was open when it began, the operation it belongs to, and the
class of the exception that ended it, if any.  Spans stay in memory and
are written out when the run ends.  Untraced calls go through
``NullTracer``, which calls straight through.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        # [id, parent, op, name, start, end, error]
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        op = self.spans[parent][2] if parent is not None else None
        if op is None and name.startswith("op."):
            op = sid
        record = [sid, parent, op, name, perf_counter(), None, None]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        except BaseException as exc:
            record[6] = type(exc).__name__
            raise
        finally:
            record[5] = perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the time its
        child spans cover, over the spans from index ``first`` on."""
        spans = self.spans[first:]
        totals: dict[str, float] = {}
        for sid, parent, _, name, start, end, _ in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if parent is not None and parent >= first:
                pname = self.spans[parent][3]
                totals[pname] = totals.get(pname, 0.0) - (end - start)
        return totals

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "error")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")
