"""Spans recorded around calls into dsalign, kept in memory.

A span is (name, start_ns, end_ns, parent, pass_id).  Spans nest through a
stack, so a ``model.validate`` call made inside ``derive.derive_all`` gets
that span as its parent.  A span's self time is its duration minus the time
its children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


_NULL = nullcontext()


def no_span(name: str):
    """Stand-in for ``Tracer.span`` in untraced runs."""
    return _NULL


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id: int | None = None

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else None, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def traced_pass(self, pass_id: int):
        self.pass_id = pass_id
        try:
            with self.span("pass"):
                yield
        finally:
            self.pass_id = None

    def self_seconds_by_pass(self) -> dict[int, dict[str, float]]:
        """Per pass id, the summed self time of each span name, in seconds."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            if pass_id is not None:
                out[pass_id][name] += (end - start - child_ns[i]) / 1e9
        return out

    def counts_by_pass(self, name: str) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for span_name, _, _, _, pass_id in self.spans:
            if span_name == name and pass_id is not None:
                out[pass_id] += 1
        return out

    def write(self, handle, phase: str) -> None:
        """Append every span as one JSON line tagged with ``phase``."""
        for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
            record = {
                "phase": phase,
                "id": i,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "pass": pass_id,
            }
            handle.write(json.dumps(record) + "\n")


@contextmanager
def counting_validate(model_class, tracer: Tracer):
    """Record a ``model.validate`` span for every call, wherever it is made."""
    original = model_class.validate

    def validate(self):
        with tracer.span("model.validate"):
            return original(self)

    model_class.validate = validate
    try:
        yield
    finally:
        model_class.validate = original
