"""In-memory tracer for the traced benchmark run.

Wrappers installed from here time the calls the program makes into each
layer's public functions; nothing in the program changes.  Coarse calls (the
job, each CLI call, each audit or replicate, each protocol and p-value, each
write) become spans with a parent.  Per-step calls (parsing or drawing a
record, a session step, a payoff helper) are folded into a count and busy
time on the span that encloses them, so memory grows with the number of
audits and p-values, never with the number of records.  A span's self time
is its duration minus what its child spans and folded calls cover; a folded
call's self time excludes the folded calls nested inside it.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_now = time.perf_counter_ns


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int
    end: int = 0
    child_ns: int = 0
    # name -> [calls, busy ns, self ns, items returned]
    folded: dict[str, list[int]] = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name, "start_ns": self.start,
            "end_ns": self.end, "self_ns": self.self_ns, "folded": self.folded,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # Open frames, innermost last: [ns covered by children, enclosing span].
        self._stack: list[list] = []

    def _open(self, name: str) -> tuple[Span, list]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), None if parent is None else parent[1].id, name, 0)
        self.spans.append(span)
        frame = [0, span]
        self._stack.append(frame)
        span.start = _now()
        return span, frame

    def _close(self, span: Span, frame: list) -> None:
        span.end = _now()
        self._stack.pop()
        span.child_ns = frame[0]
        if self._stack:
            self._stack[-1][0] += span.end - span.start

    @contextmanager
    def span(self, name: str):
        span, frame = self._open(name)
        try:
            yield span
        finally:
            self._close(span, frame)

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span, frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, frame)
        return wrapper

    def folded(self, name: str, fn, sized: bool = False):
        """``fn`` wrapped so that each call adds to the enclosing span's
        counters under ``name``; ``sized`` also counts the items returned.
        A call that ends the iteration it serves (StopIteration) adds its
        time but not a call."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            counted = 1
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except StopIteration:
                counted = 0
                raise
            finally:
                dt = _now() - t0
                stack.pop()
                parent[0] += dt
                c = parent[1].folded.get(name)
                if c is None:
                    c = parent[1].folded[name] = [0, 0, 0, 0]
                c[0] += counted
                c[1] += dt
                c[2] += dt - frame[0]
            if sized:
                c[3] += len(result)
            return result
        return wrapper

    def iterator(self, name: str, iterable) -> "FoldedIterator":
        return FoldedIterator(self.folded(name, iter(iterable).__next__))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


class FoldedIterator:
    """An iterator whose every ``next`` is a folded call."""

    __slots__ = ("_next",)

    def __init__(self, next_fn):
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


# Folded names of the iterators the engine pulls records from.
INPUT_KINDS = ("ingest.parse", "simulate.stream", "engine.input")
PAYOFF_HELPERS = ("batch_push", "batch_payoff", "propensity_context", "payoff_propensity")
WRITERS = ("emit_report", "write_trajectory_csv", "write_summary_csv")


@contextmanager
def installed(tracer: Tracer):
    """Patch the program's modules so every call the layers make into one
    another goes through ``tracer``; restore them on exit."""
    from seqaudit import baselines, cli, engine, ingest, simulate

    saved: list[tuple[object, str, object]] = []

    def patch(module, attr: str, wrapper) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    parse_stream = ingest.parse_stream
    stream_to_iterable = simulate.stream_to_iterable
    run_stream = engine.run_stream
    run_stream_span = tracer.spanned("engine.run_stream", run_stream)

    def traced_run_stream(config, stream, *args, **kwargs):
        if not isinstance(stream, FoldedIterator):
            stream = tracer.iterator("engine.input", stream)
        return run_stream_span(config, stream, *args, **kwargs)

    patch(ingest, "parse_stream",
          lambda *a, **k: tracer.iterator("ingest.parse", parse_stream(*a, **k)))
    patch(simulate, "stream_to_iterable",
          lambda *a, **k: tracer.iterator("simulate.stream", stream_to_iterable(*a, **k)))
    patch(cli, "run_stream", traced_run_stream)
    patch(simulate, "run_stream", traced_run_stream)
    patch(engine, "session_step", tracer.folded("engine.step", engine.session_step))
    for helper in PAYOFF_HELPERS:
        patch(engine, helper, tracer.folded(f"payoffs.{helper}", getattr(engine, helper)))
    patch(simulate, "draw_records", tracer.folded("simulate.draw", simulate.draw_records, sized=True))
    patch(simulate, "generate_stream", tracer.spanned("simulate.generate_stream", simulate.generate_stream))
    patch(baselines, "run_protocol", tracer.spanned("baselines.run_protocol", baselines.run_protocol))
    patch(baselines, "permutation_pvalue",
          tracer.spanned("baselines.pvalue", baselines.permutation_pvalue))
    for writer in WRITERS:
        patch(ingest, writer, tracer.spanned("ingest.write", getattr(ingest, writer)))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_figures(spans: list[Span]) -> dict:
    """Totals per layer from a list of spans: counts, busy and self times in
    nanoseconds.  Nothing here knows about workloads."""
    tot: dict[str, int] = {}

    def add(key: str, value: int) -> None:
        tot[key] = tot.get(key, 0) + value

    for span in spans:
        add(f"span:{span.name}:count", 1)
        add(f"span:{span.name}:dur", span.end - span.start)
        add(f"span:{span.name}:self", span.self_ns)
        for name, (calls, busy, self_ns, items) in span.folded.items():
            layer = name.split(".")[0]
            for key in {f"fold:{name}", f"fold:{layer}"}:
                add(f"{key}:calls", calls)
                add(f"{key}:self", self_ns)
                add(f"{key}:items", items)
            if span.name == "engine.run_stream" and name in INPUT_KINDS:
                add("engine:records_pulled", calls)
                if name != "ingest.parse":
                    add("engine:simulated_records_pulled", calls)
    return tot
