"""Host-time spans recorded around the public entry points of each layer.

The wrappers live here, in the benchmark, not in `src/`: `instrumented()`
patches the entry points for the traced run only and restores every
original on exit, so untraced timings never pass through a wrapper.

Spans are kept in memory as parallel arrays (name, parent, start, end).
A span's self time is its duration minus the durations of its direct
children; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Hashable, Iterator, Optional, Sequence

from pels import asm, bus, core, harness, isa, periph

# (span name, owner, attribute, outcome test or None). An outcome test
# sees (result, args) and marks the call as a hit for the layer's ratio.
ENTRY_POINTS = (
    ("harness.load_scenario", harness, "load_scenario", None),
    ("harness.init", harness.Simulation, "__init__", None),
    ("harness.run", harness.Simulation, "run", None),
    # Simulation.__init__ binds Trace.emit into links and segments, so
    # the class is patched before any Simulation is built.
    ("harness.trace_emit", harness.Trace, "emit", None),
    ("harness.emit_trace", harness, "emit_trace", None),
    ("harness.compare", harness, "compare", None),
    ("harness.sweep", harness, "sweep", None),
    # harness imports assemble_text by name: patch both bindings.
    ("asm.assemble_text", asm, "assemble_text", None),
    ("asm.assemble_text", harness, "assemble_text", None),
    ("isa.decode", isa, "decode", None),
    ("core.link_step", core.Link, "step",
     lambda result, args: result is core.FsmState.IDLE and not args[0].fifo),
    ("core.fabric_settle", core.EventFabric, "settle", None),
    ("core.rising_trigger", core.EventFabric, "rising_trigger",
     lambda result, args: result),
    ("bus.step", bus.BusSegment, "step", None),
    ("bus.post", bus.BusSegment, "post", None),
    ("periph.tick", periph.RegisterBlock, "tick", None),
    ("periph.tick", periph.Timer, "tick", None),
    ("periph.tick", periph.Sensor, "tick", None),
    ("periph.baseline_step", periph.BaselineCpu, "step", None),
)


class SpanRecorder:
    """Spans of one traced pass, plus per-name hit counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits: dict[str, int] = {}
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             outcome: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        spans, stack = self, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans.start)
            spans.name.append(nid)
            spans.parent.append(stack[-1])
            spans.end.append(0.0)
            stack.append(i)
            spans.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[i] = perf_counter()
                stack.pop()
            if outcome is not None and outcome(result, args):
                spans.hits[name] = spans.hits.get(name, 0) + 1
            return result

        return wrapper

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in host seconds)."""
        by_id = self_times(self.name, self.parent, self.start, self.end)
        return {self.names[nid]: value for nid, value in by_id.items()}


def self_times(names: Sequence[Hashable], parent: Sequence[int],
               start: Sequence[float], end: Sequence[float]
               ) -> dict[Hashable, tuple[int, float]]:
    """Calls and self time per name for spans given as parallel sequences;
    `parent[i]` is the index of span i's enclosing span, or -1."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    totals: dict[Hashable, tuple[int, float]] = {}
    for i, name in enumerate(names):
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end[i] - start[i]) - covered[i])
    return totals


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Route every entry point in ENTRY_POINTS through `recorder`."""
    saved = []
    try:
        for name, owner, attr, outcome in ENTRY_POINTS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, outcome))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
