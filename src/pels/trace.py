"""Trace records: the versioned schema, level filtering and JSON Lines output.

Trace format 2 is JSON Lines, one record per line. Every record has
`kind`; every record but `header` has `t`, the cycle it belongs to.

    header    version, scenario_digest, stimulus_digest, trace_level
    stimulus  line, level               a stimulus setting was applied
    fabric    inputs, outputs           the settled input vector or the
                                        output levels changed (hex strings)
    trigger   link, token, status       a trigger edge; status "accepted"
                                        or "dropped" (FIFO full)
    program   link, token, event        event "start", "complete" (with
              [, latency]               latency in cycles) or "aborted"
    action    link, group, mode, out    an action command drove its group;
                                        out is the new output vector (hex)
    link      link, fsm, pc             the FSM state whose work ran this
                                        cycle and the program counter;
                                        written only when (fsm, pc) differs
                                        from the link's previous record
    error     link, detail              a bus or decode failure aborted
                                        the link's program
    bus       seg, event, master, rw,   event "request", "grant" (with wait,
              addr [, wait] [, data]    cycles since the request) or
              [, error]                 "complete" (with data: the read or
                                        written word, hex; error on a
                                        decode failure, when a read has
                                        no data)
    baseline  event, completion |       event "irq" (with its completion
              latency                   cycle) or "handled" (with latency)
    end       reason                    "quiescent" or "clock_limit";
                                        t is the last simulated cycle

Level "off" keeps header and end, "grants" adds bus and error, "full"
keeps every kind. Version 1 wrote a `link` record for every link on
every cycle.

`SHAPES` is the schema in code: one `Shape` per key layout and set of
constants. A constant field's JSON is baked into the template. Shapes
that differ only by a constant form a family, a tuple indexed by the
code the emit site holds and built from the table that spells it:
`ACTION[mode]` and `LINK[state]` in core.py, `BUS_REQUEST[kind]` and the
other bus families in bus.py. An emit site passes its shape and the
other values in field order, `trace(BUS_GRANT[kind], t, seg, master,
address, wait)`; addresses and vectors stay ints until rendered.

A `Trace` holds only its open chunk in memory: the shapes of up to
`_CHUNK` records and their values, flat. A full chunk is rendered once,
to bytes, by one `%` (its shapes' templates joined into one format, so
the per-record work runs in C) and written to the spill, an unbuffered
anonymous temporary file, closed when the `Trace` is dropped. A record
with an IDENT or TEXT field (`header`, `end`, errors) renders alone,
through `json.dumps`. A trace at level `off` opens its spill only if it
fills a chunk, which `header` and `end` never do.

`emit_trace` copies the spill, read by position in blocks of at most
`_BLOCK` bytes, then renders the open chunk. Iterating a `Trace` parses
the same lines with `json.loads`, so a field's template conversion is
the one statement of its JSON form.
"""

from __future__ import annotations

import json
import os
import tempfile
import weakref
from operator import attrgetter
from pathlib import Path

TRACE_LEVELS = ("off", "grants", "full")
TRACE_FORMAT_VERSION = 2
# Records per trace chunk, the unit rendered and written at once. A larger
# chunk spends less per record on its write and join: on the bench
# workloads, 256 made a traced pass 0-3% faster than 128, and 512 at most
# 5% more for about 60 KiB more tracemalloc peak (2 vCPU, Python 3.11.7).
_CHUNK = 256
_BLOCK = 16 * 1024  # the most bytes read from the spill at a time

# Field formats: each field's JSON form, as its template conversion.
INT = "%d"
IDENT = '"%s"'      # a name from a fixed set; never needs escapes
HEX = '"0x%x"'      # an output or input vector
WORD = '"0x%08x"'   # a bus address or data word
TEXT = "%s"         # free-form; json.dumps'd when serialised

SHAPES: list[Shape] = []  # every shape, in the order it was built
_ALONE: set[Shape] = set()  # the shapes whose records render alone


class Shape:
    """One record layout: its kind, the lowest level rank that keeps it
    (`TRACE_LEVELS` index) and its fields in key order: (name, format),
    given a value by each emit (`width` counts them), or (name, format,
    value), a constant."""

    __slots__ = ("kind", "rank", "fields", "width", "alone", "template", "render")

    def __init__(self, kind: str, rank: int, *fields: tuple):
        self.kind, self.rank, self.fields = kind, rank, fields
        formats = [fmt for _, fmt, *const in fields if not const]
        self.width = len(formats)
        # a constant's JSON is its format applied once, here
        keys = "".join(
            f',"{name}":' + ((fmt % const[0]).replace("%", "%%") if const else fmt)
            for name, fmt, *const in fields)
        template = f'{{"kind":"{kind}"{keys}}}\n'
        self.template = template.encode()
        # a str value (IDENT, TEXT) has no bytes `%` form: render it alone
        self.alone = IDENT in formats or TEXT in formats
        if not self.alone:
            self.render = self.template.__mod__
        else:
            def render(values):
                return (template % tuple(
                    json.dumps(value) if fmt == TEXT else value
                    for fmt, value in zip(formats, values))).encode()
            self.render = render
            _ALONE.add(self)
        SHAPES.append(self)


_T = ("t", INT)
_LINK = ("link", INT)

HEADER = Shape("header", 0, ("version", INT), ("scenario_digest", TEXT),
               ("stimulus_digest", TEXT), ("trace_level", IDENT))
END = Shape("end", 0, _T, ("reason", IDENT))
ERROR = Shape("error", 1, _T, _LINK, ("detail", TEXT))
STIMULUS = Shape("stimulus", 2, _T, ("line", INT), ("level", INT))
FABRIC = Shape("fabric", 2, _T, ("inputs", HEX), ("outputs", HEX))
TRIGGER_ACCEPTED, TRIGGER_DROPPED = (
    Shape("trigger", 2, _T, _LINK, ("token", INT), ("status", IDENT, status))
    for status in ("accepted", "dropped"))
PROGRAM_START, PROGRAM_ABORTED = (
    Shape("program", 2, _T, _LINK, ("token", INT), ("event", IDENT, event))
    for event in ("start", "aborted"))
PROGRAM_COMPLETE = Shape("program", 2, _T, _LINK, ("token", INT),
                         ("event", IDENT, "complete"), ("latency", INT))
BASELINE_IRQ = Shape("baseline", 2, _T, ("event", IDENT, "irq"),
                     ("completion", INT))
BASELINE_HANDLED = Shape("baseline", 2, _T, ("event", IDENT, "handled"),
                         ("latency", INT))

_template = attrgetter("template")


def _render(shapes: list, values: list) -> bytes:
    """The JSON lines of one chunk's records, `values` holding their
    values in order: one bytes `%` for each run of plain records, and a
    record with a str field alone, by `Shape.render`."""
    if _ALONE.isdisjoint(shapes):
        return b"".join(map(_template, shapes)) % tuple(values)
    parts = []
    run = j0 = j = 0  # the plain run's first record and first value
    for k, shape in enumerate(shapes):
        if shape.alone:
            parts.append(b"".join(map(_template, shapes[run:k])) % tuple(values[j0:j]))
            j0 = j + shape.width
            parts.append(shape.render(values[j:j0]))
            run = k + 1
        j += shape.width
    parts.append(b"".join(map(_template, shapes[run:])) % tuple(values[j0:]))
    return b"".join(parts)


class Trace:
    """Level-filtered, deterministic record store. `emit(shape, *values)`
    adds the record to the open chunk when the level keeps the shape, a
    full chunk going to the spill first; iteration yields each record as
    the dict its JSON line encodes."""

    def __init__(self, level: str = "full"):
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown level {level!r}")
        self.level, self._rank = level, TRACE_LEVELS.index(level)
        self._shapes, self._values = [], []  # the open chunk's shapes; values
        self._spilled = 0  # records in the spill
        self._spill = None if level == "off" else self._open_spill()

    def _open_spill(self):
        spill = self._spill = tempfile.TemporaryFile(buffering=0)
        weakref.finalize(self, spill.close)
        return spill

    def emit(self, shape, *values) -> None:
        if shape.rank <= self._rank:
            if len(self._shapes) >= _CHUNK:
                self._freeze()
            self._shapes.append(shape)
            self._values.extend(values)

    def _freeze(self) -> None:
        """Write the open chunk's lines to the spill and empty it."""
        shapes = self._shapes
        lines = _render(shapes, self._values)
        if (self._spill or self._open_spill()).write(lines) != len(lines):
            raise OSError("short write to the trace spill")  # a full disk
        self._spilled += len(shapes)
        shapes.clear()
        self._values.clear()

    def _blocks(self):
        """The trace's JSON lines, as bytes: the spill, read by position
        so its write position never moves, then the open chunk."""
        spill = self._spill
        if spill is not None:
            fd, pos = spill.fileno(), 0
            while block := os.pread(fd, _BLOCK, pos):
                pos += len(block)
                yield block
        yield _render(self._shapes, self._values)

    def __len__(self) -> int:
        return self._spilled + len(self._shapes)

    def __iter__(self):
        rest = b""  # a line split across blocks
        for block in self._blocks():
            *lines, rest = (rest + block).split(b"\n")
            yield from map(json.loads, lines)


def emit_trace(report, sink) -> None:
    """Write `report.trace` as JSON Lines, one block at a time: bytes to
    a path, ASCII text to a text stream; byte-identical across reruns."""
    own = isinstance(sink, (str, Path))
    out = open(sink, "wb") if own else sink
    try:
        for block in report.trace._blocks():
            out.write(block if own else block.decode("ascii"))
    finally:
        if own:
            out.close()
