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

`SHAPES` is the schema in code: one `Shape` per key layout, so each
optional key above makes a shape of its own. An emit site passes its
shape and the raw values in field order, `trace(BUS_GRANT, t, seg,
"grant", master, rw, address, wait)`; addresses and vectors stay ints
until a record is serialised or viewed. A `Trace` keeps them flat, each
shape then its `width` values, in lists of about `_CHUNK` slots, so no
record costs an object and a long trace never copies itself to grow;
`emit_trace` renders each by its shape's `%` template, `Records` as a dict.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

TRACE_LEVELS = ("off", "grants", "full")
TRACE_FORMAT_VERSION = 2
_CHUNK = 1024  # slots per chunk of a trace's flat rows

# Field formats: (template conversion, dict-view conversion).
INT = ("%d", None)
IDENT = ('"%s"', None)         # a name from a fixed set; never needs escapes
HEX = ('"0x%x"', "0x%x")       # an output or input vector
WORD = ('"0x%08x"', "0x%08x")  # a bus address or data word
TEXT = ("%s", None)            # free-form; json.dumps'd when serialised


class Shape:
    """One record layout: its kind, the lowest level rank that keeps it
    (`TRACE_LEVELS` index), its fields in key order and their number."""

    __slots__ = ("kind", "rank", "fields", "width", "template", "render")

    def __init__(self, kind: str, rank: int, *fields: tuple[str, tuple]):
        self.kind = kind
        self.rank = rank
        self.fields = fields
        self.width = len(fields)
        keys = "".join(f',"{name}":{fmt[0]}' for name, fmt in fields)
        self.template = f'{{"kind":"{kind}"{keys}}}\n'
        text = [i for i, (_, fmt) in enumerate(fields) if fmt is TEXT]
        if not text:
            self.render = self.template.__mod__
        else:
            def render(values, template=self.template):
                values = list(values)
                for i in text:
                    values[i] = json.dumps(values[i])
                return template % tuple(values)
            self.render = render

    def as_dict(self, values: tuple) -> dict:
        record = {"kind": self.kind}
        for (name, fmt), value in zip(self.fields, values):
            record[name] = value if fmt[1] is None else fmt[1] % value
        return record

    def __repr__(self) -> str:
        return f"Shape({self.kind!r}, {[name for name, _ in self.fields]})"


_T = ("t", INT)
_LINK = ("link", INT)
_BUS = (_T, ("seg", INT), ("event", IDENT), ("master", INT), ("rw", IDENT),
        ("addr", WORD))

HEADER = Shape("header", 0, ("version", INT), ("scenario_digest", TEXT),
               ("stimulus_digest", TEXT), ("trace_level", IDENT))
END = Shape("end", 0, _T, ("reason", IDENT))
BUS_REQUEST = Shape("bus", 1, *_BUS)
BUS_GRANT = Shape("bus", 1, *_BUS, ("wait", INT))
BUS_DATA = Shape("bus", 1, *_BUS, ("data", WORD))
BUS_ERROR = Shape("bus", 1, *_BUS, ("error", TEXT))
BUS_DATA_ERROR = Shape("bus", 1, *_BUS, ("data", WORD), ("error", TEXT))
ERROR = Shape("error", 1, _T, _LINK, ("detail", TEXT))
STIMULUS = Shape("stimulus", 2, _T, ("line", INT), ("level", INT))
FABRIC = Shape("fabric", 2, _T, ("inputs", HEX), ("outputs", HEX))
TRIGGER = Shape("trigger", 2, _T, _LINK, ("token", INT), ("status", IDENT))
PROGRAM = Shape("program", 2, _T, _LINK, ("token", INT), ("event", IDENT))
PROGRAM_LATENCY = Shape("program", 2, _T, _LINK, ("token", INT),
                        ("event", IDENT), ("latency", INT))
ACTION = Shape("action", 2, _T, _LINK, ("group", INT), ("mode", IDENT),
               ("out", HEX))
LINK = Shape("link", 2, _T, _LINK, ("fsm", IDENT), ("pc", INT))
BASELINE_IRQ = Shape("baseline", 2, _T, ("event", IDENT), ("completion", INT))
BASELINE_HANDLED = Shape("baseline", 2, _T, ("event", IDENT), ("latency", INT))

SHAPES = (HEADER, END, BUS_REQUEST, BUS_GRANT, BUS_DATA, BUS_ERROR,
          BUS_DATA_ERROR, ERROR, STIMULUS, FABRIC, TRIGGER, PROGRAM,
          PROGRAM_LATENCY, ACTION, LINK, BASELINE_IRQ, BASELINE_HANDLED)


def _records(chunks: list[list]):
    """(shape, values) of each record in the flat row chunks, in order."""
    for rows in chunks:
        i, n = 0, len(rows)
        while i < n:
            shape = rows[i]
            j = i + 1 + shape.width
            yield shape, rows[i + 1:j]
            i = j


class Records(Sequence):
    """Read-only view of a trace, each record as the dict its line encodes;
    `len` and indexing walk the rows."""

    __slots__ = ("_chunks",)

    def __init__(self, chunks: list[list]):
        self._chunks = chunks

    def __len__(self) -> int:
        return sum(1 for _ in _records(self._chunks))

    def __getitem__(self, i: int) -> dict:
        if i < 0:
            i += len(self)
        for k, (shape, values) in enumerate(_records(self._chunks)):
            if k == i:
                return shape.as_dict(values)
        raise IndexError("trace record index out of range")

    def __iter__(self):
        return (shape.as_dict(values) for shape, values in _records(self._chunks))


class Trace:
    """Level-filtered, deterministic record accumulator.

    `emit(shape, *values)` adds the shape and values to the open chunk
    when the level keeps the shape; `records` is their dict view."""

    def __init__(self, level: str = "full"):
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown level {level!r}")
        self.level = level
        self._rank = TRACE_LEVELS.index(level)
        self._rows: list = []  # the open chunk: a shape, its values, ...
        self._chunks = [self._rows]
        self.records = Records(self._chunks)

    def emit(self, *record) -> None:
        if record[0].rank <= self._rank:
            rows = self._rows
            if len(rows) >= _CHUNK:
                rows = self._rows = []
                self._chunks.append(rows)
            rows += record


def emit_trace(report, sink) -> None:
    """Write `report.trace` as JSON Lines, one record at a time;
    byte-identical across reruns."""
    own = isinstance(sink, (str, Path))
    out = open(sink, "w") if own else sink
    try:
        write = out.write
        for rows in map(tuple, report.trace._chunks):  # slices are `%`'s tuples
            i, n = 0, len(rows)
            while i < n:
                shape = rows[i]
                j = i + 1 + shape.width
                write(shape.render(rows[i + 1:j]))
                i = j
    finally:
        if own:
            out.close()
