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
until a record is serialised or viewed.

A `Trace` keeps its records in chunks of `_CHUNK` records: the shapes,
and their values, `width` per shape, in a parallel sequence.
`Trace._chunks` alternates the two: shapes, values, shapes, values. The
open chunk holds a list of shapes and a list of the values tuple of each
emit call; when it is full it is frozen to two exact-size tuples, the
values flattened, and the next one opens. So a closed record costs no
object of its own, a long trace never copies itself to grow, and a
chunk is never resized once it leaves the small-object allocator.

`emit_trace` writes one chunk at a time: the templates of its shapes
joined into one format string, applied by one `%` to its values, so the
per-record work runs in C and the memory it borrows is one rendered
chunk. A record with a `TEXT` field (`header`, `error`, a bus error)
needs `json.dumps`; it is rendered alone by `Shape.render` and the plain
records around it in runs as above.
Iterating a `Trace` yields each record as a dict, parsed with
`json.loads` from the line that `_render` writes for it, so a field's
template conversion is the one statement of its JSON form.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import attrgetter
from pathlib import Path

TRACE_LEVELS = ("off", "grants", "full")
TRACE_FORMAT_VERSION = 2
# Records per trace chunk. The open chunk's two lists and a frozen shapes
# tuple then fit CPython's small-object allocator (512 bytes), so a chunk
# takes one block from the system heap: its values tuple, at exact size.
_CHUNK = 56

# Field formats: each field's JSON form, as its template conversion.
INT = "%d"
IDENT = '"%s"'      # a name from a fixed set; never needs escapes
HEX = '"0x%x"'      # an output or input vector
WORD = '"0x%08x"'   # a bus address or data word
TEXT = "%s"         # free-form; json.dumps'd when serialised


class Shape:
    """One record layout: its kind, the lowest level rank that keeps it
    (`TRACE_LEVELS` index), its fields in key order and their number."""

    __slots__ = ("kind", "rank", "fields", "width", "text", "template", "render")

    def __init__(self, kind: str, rank: int, *fields: tuple[str, str]):
        self.kind = kind
        self.rank = rank
        self.fields = fields
        self.width = len(fields)
        keys = "".join(f',"{name}":{fmt}' for name, fmt in fields)
        self.template = f'{{"kind":"{kind}"{keys}}}\n'
        # indices of the TEXT fields; a shape without any renders by `%` alone
        self.text = text = tuple(
            i for i, (_, fmt) in enumerate(fields) if fmt == TEXT)
        if not text:
            self.render = self.template.__mod__
        else:
            def render(values, template=self.template):
                values = list(values)
                for i in text:
                    values[i] = json.dumps(values[i])
                return template % tuple(values)
            self.render = render

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
_TEXT_SHAPES = frozenset(shape for shape in SHAPES if shape.text)
_template = attrgetter("template")


def _render(shapes, values: tuple) -> str:
    """The JSON lines of one chunk's records: one `%` for a run of plain
    records; a record with a TEXT field alone, by `Shape.render`."""
    if _TEXT_SHAPES.isdisjoint(shapes):
        return "".join(map(_template, shapes)) % values
    parts = []
    run = j0 = j = 0  # the plain run's first record and first value
    for k, shape in enumerate(shapes):
        if shape.text:
            parts.append("".join(map(_template, shapes[run:k])) % values[j0:j])
            j0 = j + shape.width
            parts.append(shape.render(values[j:j0]))
            run = k + 1
        j += shape.width
    parts.append("".join(map(_template, shapes[run:])) % values[j0:])
    return "".join(parts)


class Trace:
    """Level-filtered, deterministic record accumulator.

    `emit(shape, *values)` adds the shape and values to the open chunk
    when the level keeps the shape. `len` sums the chunks' shape counts;
    iteration yields each record as the dict its JSON line encodes."""

    def __init__(self, level: str = "full"):
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown level {level!r}")
        self.level = level
        self._rank = TRACE_LEVELS.index(level)
        self._chunks: list = []  # shapes, values, shapes, values, ...
        self._open()

    def _open(self) -> None:
        """Freeze the open chunk, if any, and open the next one."""
        chunks = self._chunks
        if chunks:
            chunks[-2:] = tuple(chunks[-2]), tuple(chain.from_iterable(chunks[-1]))
        self._shapes, self._values = [], []  # shapes; a values tuple per shape
        chunks += self._shapes, self._values

    def emit(self, shape, *values) -> None:
        if shape.rank <= self._rank:
            if len(self._shapes) >= _CHUNK:
                self._open()
            self._shapes.append(shape)
            self._values.append(values)

    def _pairs(self) -> list:
        """(shapes, flat values) of each chunk; the open one is flattened."""
        chunks = self._chunks
        pairs = list(zip(chunks[:-2:2], chunks[1:-2:2]))
        pairs.append((chunks[-2], tuple(chain.from_iterable(chunks[-1]))))
        return pairs

    def __len__(self) -> int:
        return sum(map(len, self._chunks[::2]))

    def __iter__(self):
        for shapes, values in self._pairs():
            yield from map(json.loads, _render(shapes, values).split("\n")[:-1])


def emit_trace(report, sink) -> None:
    """Write `report.trace` as JSON Lines, one chunk at a time;
    byte-identical across reruns."""
    own = isinstance(sink, (str, Path))
    out = open(sink, "w") if own else sink
    try:
        write = out.write
        for shapes, values in report.trace._pairs():
            write(_render(shapes, values))
    finally:
        if own:
            out.close()
