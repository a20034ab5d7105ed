"""The trace schema: every shape's template line is the JSON of the record
it encodes, and each level keeps exactly the shapes of its rank or below."""

import io
import json
import os
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SCENARIO_DIR
from pels import harness, trace
from pels.trace import (BUS_GRANT, END, FABRIC, HEADER, HEX, IDENT, INT, LINK,
                        SHAPES, TEXT, TRACE_LEVELS, WORD, Trace, emit_trace)

_WORDS = st.integers(0, 2**32 - 1)
# Free-form strings, with the characters JSON must escape made common.
_TEXT = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7fé \U0001f600 ab')
_VALUES = {
    INT: _WORDS,
    HEX: _WORDS,
    WORD: _WORDS,
    IDENT: st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
    TEXT: _TEXT,
}


def _record(shape):
    return st.tuples(*(_VALUES[fmt] for _, fmt in shape.fields))


# The oracle's own statement of the schema's JSON forms, by field name:
# vectors (HEX) as "0x%x", bus words (WORD) as "0x%08x", every other
# field raw.
_HEX_FIELDS = {"inputs": "0x%x", "outputs": "0x%x", "out": "0x%x",
               "addr": "0x%08x", "data": "0x%08x"}


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
@given(data=st.data())
def test_template_line_is_the_json_of_the_dict_view(shape, data):
    values = data.draw(_record(shape))
    expected = {"kind": shape.kind}
    for (name, _), value in zip(shape.fields, values):
        expected[name] = _HEX_FIELDS[name] % value if name in _HEX_FIELDS else value
    line = shape.render(values)
    assert line == json.dumps(expected, separators=(",", ":")) + "\n"


def test_shapes_cover_every_key_layout_once():
    layouts = [(s.kind, tuple(name for name, _ in s.fields)) for s in SHAPES]
    assert len(set(layouts)) == len(layouts) == 17
    # a kind is kept or dropped as a whole at every level
    assert len({(s.kind, s.rank) for s in SHAPES}) == len({s.kind for s in SHAPES})
    assert {value for value in vars(trace).values()
            if isinstance(value, trace.Shape)} == set(SHAPES)


@pytest.mark.parametrize("level, kinds", [
    ("off", {"header", "end"}),
    ("grants", {"header", "end", "bus", "error"}),
    ("full", {s.kind for s in SHAPES}),
])
def test_each_level_keeps_exactly_the_shapes_of_its_rank(level, kinds):
    rank = TRACE_LEVELS.index(level)
    assert {s.kind for s in SHAPES if s.rank <= rank} == kinds
    kept = Trace(level)
    for shape in SHAPES:
        kept.emit(shape, *([0] * len(shape.fields)))
    assert [r["kind"] for r in kept] == [
        s.kind for s in SHAPES if s.rank <= rank]


def test_records_are_a_read_only_sequence_of_dicts():
    report = harness.run(harness.load_scenario(
        {"links": [{"event_mask": "0x1",
                    "program": {"source": "action grp0.set, 0x1"}}],
         "stimuli": [[0, 0, 1]]}), "full")
    records = report.trace
    first = list(records)
    assert len(first) == len(records)
    assert first[0]["kind"] == "header" and first[-1]["kind"] == "end"
    assert {"kind": "action", "t": 2, "link": 0, "group": 0, "mode": "SET_LEVELS",
            "out": "0x1"} in records
    with pytest.raises(AttributeError):
        records.append({})
    first[0]["kind"] = "changed"  # each iteration builds fresh dicts
    assert next(iter(records))["kind"] == "header"


def test_unknown_level_is_a_config_error():
    with pytest.raises(ValueError, match="unknown level"):
        Trace("verbose")
    with pytest.raises(harness.ConfigError, match="trace_level"):
        harness.Simulation(harness.load_scenario({}), "verbose")


def _records(shapes):
    """(shape, values) pairs of records drawn from `shapes`."""
    return st.sampled_from(shapes).flatmap(
        lambda shape: st.tuples(st.just(shape), _record(shape)))


def _rendered(kept: Trace) -> str:
    sink = io.StringIO()
    emit_trace(SimpleNamespace(trace=kept), sink)
    return sink.getvalue()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), level=st.sampled_from(TRACE_LEVELS),
       chunk=st.integers(1, 8))
def test_chunk_render_equals_the_render_of_each_record(data, level, chunk):
    """`emit_trace` renders a chunk by one `%` and each TEXT record alone:
    it must equal `Shape.render` per record, over at least 3 chunk
    boundaries, with TEXT records (escape-heavy) anywhere in a chunk."""
    rank = TRACE_LEVELS.index(level)
    kept = data.draw(st.lists(_records([s for s in SHAPES if s.rank <= rank]),
                              min_size=4 * chunk, max_size=6 * chunk))
    above = [s for s in SHAPES if s.rank > rank]
    dropped = data.draw(st.lists(_records(above), max_size=8)) if above else []
    emitted = list(kept)
    for record in dropped:
        emitted.insert(data.draw(st.integers(0, len(emitted))), record)
    with mock.patch.object(trace, "_CHUNK", chunk):
        traced = Trace(level)
        for shape, values in emitted:
            traced.emit(shape, *values)
    assert len(traced._chunks) >= 8  # 3 frozen chunks and the open one
    assert _rendered(traced) == "".join(shape.render(v) for shape, v in kept)
    assert list(traced) == [json.loads(shape.render(v)) for shape, v in kept]


def _several_chunks() -> tuple[Trace, list[dict]]:
    """A full trace of records of three widths over many chunks."""
    kept = Trace("full")
    kept.emit(HEADER, 2, "scenario", "stimulus", "full")
    for t in range(600):
        kept.emit(LINK, t, t % 8, "FETCH", t % 5)
        if t % 3 == 0:
            kept.emit(BUS_GRANT, t, 0, "grant", t % 8, "read", 0x40000000 + 4 * t, 2)
        if t % 7 == 0:
            kept.emit(FABRIC, t, t, t >> 1)
    kept.emit(END, 600, "clock_limit")
    return kept, [json.loads(line) for line in _rendered(kept).splitlines()]


def test_len_and_iteration_span_frozen_and_open_chunks():
    kept, lines = _several_chunks()
    chunks = kept._chunks
    assert len(chunks) >= 8 and all(type(c) is tuple for c in chunks[:-2])
    assert type(chunks[-1]) is list and len(chunks[-2]) > 0  # the open chunk
    assert len(kept) == len(lines) == sum(len(shapes) for shapes in chunks[::2])
    assert list(kept) == lines


def test_rendering_a_long_trace_borrows_one_chunk_of_memory():
    """`emit_trace` renders a chunk at a time, so what it allocates beyond
    the trace it writes is one chunk's format string, lines and encoding
    (under 30 KiB here, whatever the trace's length). The bound is 64 KiB;
    the whole `contention8` trace at `full`, 35k records, renders to
    about 2.4 MB, so a change that builds the file in memory fails."""
    report = harness.run(SCENARIO_DIR / "contention8.json", "full")
    assert len(report.trace) >= 20_000
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            emit_trace(report, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - held < 64 * 1024
