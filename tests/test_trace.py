"""The trace schema: every shape's template line is the JSON of the record
it encodes, each level keeps exactly the shapes of its rank or below, and
a trace spills its frozen chunks to a file that nothing else sees."""

import gc
import io
import json
import os
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SCENARIO_DIR, sequenced_scenario
from pels import bus, core, harness, trace
from pels.bus import BUS_GRANT, TXN_KIND_NAMES, TxnKind
from pels.core import ACTION_MODE_NAMES, FSM_STATE_NAMES, LINK, FsmState
from pels.isa import ActionMode
from pels.trace import (END, FABRIC, HEADER, HEX, IDENT, INT, SHAPES, TEXT,
                        TRACE_LEVELS, WORD, Trace, emit_trace)

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
_ZERO = {INT: 0, HEX: 0, WORD: 0, IDENT: "x", TEXT: "x"}


def _consts(shape) -> dict:
    """The shape's constant fields: name -> value."""
    return {name: const[0] for name, _, *const in shape.fields if const}


def _record(shape):
    """The values an emit passes: one per field that is not a constant."""
    return st.tuples(*(_VALUES[fmt] for _, fmt, *const in shape.fields
                       if not const))


# The oracle's own statement of the schema's JSON forms, by field name:
# vectors (HEX) as "0x%x", bus words (WORD) as "0x%08x", every other
# field raw.
_HEX_FIELDS = {"inputs": "0x%x", "outputs": "0x%x", "out": "0x%x",
               "addr": "0x%08x", "data": "0x%08x"}


def _shape_id(shape) -> str:
    keys = [name for name, *_ in shape.fields]
    consts = "".join(f", {name}={value!r}" for name, value in _consts(shape).items())
    return f"Shape({shape.kind!r}, {keys}{consts})"


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
@given(data=st.data())
def test_template_line_is_the_json_of_the_dict_view(shape, data):
    """Each field in key order: a drawn value, or the shape's constant."""
    values = data.draw(_record(shape))
    drawn = iter(values)
    expected = {"kind": shape.kind}
    for name, _, *const in shape.fields:
        value = const[0] if const else next(drawn)
        expected[name] = _HEX_FIELDS[name] % value if name in _HEX_FIELDS else value
    assert shape.width == len(values)
    line = shape.render(values)
    assert line == (json.dumps(expected, separators=(",", ":")) + "\n").encode()


def _shapes_in(module) -> list:
    """The shapes a module binds: as names, and as members of families."""
    found = []
    for value in vars(module).values():
        if isinstance(value, trace.Shape):
            found.append(value)
        elif isinstance(value, tuple) and value and all(
                isinstance(member, trace.Shape) for member in value):
            found += value
    return found


def test_shapes_cover_every_key_layout_once():
    """Every (kind, keys, constants) once; SHAPES is every shape bound."""
    layouts = [(s.kind, tuple(name for name, *_ in s.fields),
                tuple(sorted(_consts(s).items()))) for s in SHAPES]
    # header, end, error, stimulus, fabric, 2 trigger, 3 program and 2
    # baseline shapes; families of 2 action modes, 7 FSM states, and 2
    # transaction kinds for each of the 5 bus shapes
    assert len(set(layouts)) == len(layouts) == 12 + 2 + 7 + 5 * 2
    # a kind is kept or dropped as a whole at every level
    assert len({(s.kind, s.rank) for s in SHAPES}) == len({s.kind for s in SHAPES})
    # SHAPES is every shape the three modules bind, each once
    bound = _shapes_in(trace) + _shapes_in(core) + _shapes_in(bus)
    assert {id(shape) for shape in bound} == set(map(id, SHAPES))
    assert len(set(map(id, SHAPES))) == len(SHAPES)


_FAMILIES = [  # family, the field its code names, the owning name table
    (core.ACTION, "mode", ACTION_MODE_NAMES),
    (core.LINK, "fsm", FSM_STATE_NAMES),
    (bus.BUS_REQUEST, "rw", TXN_KIND_NAMES),
    (bus.BUS_GRANT, "rw", TXN_KIND_NAMES),
    (bus.BUS_DATA, "rw", TXN_KIND_NAMES),
    (bus.BUS_ERROR, "rw", TXN_KIND_NAMES),
    (bus.BUS_DATA_ERROR, "rw", TXN_KIND_NAMES),
]


@pytest.mark.parametrize("family, field, names", _FAMILIES,
                         ids=lambda value: value if isinstance(value, str) else None)
def test_each_family_member_renders_the_name_its_code_indexes(family, field, names):
    """Member `code` of a family writes `names[code]` as `field`, and the
    members differ in nothing else."""
    assert len(family) == len(names)
    first = family[0]
    for shape, name in zip(family, names):
        assert _consts(shape)[field] == name
        assert {k: v for k, v in _consts(shape).items() if k != field} == {
            k: v for k, v in _consts(first).items() if k != field}
        assert (shape.kind, shape.rank, shape.width) == (
            first.kind, first.rank, first.width)
        assert [f[:2] for f in shape.fields] == [f[:2] for f in first.fields]
        values = tuple(_ZERO[fmt] for _, fmt, *const in shape.fields if not const)
        assert json.loads(shape.render(values))[field] == name


def test_families_are_indexed_by_the_codes_of_their_tables():
    assert _consts(LINK[FsmState.MODIFY])["fsm"] == "MODIFY"
    assert _consts(BUS_GRANT[TxnKind.WRITE])["rw"] == "W"
    assert _consts(core.ACTION[ActionMode.TOGGLE])["mode"] == "TOGGLE"


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
        kept.emit(shape, *([0] * shape.width))
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


def _spilled_bytes(kept: Trace) -> bytes:
    kept._spill.flush()
    return os.pread(kept._spill.fileno(), 1 << 24, 0)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), level=st.sampled_from(TRACE_LEVELS),
       chunk=st.integers(1, 8))
def test_chunk_render_equals_the_render_of_each_record(data, level, chunk):
    """A frozen chunk is rendered by one bytes `%`, each IDENT or TEXT
    record alone, and written to the spill once: the spill must hold
    `Shape.render` of each frozen record in order, over at least 3 chunk
    boundaries, with TEXT records (escape-heavy) anywhere in a chunk, and
    `emit_trace` must add the open chunk's."""
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
    spilled = traced._spilled
    assert spilled >= 3 * chunk and 0 < len(traced._shapes) <= chunk
    lines = [shape.render(v) for shape, v in kept]
    assert _spilled_bytes(traced) == b"".join(lines[:spilled])
    assert _rendered(traced) == b"".join(lines).decode()
    assert list(traced) == list(map(json.loads, lines))


def _several_chunks() -> tuple[Trace, list[dict]]:
    """A full trace of records of three widths over at least 5 chunks."""
    kept = Trace("full")
    kept.emit(HEADER, 2, "scenario", "stimulus", "full")
    for t in range(5 * trace._CHUNK):
        kept.emit(LINK[FsmState.FETCH], t, t % 8, t % 5)
        if t % 3 == 0:
            kept.emit(BUS_GRANT[TxnKind.READ], t, 0, t % 8, 0x40000000 + 4 * t, 2)
        if t % 7 == 0:
            kept.emit(FABRIC, t, t, t >> 1)
    kept.emit(END, 600, "clock_limit")
    return kept, [json.loads(line) for line in _rendered(kept).splitlines()]


def test_len_and_iteration_span_frozen_and_open_chunks():
    """Frozen chunks are in the spill, whole: len and iteration count
    and read both it and the open chunk."""
    kept, lines = _several_chunks()
    spilled = kept._spilled
    assert spilled >= 5 * trace._CHUNK and spilled % trace._CHUNK == 0
    assert 0 < len(kept._shapes) <= trace._CHUNK  # the open chunk
    assert _spilled_bytes(kept).count(b"\n") == spilled
    assert len(kept) == len(lines) == spilled + len(kept._shapes)
    assert list(kept) == lines


def test_emit_trace_writes_the_same_text_to_a_path_and_a_stream(tmp_path):
    kept, _ = _several_chunks()
    text = _rendered(kept)
    emit_trace(SimpleNamespace(trace=kept), tmp_path / "a.jsonl")
    emit_trace(SimpleNamespace(trace=kept), str(tmp_path / "b.jsonl"))
    assert (tmp_path / "a.jsonl").read_text() == text
    assert (tmp_path / "b.jsonl").read_text() == text


def test_reading_a_trace_never_moves_where_it_writes():
    """Iteration and `emit_trace` read the spill by position: the records
    are the same before and after, and a chunk frozen after a read lands
    at the end of the spill."""
    kept, lines = _several_chunks()
    before = list(kept)
    assert _rendered(kept) and list(kept) == before == lines
    for t in range(trace._CHUNK + 1):  # freezes the open chunk
        kept.emit(FABRIC, 1000 + t, t, 0)
    assert list(kept) == lines + [
        {"kind": "fabric", "t": 1000 + t, "inputs": hex(t), "outputs": "0x0"}
        for t in range(trace._CHUNK + 1)]


def test_an_off_trace_opens_no_file():
    opened = []
    temporary_file = trace.tempfile.TemporaryFile

    def counted(*args, **kwargs):
        opened.append(args)
        return temporary_file(*args, **kwargs)

    with mock.patch.object(trace.tempfile, "TemporaryFile", counted):
        off = harness.run(SCENARIO_DIR / "contention8.json", "off")
        assert not opened and off.trace._spill is None and len(off.trace) == 2
        full = harness.run(SCENARIO_DIR / "contention8.json", "full")
        assert len(opened) == 1 and full.trace._spill is not None


def test_dropping_a_report_closes_its_spill():
    """The spill is closed when its trace is dropped, so no file is left
    for the interpreter to close with a ResourceWarning."""
    report = harness.run(SCENARIO_DIR / "contention8.json", "full")
    spill = report.trace._spill
    del report
    gc.collect()
    assert spill.closed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = harness.run(SCENARIO_DIR / "contention8.json", "full")
        assert not report.trace._spill.closed
        del report
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_rendering_a_long_trace_borrows_one_chunk_of_memory():
    """`emit_trace` copies the spill a block at a time and then renders
    the open chunk, so what it allocates beyond the trace it writes is
    one block, its decoded text and one chunk's lines (about 40 KiB here,
    whatever the trace's length). The bound is 64 KiB; the whole
    `contention8` trace at `full`, 35k records, renders to about 2.4 MB,
    so a change that builds the file in memory fails."""
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


def test_a_long_full_run_holds_one_chunk_of_records(tmp_path):
    """A `full` run of 1M cycles, a link triggered by a timer every 1,000
    cycles, and `emit_trace` of its 11k records, stay under a fixed
    256 KiB tracemalloc peak: the trace keeps only its open chunk on the
    heap, and `emit_trace` borrows one block. Latency samples stay
    O(events), since the report lists each one, so the run has few
    events (999) and the ceiling does not grow with its length."""
    sc = sequenced_scenario(stimuli=[], clock_limit=1_000_000)
    sc["peripherals"].append({"type": "timer", "name": "t0",
                              "base_address": "0x50000000", "period": 1000,
                              "enabled": True, "event_line": 0})
    sim = harness.Simulation(harness.load_scenario(sc), "full")
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        report = sim.run()
        emit_trace(report, tmp_path / "trace.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cycles == 1_000_000 and len(report.trace) > 10_000
    assert report.per_link[0]["triggers"]["accepted"] == 999
    assert peak - held < 256 * 1024
