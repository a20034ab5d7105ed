"""The trace schema: every shape's template line is the JSON of its dict
view, and each level keeps exactly the shapes of its rank or below."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pels import harness, trace
from pels.trace import HEX, IDENT, INT, SHAPES, TEXT, TRACE_LEVELS, WORD, Trace

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


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
@given(data=st.data())
def test_template_line_is_the_json_of_the_dict_view(shape, data):
    values = data.draw(_record(shape))
    line = shape.render(values)
    assert line == json.dumps(shape.as_dict(values), separators=(",", ":")) + "\n"


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
    assert [r["kind"] for r in kept.records] == [
        s.kind for s in SHAPES if s.rank <= rank]


def test_records_are_a_read_only_sequence_of_dicts():
    report = harness.run(harness.load_scenario(
        {"links": [{"event_mask": "0x1",
                    "program": {"source": "action grp0.set, 0x1"}}],
         "stimuli": [[0, 0, 1]]}), "full")
    records = report.trace
    assert records[0]["kind"] == "header" and records[-1]["kind"] == "end"
    assert list(records) == [records[i] for i in range(len(records))]
    assert {"kind": "action", "t": 2, "link": 0, "group": 0, "mode": "SET_LEVELS",
            "out": "0x1"} in records
    with pytest.raises(AttributeError):
        records.append({})
    records[0]["kind"] = "changed"  # each access builds a fresh dict
    assert records[0]["kind"] == "header"


def test_unknown_level_is_a_config_error():
    with pytest.raises(ValueError, match="unknown level"):
        Trace("verbose")
    with pytest.raises(harness.ConfigError, match="trace_level"):
        harness.Simulation(harness.Scenario(), "verbose")
