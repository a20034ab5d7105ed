"""Tests of the benchmark itself: generators, span arithmetic, the gate."""

import copy
from pathlib import Path

import pytest

import gate
import spans
import workloads
from measure import Runner
from pels import harness

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    first = gen(7)
    assert first.seed == 7
    assert workloads.canonical(first) == workloads.canonical(gen(7))
    assert workloads.canonical(first) != workloads.canonical(gen(8))
    for scenario in first.scenarios:
        harness.load_scenario(scenario)  # every generated dict is valid input


def test_self_time_of_a_hand_built_span_tree():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- b [5, 9]
    names = ["a", "b", "c", "b"]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(names, parent, start, end) == {
        "a": (1, 3.0), "b": (2, 6.0), "c": (1, 1.0)}


def test_wrappers_record_spans_and_are_removed_afterwards():
    originals = [vars(owner)[attr] for _, owner, attr, _ in spans.ENTRY_POINTS]
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        harness.Simulation(harness.load_scenario(SCENARIOS / "sequenced.json"),
                           "off").run()
    assert [vars(owner)[attr] for _, owner, attr, _ in spans.ENTRY_POINTS] == originals
    totals = recorder.totals()
    assert totals["harness.run"][0] == 1
    # One link: one settle and one link step per simulated cycle.
    assert totals["core.fabric_settle"][0] == totals["core.link_step"][0] > 0
    assert totals["asm.assemble_text"][0] == 1  # harness's own binding is wrapped
    assert totals["harness.trace_emit"][0] > 0  # emit bound after patching


def test_gate_flags_a_mutated_report():
    rep = harness.run(SCENARIOS / "sequenced.json", trace_level="off").to_dict()
    assert rep["end_reason"] == "quiescent"
    assert gate.check_report(rep) == []

    dropped = copy.deepcopy(rep)
    dropped["per_link"][0]["triggers"]["dropped"] += 1
    assert gate.check_report(dropped)
    assert gate.check_same(rep, dropped, "rerun")

    grants = copy.deepcopy(rep)
    grants["bus"]["grants"] += 1
    assert gate.check_report(grants)

    errors = copy.deepcopy(rep)
    errors["errors"] = [{"link": 0, "detail": "decode"}]
    assert gate.check_report(errors)


def test_anchor_error_is_zero_on_the_shipped_scenarios(tmp_path):
    runner = Runner(workloads.bus_contention(1), tmp_path)
    total, notes = runner.anchors(SCENARIOS)
    assert total == 0, notes
    assert (runner.attempted, runner.failed) == (len(gate.ANCHORS), 0)
