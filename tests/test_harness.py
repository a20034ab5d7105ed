import copy
import hashlib
import io
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from helpers import (
    SCENARIO_DIR,
    PerCycleSimulation,
    instant_scenario,
    sequenced_scenario,
)
from pels import harness, isa
from pels.asm import Program, disassemble, validate_program
from pels.core import EventFabric, Link, LinkConfig, TriggerMode
from pels.harness import (
    ConfigError,
    MismatchedStimulus,
    Simulation,
    compare,
    emit_trace,
    load_scenario,
    run,
    sweep,
)
from pels.isa import ActionMode, Command, Condition, OpCode
from pels.periph import BaselineCpuModel
from pels.trace import SHAPES


# ------------------------------------------------------------- validation --

def test_load_fills_every_absent_value_with_its_one_default():
    """The loader is the one statement of each scenario default: the model
    classes default none of them. The baseline mask defaults to every
    input line (`0xF` on 4 inputs)."""
    raw = {"links": [{}], "baseline": {}, "fabric": {"inputs": 4}}
    digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
    assert load_scenario(raw) == harness.Scenario(
        clock_limit=10_000,
        fabric_inputs=4,
        fabric_outputs=32,
        loopback={},
        bus_segments=1,
        transfer_cycles=2,
        links=[harness.LinkSpec(
            scm_lines=8,
            config=LinkConfig(event_mask=0, trigger_mode=TriggerMode.ANY_SELECTED_ACTIVE,
                              base_address=0, enabled=True),
            fifo_depth=4,
            segment=0,
            program=Program(()),
        )],
        peripherals=[],
        baseline=BaselineCpuModel(event_mask=0xF, interrupt_entry_cycles=10,
                                  handler_cycles=6, memory_fetches_per_handler=16,
                                  peripheral_txns_per_event=2),
        stimuli=[],
        source_digest=digest,
    )


def test_load_rejects_bad_mask():
    sc = instant_scenario()
    sc["links"][0]["event_mask"] = "0x100000000"
    with pytest.raises(ConfigError) as exc:
        load_scenario(sc)
    assert "event_mask" in exc.value.location


def test_load_rejects_too_many_links():
    sc = instant_scenario()
    sc["links"] = sc["links"] * 9
    with pytest.raises(ConfigError) as exc:
        load_scenario(sc)
    assert exc.value.location == "links"


def test_load_rejects_program_over_capacity():
    sc = instant_scenario()
    sc["links"][0]["scm_lines"] = 2
    sc["links"][0]["program"] = {"source": "wait 1\nwait 2\nwait 3"}
    with pytest.raises(ConfigError):
        load_scenario(sc)


def test_load_rejects_unknown_peripheral():
    sc = instant_scenario(peripherals=[{"type": "uart", "base_address": 0}])
    with pytest.raises(ConfigError):
        load_scenario(sc)


def test_load_rejects_bad_stimulus_line():
    sc = instant_scenario(stimuli=[[0, 99, 1]])
    with pytest.raises(ConfigError):
        load_scenario(sc)


def test_load_rejects_bad_segment():
    sc = sequenced_scenario()
    sc["links"][0]["segment"] = 1
    with pytest.raises(ConfigError):
        load_scenario(sc)


def test_overlapping_register_blocks_rejected():
    sc = sequenced_scenario()
    sc["peripherals"].append({"type": "regs", "name": "r1",
                              "base_address": "0x40000004", "size_words": 4})
    with pytest.raises(ConfigError):
        Simulation(load_scenario(sc))


def test_assembler_diagnostics_surface_as_config_errors():
    sc = instant_scenario()
    sc["links"][0]["program"] = {"source": "bogus 1"}
    with pytest.raises(ConfigError) as exc:
        load_scenario(sc)
    assert "unknown mnemonic" in str(exc.value)


def _sensor(**fields) -> dict:
    return instant_scenario(peripherals=[
        dict({"type": "sensor", "base_address": "0x40000000"}, **fields)])


def _link(**fields) -> dict:
    sc = instant_scenario()
    sc["links"][0].update(fields)
    return sc


@pytest.mark.parametrize("scenario, location", [
    ({"links": {"a": 1}}, "links"),
    ({"links": [[1]]}, "links[0]"),
    ({"fabric": []}, "fabric"),
    ({"fabric": {"loopback": [1]}}, "fabric.loopback"),
    ({"bus": [1]}, "bus"),
    ({"baseline": [1]}, "baseline"),
    ({"stimuli": [5]}, "stimuli"),
    ({"peripherals": [5]}, "peripherals[0]"),
    (_sensor(schedule=[[1]]), "peripherals[0].schedule"),
    (_sensor(schedule=[5]), "peripherals[0].schedule"),
    (_sensor(triggered="false"), "peripherals[0].triggered"),
    (instant_scenario(peripherals=[{"type": "timer", "enabled": "false"}]),
     "peripherals[0].enabled"),
    (_link(program={"source": 5}), "links[0].program.source"),
    (_link(trigger_mode=[]), "links[0].trigger_mode"),
    (_link(base_address=-4), "links[0].base_address"),
    (_link(base_address="0x40000002"), "links[0].base_address"),
    (_link(enabled="false"), "links[0].enabled"),
    ({"baseline": {"memory_fetches_per_handler": -1}},
     "baseline.memory_fetches_per_handler"),
    ({"fabric": {"loopback": {0: 5, "1": 3}}}, "fabric.loopback"),
    ({"links": [{"notes": {0: 5, "1": 3}}]}, "links[0].notes"),  # never read
    ({0: 5, "1": 3}, "scenario"),
    # ranges and alignment that only the loader states
    ({"fabric": {"inputs": 0}}, "fabric.inputs"),
    ({"fabric": {"outputs": 8193}}, "fabric.outputs"),
    ({"fabric": {"outputs": 4, "loopback": {"4": 0}}}, "fabric.loopback"),
    ({"fabric": {"inputs": 4, "loopback": {"0": 4}}}, "fabric.loopback"),
    ({"bus": {"segments": 0}}, "bus.segments"),
    ({"bus": {"transfer_cycles": 0}}, "bus.transfer_cycles"),
    (_link(fifo_depth=0), "links[0].fifo_depth"),
    (_link(fifo_depth=17), "links[0].fifo_depth"),
    (_link(scm_lines=0), "links[0].scm_lines"),
    (instant_scenario(peripherals=[{"type": "regs", "size_words": 0}]),
     "peripherals[0].size_words"),
    (instant_scenario(peripherals=[{"type": "regs", "base_address": "0x40000002"}]),
     "peripherals[0].base_address"),
])
def test_malformed_shapes_raise_config_error(scenario, location):
    with pytest.raises(ConfigError) as exc:
        load_scenario(scenario)
    assert exc.value.location == location


# ------------------------------------------------------------------- runs --

def test_instant_scenario_latency():
    report = run(instant_scenario())
    lat = report.per_link[0]["latency"]
    assert (lat["min"], lat["max"]) == (2, 2)
    assert report.end_reason == "quiescent"


def test_sequenced_scenario_latency():
    report = run(sequenced_scenario())
    lat = report.per_link[0]["latency"]
    assert (lat["min"], lat["max"]) == (7, 7)


def test_baseline_scenario_latency():
    report = run({
        "clock_limit": 60,
        "baseline": {"event_mask": "0x1"},
        "stimuli": [[0, 0, 1]],
    })
    assert report.baseline["latency"]["samples"] == [16]
    assert report.baseline["shared_memory_fetches"] == 16
    assert report.activity["shared_memory_instruction_fetches"] == 16


def test_scenario_file_program_path(scenario_dir):
    report = run(scenario_dir / "threshold.json")
    assert report.per_link[0]["commands_executed"] == 4
    assert not report.errors


def test_report_self_consistency():
    report = run(sequenced_scenario())
    per_master = report.bus["per_master"]
    total = sum(m["reads"] + m["writes"] for m in per_master.values())
    link_total = sum(e["bus_reads"] + e["bus_writes"] for e in report.per_link)
    assert total == link_total == 2


def test_multi_segment_links_run_in_parallel():
    sc = {
        "clock_limit": 60,
        "bus": {"segments": 2, "transfer_cycles": 2},
        "links": [
            {"scm_lines": 4, "event_mask": "0x1", "base_address": "0x40000000",
             "segment": 0, "program": {"source": "set 0x0, 0x1"}},
            {"scm_lines": 4, "event_mask": "0x1", "base_address": "0x50000000",
             "segment": 1, "program": {"source": "set 0x0, 0x1"}},
        ],
        "peripherals": [
            {"type": "regs", "name": "a", "base_address": "0x40000000", "segment": 0},
            {"type": "regs", "name": "b", "base_address": "0x50000000", "segment": 1},
        ],
        "stimuli": [[0, 0, 1]],
    }
    report = run(sc)
    # no cross-segment contention: both links see the uncontended 7 cycles
    assert report.per_link[0]["latency"]["samples"] == [7]
    assert report.per_link[1]["latency"]["samples"] == [7]


def test_timer_triggered_conversion_chain():
    # periodic timer pulse starts a conversion; the conversion-done pulse
    # triggers a link that captures the fresh sample
    sc = {
        "clock_limit": 40,
        "links": [{"scm_lines": 4, "event_mask": "0x4",
                   "base_address": "0x40000000",
                   "program": {"source": "capture 0x0, 0xffffffff"}}],
        "peripherals": [
            {"type": "sensor", "name": "adc", "base_address": "0x40000000",
             "schedule": [[0, 42]], "event_line": 2, "triggered": True,
             "trigger_line": 3},
            {"type": "timer", "name": "t0", "base_address": "0x40001000",
             "period": 20, "enabled": True, "event_line": 3},
        ],
    }
    sim = Simulation(load_scenario(sc))
    report = sim.run()
    assert sim.links[0].capture_reg == 42
    assert report.per_link[0]["triggers"]["accepted"] == 1
    # pulse at 20 starts the conversion, done pulse lands at 21
    triggers = [r for r in report.trace if r["kind"] == "trigger"]
    assert triggers[0]["t"] == 21


def test_simulation_errors_recorded_not_raised():
    sc = sequenced_scenario(source="write 0x800, 0x1")  # unmapped offset
    report = run(sc)
    assert report.errors and report.errors[0]["link"] == 0
    assert report.per_link[0]["error"]


def test_quiescence_waits_for_pending_work():
    # enabled timer keeps producing events, so the run uses the whole clock
    sc = sequenced_scenario()
    sc["peripherals"].append({"type": "timer", "name": "t0",
                              "base_address": "0x50000000", "period": 25,
                              "enabled": True, "event_line": 5})
    sc["clock_limit"] = 100
    report = run(sc)
    assert report.end_reason == "clock_limit"
    assert report.cycles == 100


def test_run_is_pure_against_scenario_reuse():
    sc = load_scenario(sequenced_scenario())
    r1 = Simulation(sc).run()
    r2 = Simulation(sc).run()
    assert r1.to_json() == r2.to_json()
    t1 = io.StringIO()
    t2 = io.StringIO()
    emit_trace(r1, t1)
    emit_trace(r2, t2)
    assert t1.getvalue() == t2.getvalue()


def test_simulation_run_is_single_use():
    sim = Simulation(load_scenario(SCENARIO_DIR / "sequenced.json"))
    first = sim.run().to_json()
    with pytest.raises(RuntimeError, match="new Simulation"):
        sim.run()
    again = Simulation(load_scenario(SCENARIO_DIR / "sequenced.json")).run()
    assert again.to_json() == first


# ------------------------------------------------------------------ trace --

def test_empty_scenario_trace_is_header_and_quiescence():
    report = run({"clock_limit": 20})
    kinds = [r["kind"] for r in report.trace]
    assert kinds == ["header", "end"]
    assert list(report.trace)[-1]["reason"] == "quiescent"


def test_trace_determinism_digest():
    def digest():
        report = run(instant_scenario())
        sink = io.StringIO()
        emit_trace(report, sink)
        return hashlib.sha256(sink.getvalue().encode()).hexdigest()

    assert digest() == digest()


# SHA-256 of the `full` trace (emit_trace) and of `to_json()` for each
# shipped scenario.
_GOLDEN = [
    ("contention8.json",
     "e3a2d2022ea94d5aee724cc589053bd31521a350910ea984bf8a865f04d9fae3",
     "8af4929605bb227a103e119197357999b7ffeb123790936223d318d7f0df44b4"),
    ("instant.json",
     "d0c20fcc116b1cdbf1bb0db91926d5a94401499764f42d97cc64040980f173d5",
     "cef3864738bbe2308720d6b360e9eb97ceebb320cfe9c8767dd71fd52ebd1fd2"),
    ("sequenced.json",
     "f2c0de7468c710d7fd37be7eac9dd70e431177b080f6cacd3dc51972b9146d78",
     "18cdff111885fece810d6bd8d1513de3de7e90066006792918f0cfd3152cc5f5"),
    ("threshold.json",
     "0b1484e05d1db58ab4e8c9f71eabb80ea9c3aceb8d5fe3df6cc57d6f0c9dd60f",
     "c095c2a6eb7772ed74f04f0a7c2f419cd74256c86e1fbde359c2bf03c6ac3e46"),
    ("threshold_baseline.json",
     "9081b59ac5b3228a1cde180be16a5f197a543a17173ba9e5ebbd86fc40418174",
     "ae0a3a613c6778b41b0ff5c6f8aeb9b8b4eb7e47b8120789d40d2868c9c85dd4"),
]


@pytest.mark.parametrize("name, trace_sha, report_sha", _GOLDEN)
def test_shipped_scenarios_keep_their_pinned_trace_and_report(name, trace_sha,
                                                              report_sha):
    """Reports and `full` traces are byte-identical across changes that
    keep behaviour. A change that alters a report or trace on purpose
    updates the pin here and gives the reason in CHANGES.md."""
    report = run(SCENARIO_DIR / name, trace_level="full")
    assert hashlib.sha256(_jsonl(report).encode()).hexdigest() == trace_sha
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == report_sha


def test_trace_levels(tmp_path):
    full = run(instant_scenario(), trace_level="full")
    grants = run(sequenced_scenario(), trace_level="grants")
    off = run(instant_scenario(), trace_level="off")
    assert any(r["kind"] == "link" for r in full.trace)
    assert all(r["kind"] in ("header", "bus", "error", "end") for r in grants.trace)
    assert [r["kind"] for r in off.trace] == ["header", "end"]


def test_trace_file_output(tmp_path):
    report = run(instant_scenario())
    path = tmp_path / "out.jsonl"
    emit_trace(report, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert json.loads(lines[-1])["kind"] == "end"


def test_trace_shows_round_robin_grants():
    sc = sequenced_scenario()
    sc["links"] = sc["links"] * 3
    report = run(sc, trace_level="grants")
    grants = [r for r in report.trace if r["kind"] == "bus" and r["event"] == "grant"]
    # same-cycle requests are granted in round-robin order, 2 cycles apart
    assert [g["master"] for g in grants[:3]] == [1, 2, 0]
    times = [g["t"] for g in grants[:3]]
    assert times == [times[0], times[0] + 2, times[0] + 4]


# ---------------------------------------------------------------- compare --

def test_compare_sequenced_ratio(scenario_dir):
    pels = run(sequenced_scenario())
    base = run({
        "clock_limit": 80,
        "peripherals": sequenced_scenario()["peripherals"],
        "baseline": {"event_mask": "0x1"},
        "stimuli": [[0, 0, 1]],
    })
    result = compare(pels, base)
    assert result["latency"]["ratio"] == pytest.approx(16 / 7)


def test_compare_instant_ratio():
    pels = run(instant_scenario())
    base = run({
        "clock_limit": 60,
        "baseline": {"event_mask": "0x1"},
        "stimuli": [[0, 0, 1]],
    })
    result = compare(pels, base)
    assert result["latency"]["ratio"] == pytest.approx(16 / 2)


def test_compare_identical_reports_unity():
    report = run(sequenced_scenario())
    result = compare(report, report)
    assert result["latency"]["ratio"] == 1.0
    assert result["bus_transactions"]["ratio"] == 1.0
    assert result["shared_memory_fetches"]["ratio"] == 1.0


def test_compare_mismatched_stimulus():
    a = run(instant_scenario())
    b = run(instant_scenario(stimuli=[[3, 0, 1]]))
    with pytest.raises(MismatchedStimulus):
        compare(a, b)


def _triggered_sensor(trigger_line: int) -> dict:
    """A stimulus on line 0, a sensor converting on a rise of
    `trigger_line` and pulsing line 2 when done, and a baseline on line 2."""
    return {
        "clock_limit": 60,
        "peripherals": [{"type": "sensor", "base_address": "0x40000000",
                         "schedule": [[0, 7]], "event_line": 2,
                         "triggered": True, "trigger_line": trigger_line}],
        "baseline": {"event_mask": "0x4"},
        "stimuli": [[0, 0, 1]],
    }


def test_stimulus_digest_covers_a_triggered_sensors_trigger_line():
    on, off = run(_triggered_sensor(0)), run(_triggered_sensor(1))
    assert (on.baseline["events"], off.baseline["events"]) == (1, 0)
    assert on.stimulus_digest != off.stimulus_digest
    with pytest.raises(MismatchedStimulus):
        compare(on, off)
    # an untriggered sensor never reads its trigger line
    untriggered = [run(_sensor(trigger_line=line)).stimulus_digest
                   for line in (0, 1)]
    assert untriggered[0] == untriggered[1]


def test_stimulus_digest_ignores_the_order_a_schedule_is_written_in():
    sensor = {"type": "sensor", "base_address": "0x40000000", "event_line": 0}
    reports = [run({"clock_limit": 20,
                    "peripherals": [dict(sensor, schedule=schedule)],
                    "baseline": {"event_mask": "0x1"}})
               for schedule in ([[5, 1], [2, 3]], [[2, 3], [5, 1]])]
    assert reports[0].stimulus_digest == reports[1].stimulus_digest
    assert reports[0].baseline == reports[1].baseline
    assert compare(*reports)["latency"]["ratio"] == 1.0


def _settings(stimuli: list) -> dict:
    return {"clock_limit": 20, "baseline": {"event_mask": "0x1"}, "stimuli": stimuli}


def test_stimulus_digest_keeps_the_last_setting_of_a_line_in_a_cycle():
    """Settings of one line in one cycle apply in scenario order, so the
    last wins: the digest covers the level each (cycle, line) is left at."""
    low_last, high_last = (run(_settings(stimuli)) for stimuli in
                           ([[5, 0, 1], [5, 0, 0]], [[5, 0, 0], [5, 0, 1]]))
    assert (low_last.baseline["events"], high_last.baseline["events"]) == (0, 1)
    assert low_last.stimulus_digest != high_last.stimulus_digest
    with pytest.raises(MismatchedStimulus):
        compare(high_last, low_last)
    overridden = run(_settings([[5, 0, 1]]))
    assert overridden.baseline == high_last.baseline
    assert overridden.stimulus_digest == high_last.stimulus_digest


def test_compare_wall_clock_annotation():
    # independently clocked sides: 7 cycles at 27 MHz and 16 at 55 MHz
    # both meet a 500 ns latency requirement
    pels = run(sequenced_scenario())
    base = run({
        "clock_limit": 80,
        "peripherals": sequenced_scenario()["peripherals"],
        "baseline": {"event_mask": "0x1"},
        "stimuli": [[0, 0, 1]],
    })
    result = compare(pels, base, pels_mhz=27, baseline_mhz=55)
    wc = result["wall_clock"]
    assert wc["pels_ns"] == pytest.approx(7 / 27e6 * 1e9)
    assert wc["baseline_ns"] == pytest.approx(16 / 55e6 * 1e9)
    assert wc["pels_ns"] < 500 and wc["baseline_ns"] < 500
    assert "wall_clock" not in compare(pels, base)


@pytest.mark.parametrize("pels_mhz, baseline_mhz, bad", [
    (-5, 10, "pels_mhz"),
    (float("nan"), 10, "pels_mhz"),
    (0, 10, "pels_mhz"),
    (10, float("inf"), "baseline_mhz"),
    (10, -0.0, "baseline_mhz"),
    (10, None, "baseline_mhz"),
    (None, 10, "pels_mhz"),
])
def test_compare_rejects_a_bad_or_lone_clock_frequency(pels_mhz, baseline_mhz, bad):
    """Both frequencies or neither, each finite and > 0; a bad one used
    to give negative or non-JSON latencies, or silently no `wall_clock`."""
    report = run(instant_scenario())
    with pytest.raises(ValueError, match=f"^{bad}: "):
        compare(report, report, pels_mhz=pels_mhz, baseline_mhz=baseline_mhz)


def test_compare_labels_power_as_not_simulated():
    report = run(instant_scenario())
    result = compare(report, report)
    assert "not simulated" in result["power"]
    assert "power" in report.activity["label"]


# ------------------------------------------------------------------ sweep --

def test_sweep_grid_runs_all_configurations():
    results = sweep(sequenced_scenario(), [1, 2, 3], [4, 6])
    assert len(results) == 6
    assert all(r["ok"] for r in results)
    assert {(r["links"], r["scm_lines"]) for r in results} == {
        (l, s) for l in (1, 2, 3) for s in (4, 6)
    }


def test_sweep_reports_capacity_failures():
    sc = sequenced_scenario(source="wait 1\nwait 2\nwait 3\nwait 4\nwait 5")
    sc["links"][0]["scm_lines"] = 8
    results = sweep(sc, [1], [4, 8])
    by_scm = {r["scm_lines"]: r for r in results}
    assert "error" in by_scm[4]
    assert by_scm[8]["ok"]


def test_sweep_reports_out_of_range_grid_points():
    results = sweep(sequenced_scenario(), [0, 1], [0, 4])
    by_point = {(r["links"], r["scm_lines"]): r for r in results}
    assert by_point[(1, 4)]["ok"]
    for point in [(0, 0), (0, 4), (1, 0)]:
        assert "error" in by_point[point]


# ------------------------------------------------------------------- fuzz --

def _every_field_scenario() -> dict:
    """One scenario that sets every documented field, so the fuzz can
    perturb fields the shipped scenarios leave at their defaults."""
    return {
        "clock_limit": 200,
        "fabric": {"inputs": 32, "outputs": 32, "loopback": {"0": 5}},
        "bus": {"segments": 2, "transfer_cycles": 2},
        "links": [{"scm_lines": 4, "event_mask": "0x5", "trigger_mode": "all",
                   "base_address": "0x40000000", "enabled": True, "fifo_depth": 4,
                   "segment": 0, "program": {"source": "set 0x0, 0x1"}}],
        "peripherals": [
            {"type": "regs", "name": "r0", "base_address": "0x40000000",
             "size_words": 16, "segment": 0},
            {"type": "gpio", "name": "g0", "base_address": "0x40001000", "pins": 32},
            {"type": "timer", "name": "t0", "base_address": "0x40002000",
             "period": 10, "enabled": True, "event_line": 3},
            {"type": "sensor", "name": "s0", "base_address": "0x40003000",
             "schedule": [[5, 100]], "event_line": 2, "triggered": True,
             "trigger_line": 3, "segment": 1},
        ],
        "baseline": {"interrupt_entry_cycles": 10, "handler_cycles": 6,
                     "memory_fetches_per_handler": 16, "event_mask": "0x4",
                     "peripheral_txns_per_event": 2},
        "stimuli": [[0, 0, 1], [4, 2, 0]],
    }


_FUZZ_BASES = [json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))]
_FUZZ_BASES += [instant_scenario(), sequenced_scenario(), _every_field_scenario()]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["0x10", "-1", "1.5", "any", "all", "regs", "sensor", "false"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _with_value(root, path, value):
    if not path:
        return value
    root = copy.deepcopy(root)
    node = root
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return root


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_scenarios_load_and_run_or_raise_config_error(data):
    base = data.draw(st.sampled_from(_FUZZ_BASES))
    path = data.draw(st.sampled_from(list(_paths(base))))
    raw = _with_value(base, path, data.draw(_JSON_VALUES))
    try:
        scenario = load_scenario(raw, base_dir=SCENARIO_DIR)
    except ConfigError:
        return
    capped = replace(scenario, clock_limit=min(scenario.clock_limit, 300))
    try:
        Simulation(capped, "full").run()
    except ConfigError:
        pass



# ------------------------------------------------- next-event time advance --

# Blocks a random link may address: (type, base address, words).
_BLOCKS = (("regs", 0x4000_0000, 4), ("timer", 0x4000_1000, 3),
           ("sensor", 0x4000_2000, 2))
_EVENT_LINES = st.integers(0, 7)
_VALUES = st.integers(0, 40) | st.integers(0, 2**32 - 1)


@st.composite
def _programs(draw, max_len: int, words: int, errors: bool = True):
    """Terminating programs over one block: jumps go forward, loops back
    without nesting, waits are short, and offsets mostly exist (always,
    unless `errors`)."""
    n = draw(st.integers(0, max_len))
    offsets = st.integers(0, words - 1)
    if errors:
        offsets |= st.just(words)  # words: decode error
    cmds = []
    loop_floor = 0
    for i in range(n):
        kind = draw(st.sampled_from(["action", "register", "register", "capture",
                                     "jif", "loop", "wait"]))
        if kind == "action":
            cmds.append(Command.action(draw(st.sampled_from(list(ActionMode))),
                                       draw(st.sampled_from([0, 0, 0, 1])),
                                       draw(st.integers(0, 255))))
        elif kind == "register":
            op = draw(st.sampled_from([OpCode.WRITE, OpCode.SET, OpCode.CLEAR,
                                       OpCode.TOGGLE]))
            cmds.append(Command(op, draw(offsets), draw(_VALUES)))
        elif kind == "capture":
            cmds.append(Command.capture(draw(offsets), draw(_VALUES)))
        elif kind == "jif" and i + 1 < n:
            cmds.append(Command.jump_if(Condition(draw(st.integers(0, 3))),
                                        draw(_VALUES), draw(st.integers(i + 1, n - 1))))
        elif kind == "loop":
            cmds.append(Command.loop(draw(st.integers(0, 3)),
                                     draw(st.integers(loop_floor, i))))
            loop_floor = i + 1
        else:
            cmds.append(Command.wait(draw(st.integers(0, 30))))
    prog = Program(tuple(cmds))
    validate_program(prog)
    return prog


@st.composite
def _scenarios(draw, settle: bool = False) -> dict:
    """Whole scenarios: sparse stimuli, timers, sensors in both modes,
    loopback, the baseline, and links whose programs read and write the
    timer and sensor registers.

    With `settle`, the draws favour runs that end quiescent after bus
    work: at least one link, four event lines and 4-bit masks, so
    stimuli often hit a mask; no decode errors and no timer events; at
    least four stimuli and a long tail after the horizon."""
    lines = st.integers(0, 3) if settle else _EVENT_LINES
    masks = st.integers(0, 15) if settle else st.integers(0, 255)
    n_seg = draw(st.integers(1, 2))
    horizon = draw(st.integers(1, 2000))
    cycles = st.integers(0, horizon + 50)
    segs = [draw(st.integers(0, n_seg - 1)) for _ in _BLOCKS]
    schedule = sorted(draw(st.lists(st.tuples(cycles, _VALUES), max_size=6)))
    peripherals = [
        {"type": "regs", "name": "regs", "base_address": _BLOCKS[0][1],
         "size_words": 4, "segment": segs[0]},
        {"type": "timer", "name": "timer", "base_address": _BLOCKS[1][1],
         "period": draw(st.integers(0, 300)), "enabled": draw(st.booleans()),
         "event_line": None if settle else draw(st.none() | lines),
         "segment": segs[1]},
        {"type": "sensor", "name": "sensor", "base_address": _BLOCKS[2][1],
         "schedule": [list(e) for e in schedule],
         "event_line": draw(st.none() | lines),
         "triggered": draw(st.booleans()),
         "trigger_line": draw(st.none() | lines), "segment": segs[2]},
    ]
    links = []
    for _ in range(draw(st.integers(1 if settle else 0, 4))):
        block = draw(st.integers(0, len(_BLOCKS) - 1))
        _, base, words = _BLOCKS[block]
        scm_lines = draw(st.integers(1, 6))
        links.append({
            "scm_lines": scm_lines,
            "event_mask": draw(masks),
            "trigger_mode": draw(st.sampled_from(["any", "all"])),
            "base_address": base,
            "enabled": draw(st.sampled_from([True, True, True, False])),
            "fifo_depth": draw(st.integers(1, 4)),
            # mostly the segment of its block; otherwise decode errors
            "segment": segs[block] if settle else draw(
                st.sampled_from([segs[block]] * 3 + list(range(n_seg)))),
            "program": {"source": disassemble(
                draw(_programs(scm_lines, words, errors=not settle)))},
        })
    scenario = {
        "clock_limit": horizon + (4000 if settle else 0),
        "fabric": {"loopback": draw(st.dictionaries(
            st.integers(0, 7).map(str), lines, max_size=3))},
        "bus": {"segments": n_seg, "transfer_cycles": draw(st.integers(1, 3))},
        "links": links,
        "peripherals": peripherals,
        "stimuli": [list(e) for e in draw(st.lists(
            st.tuples(cycles, lines, st.integers(0, 1)),
            min_size=4 if settle else 0, max_size=8))],
    }
    if draw(st.booleans()):
        scenario["baseline"] = {"interrupt_entry_cycles": draw(st.integers(0, 12)),
                                "handler_cycles": draw(st.integers(0, 8)),
                                "event_mask": draw(masks)}
    return scenario


def _jsonl(report) -> str:
    sink = io.StringIO()
    emit_trace(report, sink)
    return sink.getvalue()


# A link captures the COUNT of an enabled timer that the kernel never
# ticks (it has no event line) and the reference ticks every cycle, so
# only a read that samples the count as of its own cycle agrees in both.
_TIMER_COUNT_CAPTURE = {
    "clock_limit": 40,
    "links": [{"event_mask": "0x1", "base_address": "0x40001000",
               "program": {"source": "capture 0x2, 0xffffffff"}}],
    "peripherals": [{"type": "timer", "name": "timer",
                     "base_address": "0x40001000", "period": 100, "enabled": True}],
    "stimuli": [[5, 0, 1]],
}


@settings(max_examples=200, deadline=None)
@given(raw=_scenarios())
@example(raw=_TIMER_COUNT_CAPTURE)
def test_skipping_kernel_matches_the_per_cycle_reference(raw):
    scenario = load_scenario(raw)
    fast = Simulation(scenario, "full").run()
    slow = PerCycleSimulation(scenario, "full").run()
    assert fast.to_dict() == slow.to_dict()
    assert _jsonl(fast) == _jsonl(slow)
    assert Simulation(scenario, "off").run().to_dict() == fast.to_dict()
    # `grants` keeps no (fsm, pc) state: the same report, and exactly the
    # records of `full` that its level keeps.
    grants = Simulation(scenario, "grants").run()
    assert grants.to_dict() == fast.to_dict()
    rank = {shape.kind: shape.rank for shape in SHAPES}
    kept = [record for record in fast.trace if rank[record["kind"]] <= 1]
    kept[0] = dict(kept[0], trace_level="grants")
    assert list(grants.trace) == kept
    for entry in fast.per_link:
        t = entry["triggers"]
        assert t["accepted"] + t["dropped"] == t["events"]
    if fast.end_reason == "quiescent" and not fast.errors:
        _check_bus_and_latency(fast, scenario)


def test_reference_image_fills_remaining_lines_with_sentinel():
    """The reference decodes every fetch from the word image it encodes
    from the loaded program; the lines past the program are blank."""
    sc = sequenced_scenario(source="wait 1\nwait 2")
    sc["links"][0]["scm_lines"] = 8
    link = PerCycleSimulation(load_scenario(sc)).links[0]
    assert link.scm[:2] == [isa.encode(Command.wait(1)), isa.encode(Command.wait(2))]
    assert link.scm[2:] == [0] * 6


@settings(max_examples=200, deadline=None)
@given(raw=_scenarios(settle=True))
def test_settled_runs_keep_the_bus_and_latency_invariants(raw):
    scenario = load_scenario(raw)
    fast = Simulation(scenario, "full").run()
    assert fast.to_dict() == PerCycleSimulation(scenario, "off").run().to_dict()
    if fast.end_reason == "quiescent" and not fast.errors:
        _check_bus_and_latency(fast, scenario)


_RMW_OPCODES = (OpCode.SET, OpCode.CLEAR, OpCode.TOGGLE)


@st.composite
def _idle_rmw(draw) -> dict:
    """One link whose program is one set/clear/toggle on a `regs` block,
    with T = 1..3 and triggers spaced so that the link is idle at each."""
    transfer = draw(st.integers(1, 3))
    op = draw(st.sampled_from(["set", "clear", "toggle"]))
    stimuli, cycle = [], draw(st.integers(0, 20))
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.integers(1, 3))
        stimuli += [[cycle, 0, 1], [cycle + width, 0, 0]]
        cycle += width + draw(st.integers(4 + 2 * transfer, 40))
    return {
        "clock_limit": cycle + 100,
        "bus": {"segments": 1, "transfer_cycles": transfer},
        "links": [{"scm_lines": 2, "event_mask": "0x1",
                   "base_address": "0x40000000", "program": {"source":
                       f"{op} {draw(st.integers(0, 3))}, {draw(_VALUES)}"}}],
        "peripherals": [{"type": "regs", "name": "r0",
                         "base_address": "0x40000000", "size_words": 4}],
        "stimuli": stimuli,
    }


@settings(max_examples=100, deadline=None)
@given(raw=_idle_rmw())
def test_rmw_on_an_idle_link_takes_three_cycles_plus_two_transfers(raw):
    """The 7-cycle anchor at any transfer time T: fetch, read (T), modify,
    write (T) and the effect's cycle give 3 + 2T per trigger."""
    report = Simulation(load_scenario(raw), "off").run()
    transfer = raw["bus"]["transfer_cycles"]
    assert report.end_reason == "quiescent" and not report.errors
    assert report.per_link[0]["latency"]["samples"] == (
        [3 + 2 * transfer] * (len(raw["stimuli"]) // 2))


@settings(max_examples=200, deadline=None)
@given(raw=_scenarios(settle=True))
def test_a_program_that_starts_with_an_rmw_takes_at_least_three_plus_two_transfers(
        raw):
    scenario = load_scenario(raw)
    report = Simulation(scenario, "off").run()
    floor = 3 + 2 * raw["bus"]["transfer_cycles"]
    for entry, spec in zip(report.per_link, scenario.links):
        if spec.program.commands and spec.program.commands[0].opcode in _RMW_OPCODES:
            assert all(s >= floor for s in entry["latency"]["samples"])


@st.composite
def _contended(draw) -> dict:
    """2-8 links on one segment with transfer time T = 1..4, all started by
    one timer that pulses faster than the k * T cycles in which the bus
    can serve each link once, so requests queue up on every round."""
    k = draw(st.integers(2, 8))
    transfer = draw(st.integers(1, 4))
    ops = st.sampled_from(["write", "set", "clear", "toggle", "capture"])
    links = [{"scm_lines": 4, "event_mask": "0x1", "base_address": "0x40000000",
              "fifo_depth": draw(st.integers(1, 4)),
              "program": {"source": "\n".join(
                  f"{op} {draw(st.integers(0, 3))}, {draw(st.integers(0, 255))}"
                  for op in draw(st.lists(ops, min_size=1, max_size=4)))}}
             for _ in range(k)]
    return {
        "clock_limit": draw(st.integers(50, 400)),
        "bus": {"segments": 1, "transfer_cycles": transfer},
        "links": links,
        "peripherals": [
            {"type": "regs", "name": "r0", "base_address": "0x40000000",
             "size_words": 4},
            {"type": "timer", "name": "t0", "base_address": "0x40001000",
             "period": draw(st.integers(1, k * transfer - 1)), "enabled": True,
             "event_line": 0}],
    }


@settings(max_examples=200, deadline=None)
@given(raw=_contended())
def test_round_robin_grant_waits_at_most_one_transfer_per_other_master(raw):
    """With k masters on a segment and T-cycle transfers, a request waits
    for at most one transfer of each other master: (k - 1) * T cycles."""
    report = Simulation(load_scenario(raw), "grants").run()
    bound = (len(raw["links"]) - 1) * raw["bus"]["transfer_cycles"]
    waits = [r["wait"] for r in report.trace
             if r["kind"] == "bus" and r["event"] == "grant"]
    assert waits and not report.errors
    target(max(waits) / bound)  # steer the search towards the bound
    assert max(waits) <= bound


@settings(max_examples=100, deadline=None)
@given(raw=_scenarios().filter(lambda raw: len(raw["links"]) >= 2),
       level=st.sampled_from(harness.TRACE_LEVELS))
def test_cycles_are_skipped_whole_so_every_settle_steps_every_link(raw, level):
    """The kernel skips whole cycles, never single links: every simulated
    cycle settles the fabric once and steps each link once."""
    calls = {"step": 0, "settle": 0}
    step, settle = Link.step, EventFabric.settle

    def counted_step(self, *args):
        calls["step"] += 1
        return step(self, *args)

    def counted_settle(self, *args):
        calls["settle"] += 1
        return settle(self, *args)

    with mock.patch.object(Link, "step", counted_step), \
            mock.patch.object(EventFabric, "settle", counted_settle):
        Simulation(load_scenario(raw), level).run()
    assert calls["settle"] > 0
    assert calls["step"] == calls["settle"] * len(raw["links"])


@settings(max_examples=100, deadline=None)
@given(raw=st.booleans().flatmap(lambda settle: _scenarios(settle=settle)),
       level=st.sampled_from(harness.TRACE_LEVELS))
def test_emit_trace_writes_the_json_of_each_record(raw, level):
    """The template serialiser against the one it replaced: json.dumps
    of each record of `report.trace`."""
    report = Simulation(load_scenario(raw), level).run()
    assert _jsonl(report) == "".join(
        json.dumps(record, separators=(",", ":")) + "\n" for record in report.trace)


def _decode_errors() -> dict:
    """Two links on a 16-word block, each addressing word 16: a failed read
    (a `bus` complete record with error, no data) and a failed write (data
    and error), so the trace holds shapes of both widths."""
    sc = sequenced_scenario(source="capture 0x10, 0x1")
    sc["links"].append(dict(sc["links"][0], program={"source": "write 0x10, 0x2"}))
    return sc


@settings(max_examples=150, deadline=None)
@example(raw=_decode_errors(), level="full")
@given(raw=st.booleans().flatmap(lambda settle: _scenarios(settle=settle)),
       level=st.sampled_from(harness.TRACE_LEVELS))
def test_trace_view_walks_the_records_that_emit_trace_writes(raw, level):
    """`report.trace` finds each record in its chunk by the widths of the
    shapes before it: its length, records and last record are those of
    the lines."""
    report = Simulation(load_scenario(raw), level).run()
    lines = [json.loads(line) for line in _jsonl(report).splitlines()]
    records = list(report.trace)
    assert len(report.trace) == len(lines)
    assert records == lines
    assert records[-1] == lines[-1] and lines[-1]["kind"] == "end"
    assert records[0] == lines[0]


def test_a_full_trace_keeps_no_object_per_record():
    """Records are kept as a shape and its values in a chunk's two lists, so
    a record costs its slots (and any new int values) but no container of
    its own."""
    sc = sequenced_scenario(stimuli=[], clock_limit=20_000)
    sc["peripherals"].append({"type": "timer", "name": "t0",
                              "base_address": "0x50000000", "period": 40,
                              "enabled": True, "event_line": 0})
    scenario = load_scenario(sc)
    net = {}
    for level in ("off", "full"):
        sim = Simulation(scenario, level)
        tracemalloc.start()
        report = sim.run()
        net[level] = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
    records = len(report.trace)
    assert records > 5000
    # A tuple per record cost about 120 B; flat chunks cost about 71 B.
    assert (net["full"] - net["off"]) / records < 90


def test_stimulus_digest_is_computed_once_per_run(monkeypatch):
    calls = []
    digest = harness._stimulus_digest

    def counted(*args):
        calls.append(args)
        return digest(*args)

    monkeypatch.setattr(harness, "_stimulus_digest", counted)
    report = run(load_scenario(SCENARIO_DIR / "threshold.json"), "full")
    assert len(calls) == 1
    assert list(report.trace)[0]["stimulus_digest"] == report.stimulus_digest
    assert report.stimulus_digest == digest(*calls[0])


def _check_bus_and_latency(report, scenario):
    """On a run that ended quiescent without errors every transfer
    finished: grants, per-master counts and link counts agree, and every
    program that runs a command takes at least 2 cycles."""
    links = report.per_link
    assert report.bus["grants"] == sum(e["bus_reads"] + e["bus_writes"] for e in links)
    for entry, spec in zip(links, scenario.links):
        master = report.bus["per_master"].get(str(entry["link"]),
                                              {"reads": 0, "writes": 0})
        assert (master["reads"], master["writes"]) == (entry["bus_reads"],
                                                       entry["bus_writes"])
        if len(spec.program):
            assert all(s >= 2 for s in entry["latency"]["samples"])


class _CountingSimulation(Simulation):
    """Counts the cycles the kernel actually simulates: each one settles
    the fabric once."""

    simulated = 0

    def __init__(self, scenario, trace_level="full"):
        super().__init__(scenario, trace_level)
        settle = self.fabric.settle

        def counted(*args):
            self.simulated += 1
            return settle(*args)

        self.fabric.settle = counted


def test_idle_cycles_are_skipped_and_link_records_written_on_change():
    sc = sequenced_scenario()
    sc["clock_limit"] = 50_000
    sc["links"][0]["event_mask"] = "0x2"
    sc["peripherals"].append({"type": "timer", "name": "t0",
                              "base_address": "0x50000000", "period": 1000,
                              "enabled": True, "event_line": 1})
    scenario = load_scenario(sc)
    sim = _CountingSimulation(scenario, "full")
    report = sim.run()
    assert report.cycles == 50_000
    assert report.per_link[0]["latency"]["samples"] == [7] * 49
    assert sim.simulated < 50 * 20  # the RMW and a few settling cycles per tick
    link_records = [r for r in report.trace if r["kind"] == "link"]
    assert len(link_records) < sim.simulated
    pairs = [(r["fsm"], r["pc"]) for r in link_records]
    assert all(a != b for a, b in zip(pairs, pairs[1:]))
    assert list(report.trace)[0]["version"] == harness.TRACE_FORMAT_VERSION == 2
    reference = PerCycleSimulation(scenario, "full").run()
    assert _jsonl(report) == _jsonl(reference)
