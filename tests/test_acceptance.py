"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import hashlib
import io
import random
import time

import pytest

from helpers import SCENARIO_DIR, random_program
from pels.asm import (
    AsmError,
    assemble,
    assemble_text,
    disassemble,
    parse,
    validate_against_capacity,
)
from pels.core import execute_rmw
from pels.harness import Simulation, compare, emit_trace, load_scenario, run
from pels.isa import OpCode


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:>2} {desc}: FAIL")
                raise
            print(f"criterion {num:>2} {desc}: PASS")
        return wrapper
    return deco


def timed_run(source, budget_s, **kwargs):
    start = time.monotonic()
    report = run(source, **kwargs)
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"run took {elapsed:.2f}s, budget {budget_s}s"
    return report


@criterion(1, "instant-action latency = 2 cycles")
def test_criterion_01_instant_action():
    report = timed_run(SCENARIO_DIR / "instant.json", budget_s=1.0)
    lat = report.per_link[0]["latency"]
    assert lat["count"] == 1
    assert lat["min"] == 2 and lat["max"] == 2  # tolerance 0


@criterion(2, "sequenced-action latency = 7 cycles")
def test_criterion_02_sequenced_action():
    report = timed_run(SCENARIO_DIR / "sequenced.json", budget_s=1.0)
    lat = report.per_link[0]["latency"]
    assert lat["count"] == 1
    assert lat["min"] == 7 and lat["max"] == 7  # tolerance 0


@criterion(3, "baseline CPU latency = 16 cycles")
def test_criterion_03_baseline_latency():
    report = timed_run({
        "clock_limit": 60,
        "baseline": {"interrupt_entry_cycles": 10, "handler_cycles": 6,
                     "memory_fetches_per_handler": 16, "event_mask": "0x1"},
        "stimuli": [[0, 0, 1]],
    }, budget_s=1.0)
    lat = report.baseline["latency"]
    assert lat["samples"] == [16]  # tolerance 0


@criterion(4, "memory-activity proxy ratio (power not simulated)")
def test_criterion_04_power_proxy():
    pels = run(SCENARIO_DIR / "threshold.json")
    base = run(SCENARIO_DIR / "threshold_baseline.json")
    assert pels.activity["shared_memory_instruction_fetches"] == 0
    assert base.activity["shared_memory_instruction_fetches"] == 16
    result = compare(pels, base)
    ratio = result["shared_memory_fetches"]["ratio"]
    assert ratio >= 3.7
    assert ratio == ratio and ratio != float("inf")  # finite

    # any calibration with at least 2 fetches keeps the ratio finite and > 1
    recal = load_scenario(SCENARIO_DIR / "threshold_baseline.json")
    recal.baseline.memory_fetches_per_handler = 2
    result2 = compare(pels, Simulation(recal).run())
    ratio2 = result2["shared_memory_fetches"]["ratio"]
    assert ratio2 > 1 and ratio2 != float("inf")


@criterion(5, "round-robin fairness over 8 contending links")
def test_criterion_05_arbitration_fairness():
    start = time.monotonic()
    report = run(SCENARIO_DIR / "contention8.json", trace_level="grants")
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"
    assert report.cycles == 10_000

    grants = [(r["t"], r["master"]) for r in report.trace
              if r["kind"] == "bus" and r["event"] == "grant"]
    waits = [r["wait"] for r in report.trace
             if r["kind"] == "bus" and r["event"] == "grant"]
    assert max(waits) <= (8 - 1) * 2  # starvation bound (L-1)*T

    # steady state: after the first two full rotations, every 16-cycle
    # window holds exactly one grant per link
    steady = [g for g in grants if g[0] >= 32]
    assert len(steady) > 4000
    lo = 0
    times = [t for t, _ in steady]
    for start_t in range(32, steady[-1][0] - 16):
        while times[lo] < start_t:
            lo += 1
        window = [m for (t, m) in steady[lo:lo + 16] if start_t <= t < start_t + 16]
        if len(window) == 8:
            assert sorted(window) == list(range(8))


@criterion(6, "assembler round-trip and negative corpus")
def test_criterion_06_assembler_roundtrip():
    rng = random.Random(0xA5C)
    for _ in range(1000):
        prog = random_program(rng, max_len=8)
        assert assemble(parse(disassemble(prog))) == prog

    negative_corpus = [
        ("a: wait 1\nb: wait 2\n   loop 1, b\n   loop 1, a", "nested-loop"),
        ("write 0, 0x100000000", "operand-width"),
        ("set 0x1000, 1", "operand-width"),
        ("jif eq, 1, missing", "undefined-label"),
        ("bogus 1, 2", "unknown-mnemonic"),
    ]
    for source, expected_code in negative_corpus:
        with pytest.raises(AsmError) as exc:
            assemble_text(source)
        assert exc.value.code == expected_code, source

    five = assemble_text("wait 1\nwait 2\nwait 3\nwait 4\nwait 5")
    with pytest.raises(AsmError) as exc:
        validate_against_capacity(five, 4)
    assert exc.value.code == "capacity"


@criterion(7, "read-modify-write matches the bit-loop oracle")
def test_criterion_07_rmw_oracle():
    def bit_loop(old, opcode, mask):
        out = 0
        for i in range(32):
            ob = (old >> i) & 1
            mb = (mask >> i) & 1
            if opcode is OpCode.SET:
                nb = ob | mb
            elif opcode is OpCode.CLEAR:
                nb = ob & (1 - mb)
            else:
                nb = ob ^ mb
            out |= nb << i
        return out

    rng = random.Random(0x1234)
    for opcode in (OpCode.SET, OpCode.CLEAR, OpCode.TOGGLE):
        for _ in range(10_000):
            old = rng.getrandbits(32)
            mask = rng.getrandbits(32)
            assert execute_rmw(old, opcode, mask) == bit_loop(old, opcode, mask)


@criterion(8, "byte-identical traces across reruns")
def test_criterion_08_determinism():
    def trace_digest(path):
        report = run(load_scenario(path), trace_level="full")
        sink = io.StringIO()
        emit_trace(report, sink)
        return hashlib.sha256(sink.getvalue().encode()).hexdigest()

    for name in ("threshold.json", "sequenced.json", "contention8.json"):
        path = SCENARIO_DIR / name
        assert trace_digest(path) == trace_digest(path), name


@criterion(9, "FIFO overflow accounting under a period-1 timer")
def test_criterion_09_fifo_behavior():
    clock_limit = 400
    report = run({
        "clock_limit": clock_limit,
        "links": [{"scm_lines": 4, "event_mask": "0x8",
                   "base_address": "0x40000000", "fifo_depth": 4,
                   "program": {"source": "set 0x0, 0x1"}}],
        "peripherals": [
            {"type": "regs", "name": "r0", "base_address": "0x40000000"},
            {"type": "timer", "name": "t0", "base_address": "0x40001000",
             "period": 1, "enabled": True, "event_line": 3},
        ],
    })
    entry = report.per_link[0]
    trig = entry["triggers"]

    # independent oracle: a period-1 timer enabled at cycle 0 pulses every
    # cycle from 1 to the end of the run, and each pulse is one event
    expected_events = clock_limit - 1
    assert trig["events"] == expected_events
    assert trig["dropped"] > 0
    assert trig["accepted"] + trig["dropped"] == expected_events

    # no accepted trigger is lost: each one either started (and possibly
    # completed) or is still queued at the clock limit, in FIFO order
    accepted = [r["token"] for r in report.trace
                if r["kind"] == "trigger" and r["status"] == "accepted"]
    started = [r["token"] for r in report.trace
               if r["kind"] == "program" and r["event"] == "start"]
    completed = [r["token"] for r in report.trace
                 if r["kind"] == "program" and r["event"] == "complete"]
    assert set(started) <= set(accepted)
    queued = [tok for tok in accepted if tok not in set(started)]
    assert queued == accepted[len(started):]  # only the newest wait
    assert len(queued) <= 4
    assert len(accepted) == len(started) + len(queued)
    assert len(completed) == entry["latency"]["count"]
    assert len(accepted) == entry["latency"]["count"] + entry["pending_at_end"]


@criterion(10, "inter-link triggering through loopback = 3 cycles")
def test_criterion_10_inter_link():
    report = run({
        "clock_limit": 50,
        "fabric": {"inputs": 32, "outputs": 32, "loopback": {"0": 5}},
        "links": [
            {"scm_lines": 4, "event_mask": "0x1",
             "program": {"source": "action grp0.set, 0x1"}},
            {"scm_lines": 4, "event_mask": "0x20",
             "program": {"source": "action grp0.set, 0x2"}},
        ],
        "stimuli": [[0, 0, 1]],
    })
    actions = {r["link"]: r["t"] for r in report.trace if r["kind"] == "action"}
    assert actions[1] - actions[0] == 3  # 1 loopback + 2 instant
    assert report.per_link[1]["latency"]["samples"] == [2]


@criterion(11, "configuration sweep over links 1..8 x SCM {4,6,8}")
def test_criterion_11_configuration_sweep():
    import json
    import tempfile

    from pels.cli import EXIT_OK, pels_main

    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/sweep.json"
        start = time.monotonic()
        rc = pels_main(["sweep", str(SCENARIO_DIR / "sequenced.json"),
                        "--links", "1..8", "--scm-lines", "4,6,8",
                        "--report", out])
        elapsed = time.monotonic() - start
        assert rc == EXIT_OK
        assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"
        with open(out) as f:
            results = json.load(f)
    assert len(results) == 24
    assert {(r["links"], r["scm_lines"]) for r in results} == {
        (l, s) for l in range(1, 9) for s in (4, 6, 8)
    }
    for entry in results:
        assert entry["ok"], entry
        assert entry["end_reason"] == "quiescent"
