"""Scenario loading, the global clock loop, reports and comparisons.

A scenario is a JSON document (or an equivalent dict):

    {
      "clock_limit": 200,
      "fabric": {"inputs": 32, "outputs": 32, "loopback": {"0": 5}},
      "bus": {"segments": 1, "transfer_cycles": 2},
      "links": [
        {"scm_lines": 8, "event_mask": "0x1", "trigger_mode": "any",
         "base_address": "0x40000000", "enabled": true, "fifo_depth": 4,
         "segment": 0, "program": "prog.pels" | {"source": "..."}}
      ],
      "peripherals": [
        {"type": "regs",   "name": "r0", "base_address": "0x40000000",
         "size_words": 16, "segment": 0},
        {"type": "gpio",   "name": "g0", "base_address": "0x40001000", "pins": 32},
        {"type": "timer",  "name": "t0", "base_address": "0x40002000",
         "period": 10, "enabled": true, "event_line": 3},
        {"type": "sensor", "name": "s0", "base_address": "0x40003000",
         "schedule": [[5, 100]], "event_line": 2, "triggered": false,
         "trigger_line": null}
      ],
      "baseline": {"interrupt_entry_cycles": 10, "handler_cycles": 6,
                   "memory_fetches_per_handler": 16, "event_mask": "0x4",
                   "peripheral_txns_per_event": 2},
      "stimuli": [[0, 0, 1]]
    }

load_scenario reads every value through a typed reader and raises
ConfigError naming the bad field, e.g. `links[0].enabled`; a bad row of
`stimuli` or `schedule` is named by its list.

- Numbers are integers or integer-literal strings ("0x40") within
  0..2^32-1, or narrower: fabric lines 1..8192, bus segments 1..16,
  `scm_lines` 1..256, `fifo_depth` 1..16, `pins` 0..32, `size_words`
  1..65536, stimulus levels 0..1, `clock_limit` and `transfer_cycles`
  from 1. Masks, lines and segments must exist; at most 8 links.
- Flags (`enabled`, `triggered`) are JSON true or false.
- Link and peripheral base addresses are word aligned (`_address`).
- A program must assemble and fit its link's `scm_lines`.

These readers are the one check of each range and of alignment; the
model classes check none, as only `Simulation` builds them, from a
loaded Scenario. Overlapping register blocks (`BusSegment.attach`) are
the one ConfigError raised later, by the Simulation constructor.

Stimuli are (cycle, input line, level) settings of held level lines;
peripheral event outputs are one-cycle pulses. Each cycle runs in a
fixed order: stimuli and peripheral ticks settle the input vector, links
step in index order, the baseline model steps, then the bus arbitrates.
A Scenario is immutable run input; every Simulation builds fresh link,
bus and peripheral state, so the trace and report are pure functions of
the scenario.

Idle cycles are skipped (next-event time advance). After a cycle in
which no link did any work, every FIFO is empty, the bus is idle and the
fabric is steady (no pulse, edge detector caught up), nothing can change
until the next stimulus, the next peripheral due cycle (`due`) or the
baseline's next completion, so the clock jumps straight to the earliest
of them. When there is none, the run ends `quiescent` after the first
cycle in which links and bus are idle; otherwise it ends at
`clock_limit`. Reports and traces are those of stepping every cycle:
skipped cycles are exactly the ones that would change no state and
write no trace record, since `link` records are written only when a
link's (fsm, pc) changes.

A simulated cycle runs only the stage work that can act in it; none of
these rules can change a report or a trace:
- Peripherals: only blocks with a `tick` of their own (Timer, Sensor)
  are ticked, and each only in its `due` cycle, the next one in which a
  tick can pulse or change what a read returns; `RegisterBlock.tick`
  does nothing.
- Fabric: `settle` scans the loopback only while an output is high. A
  trigger predicate (a link's or the baseline's) is evaluated only when
  a line of its mask rose (`EventFabric.rose`); else it cannot newly hold.
- Links: a link parked on the bus (its transaction posted, not yet done:
  `done` is set by the bus stage after the links), tested first, and an
  idle link with an empty FIFO return their state without entering the
  FSM. A disabled link's trigger mask is 0, so it never triggers and
  stays idle. A fetch takes the loaded `Command`, whose encoding is the
  SCM word, so nothing is decoded; each command's bus address is
  computed once, when its program is loaded.
- Bus: a segment is stepped only in the cycle its transfer completes,
  or while it is free with a request pending; `BusSegment.step` does
  nothing in any other cycle, as it grants only with no transfer in
  flight.

After the bus stage, a segment or link with work left makes the next
cycle t + 1; only when none has does `_next_cycle` choose between a
jump and quiescence.

Within a run, link i is bus master i. The baseline is an accounting
model: it holds no master id and does not contend on the simulated bus;
its transaction counts are reported separately.

The trace schema, `Trace` and `emit_trace` live in `trace.py` and are
re-exported here. `SimReport.trace` is the run's `Trace`: its frozen
chunks in an anonymous spill file, closed when the report is dropped,
its open chunk in memory; `len` counts its records, and iterating it
yields the dicts their JSON lines encode.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union

from .asm import (
    MAX_PROGRAM_LENGTH,
    AsmError,
    Program,
    assemble_text,
    validate_against_capacity,
)
from .bus import BusSegment
from .core import (LINK, TRIGGER_MODE_NAMES, EventFabric, FsmState, Link,
                   LinkConfig, TriggerMode)
from .isa import ACTION_GROUP_WIDTH
from .periph import (
    BaselineCpu,
    BaselineCpuModel,
    Gpio,
    Regs,
    RegisterBlock,
    Sensor,
    Timer,
)
# Trace, emit_trace and the two constants are re-exported as harness names.
from .trace import (BASELINE_HANDLED, BASELINE_IRQ, END, FABRIC, HEADER, STIMULUS,
                    TRACE_FORMAT_VERSION, TRACE_LEVELS, Trace, emit_trace)

MAX_LINKS = 8
MAX_FIFO_DEPTH = 16  # a link's trigger FIFO holds 1..MAX_FIFO_DEPTH tokens
_WORD_MAX = 0xFFFF_FFFF
# Action commands address at most 256 groups of output lines; inputs
# share the bound so that masks stay small integers.
_MAX_FABRIC_LINES = 256 * ACTION_GROUP_WIDTH
_MAX_SEGMENTS = 16
_MAX_REGS_WORDS = 1 << 16


class ConfigError(Exception):
    """Invalid scenario; `location` names the offending field."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class MismatchedStimulus(Exception):
    """compare() was given reports produced from different stimuli."""


# -- typed readers: every scenario value passes through one of these ----

def _obj(value, location: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(location, f"expected an object, got {value!r}")
    return value


def _list(value, location: str, max_len: Optional[int] = None) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(location, f"expected a list, got {value!r}")
    if max_len is not None and len(value) > max_len:
        raise ConfigError(location, f"more than the supported {max_len} entries")
    return value


def _int(value, location: str, lo: int = 0, hi: int = _WORD_MAX) -> int:
    """An integer, or a string holding a Python integer literal, within lo..hi."""
    if type(value) is not int:  # also rejects bool
        if type(value) is not str:
            raise ConfigError(location, f"expected an integer, got {value!r}")
        try:
            value = int(value, 0)
        except ValueError:
            raise ConfigError(location, f"expected an integer, got {value!r}") from None
    if not lo <= value <= hi:
        raise ConfigError(location, f"must be within {lo}..{hi}")
    return value


def _address(value, location: str) -> int:
    """A word-aligned byte address. Bus addresses are base + 4 * field, so
    an aligned base keeps every transaction and register word aligned."""
    address = _int(value, location)
    if address % 4:
        raise ConfigError(location, f"base address 0x{address:08x} not word aligned")
    return address


def _flag(value, location: str) -> bool:
    if value is not True and value is not False:
        raise ConfigError(location, f"expected true or false, got {value!r}")
    return value


def _str(value, location: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(location, f"expected a string, got {value!r}")
    return value


def _line(value, location: str, n_inputs: int) -> Optional[int]:
    return None if value is None else _int(value, location, 0, n_inputs - 1)


def _schedule(value, location: str, n_inputs: int) -> list[tuple[int, int]]:
    pairs = []
    for entry in _list(value, location):
        match entry:
            case [cycle, sample]:
                pairs.append((_int(cycle, location), _int(sample, location)))
            case _:
                raise ConfigError(location, f"expected [cycle, value], got {entry!r}")
    return pairs


# Peripheral parameter readers, called as (value, location, fabric inputs).
# Absent keys take the block constructor's default; the constructors check
# nothing, so each range is stated here.
_PARAMS = {
    "pins": lambda v, loc, n: _int(v, loc, 0, 32),
    "size_words": lambda v, loc, n: _int(v, loc, 1, _MAX_REGS_WORDS),
    "period": lambda v, loc, n: _int(v, loc),
    "enabled": lambda v, loc, n: _flag(v, loc),
    "triggered": lambda v, loc, n: _flag(v, loc),
    "event_line": _line,
    "trigger_line": _line,
    "schedule": _schedule,
}

# Peripheral type -> (block class, scenario keys passed to its constructor).
_PERIPHERALS = {
    "gpio": (Gpio, ("pins",)),
    "regs": (Regs, ("size_words",)),
    "timer": (Timer, ("period", "enabled", "event_line")),
    "sensor": (Sensor, ("schedule", "event_line", "triggered", "trigger_line")),
}

_BASELINE_COUNTS = ("interrupt_entry_cycles", "handler_cycles",
                    "memory_fetches_per_handler", "peripheral_txns_per_event")


@dataclass
class LinkSpec:
    scm_lines: int
    config: LinkConfig
    fifo_depth: int
    segment: int
    program: Program


@dataclass
class PeripheralSpec:
    """Declarative peripheral; a fresh block is built for every run."""

    kind: str
    name: str
    base_address: int
    segment: int
    params: dict  # constructor keyword arguments: the keys the scenario sets

    def build(self) -> RegisterBlock:
        block_class, _ = _PERIPHERALS[self.kind]
        return block_class(self.name, self.base_address, **self.params)


@dataclass
class Scenario:
    """A loaded scenario; `load_scenario` sets every field."""

    clock_limit: int
    fabric_inputs: int
    fabric_outputs: int
    loopback: dict[int, int]
    bus_segments: int
    transfer_cycles: int
    links: list[LinkSpec]
    peripherals: list[PeripheralSpec]
    baseline: Optional[BaselineCpuModel]
    stimuli: list[tuple[int, int, int]]
    source_digest: str


def _unsortable_keys(node, location: str = "scenario") -> Optional[str]:
    """Location of the first object whose keys cannot be sorted, such as
    a Python dict mixing int and str keys; None when there is none."""
    if isinstance(node, dict):
        try:
            sorted(node)
        except TypeError:
            return location
        prefix = "" if location == "scenario" else location + "."
        items = [(f"{prefix}{key}", value) for key, value in node.items()]
    elif isinstance(node, (list, tuple)):
        items = [(f"{location}[{i}]", value) for i, value in enumerate(node)]
    else:
        return None
    for loc, value in items:
        found = _unsortable_keys(value, loc)
        if found:
            return found
    return None


def _source_digest(raw: dict) -> str:
    try:
        text = json.dumps(raw, sort_keys=True, default=str)
    except TypeError:
        raise ConfigError(_unsortable_keys(raw) or "scenario",
                          "object keys must be strings") from None
    return hashlib.sha256(text.encode()).hexdigest()


def _load_program(spec, base_dir: Path, location: str, scm_lines: int) -> Program:
    if isinstance(spec, dict):
        text = _str(spec.get("source"), f"{location}.source")
    else:
        path = base_dir / _str(spec, location)
        try:
            text = path.read_text()
        except (OSError, ValueError) as e:
            raise ConfigError(location, f"cannot read {path}: {e}") from None
    try:
        prog = assemble_text(text)
        validate_against_capacity(prog, scm_lines)
    except AsmError as e:
        raise ConfigError(location, str(e)) from None
    return prog


def load_scenario(source: Union[dict, str, Path],
                  base_dir: Optional[Path] = None) -> Scenario:
    """Build a validated Scenario from a JSON file path or a dict."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            raise ConfigError(str(source), f"cannot read scenario: {e}") from None
        base_dir = path.parent
    else:
        raw = source
        base_dir = Path(base_dir) if base_dir else Path.cwd()
    raw = _obj(raw, "scenario")

    fab = _obj(raw.get("fabric", {}), "fabric")
    n_in = _int(fab.get("inputs", 32), "fabric.inputs", 1, _MAX_FABRIC_LINES)
    n_out = _int(fab.get("outputs", 32), "fabric.outputs", 1, _MAX_FABRIC_LINES)
    mask_max = (1 << n_in) - 1
    bus = _obj(raw.get("bus", {}), "bus")
    n_seg = _int(bus.get("segments", 1), "bus.segments", 1, _MAX_SEGMENTS)
    sc = Scenario(
        clock_limit=_int(raw.get("clock_limit", 10_000), "clock_limit", 1),
        fabric_inputs=n_in,
        fabric_outputs=n_out,
        loopback={
            _int(out_line, "fabric.loopback", 0, n_out - 1):
                _int(in_line, "fabric.loopback", 0, n_in - 1)
            for out_line, in_line in
            _obj(fab.get("loopback", {}), "fabric.loopback").items()
        },
        bus_segments=n_seg,
        transfer_cycles=_int(bus.get("transfer_cycles", 2), "bus.transfer_cycles", 1),
        links=[], peripherals=[], baseline=None, stimuli=[],
        source_digest=_source_digest(raw),
    )

    for i, lr in enumerate(_list(raw.get("links", []), "links", MAX_LINKS)):
        loc = f"links[{i}]"
        lr = _obj(lr, loc)
        scm_lines = _int(lr.get("scm_lines", 8), f"{loc}.scm_lines", 1,
                         MAX_PROGRAM_LENGTH)
        mode = lr.get("trigger_mode", "any")
        try:  # a TriggerMode code; `index` compares, so any value is safe
            mode = TRIGGER_MODE_NAMES.index(mode)
        except ValueError:
            raise ConfigError(f"{loc}.trigger_mode", f"unknown mode {mode!r}") from None
        sc.links.append(LinkSpec(
            scm_lines,
            LinkConfig(
                event_mask=_int(lr.get("event_mask", 0), f"{loc}.event_mask",
                                0, mask_max),
                trigger_mode=mode,
                base_address=_address(lr.get("base_address", 0),
                                      f"{loc}.base_address"),
                enabled=_flag(lr.get("enabled", True), f"{loc}.enabled"),
            ),
            _int(lr.get("fifo_depth", 4), f"{loc}.fifo_depth", 1, MAX_FIFO_DEPTH),
            _int(lr.get("segment", 0), f"{loc}.segment", 0, n_seg - 1),
            _load_program(lr.get("program", {"source": ""}), base_dir,
                          f"{loc}.program", scm_lines),
        ))

    for i, pr in enumerate(_list(raw.get("peripherals", []), "peripherals")):
        loc = f"peripherals[{i}]"
        pr = _obj(pr, loc)
        kind = _str(pr.get("type"), f"{loc}.type")
        if kind not in _PERIPHERALS:
            raise ConfigError(f"{loc}.type", f"unknown peripheral type {kind!r}")
        sc.peripherals.append(PeripheralSpec(
            kind,
            _str(pr.get("name", f"{kind}{i}"), f"{loc}.name"),
            _address(pr.get("base_address", 0), f"{loc}.base_address"),
            _int(pr.get("segment", 0), f"{loc}.segment", 0, n_seg - 1),
            {key: _PARAMS[key](pr[key], f"{loc}.{key}", n_in)
             for key in _PERIPHERALS[kind][1] if key in pr},
        ))

    br = raw.get("baseline")
    if br is not None:
        br = _obj(br, "baseline")
        sc.baseline = BaselineCpuModel(
            event_mask=_int(br.get("event_mask", mask_max), "baseline.event_mask",
                            0, mask_max),
            **{key: _int(br[key], f"baseline.{key}")
               for key in _BASELINE_COUNTS if key in br},
        )

    for entry in _list(raw.get("stimuli", []), "stimuli"):
        match entry:
            case [cycle, line, level]:
                sc.stimuli.append((_int(cycle, "stimuli"),
                                   _int(line, "stimuli", 0, n_in - 1),
                                   _int(level, "stimuli", 0, 1)))
            case _:
                raise ConfigError("stimuli", f"expected [cycle, line, level], "
                                             f"got {entry!r}")

    return sc


@dataclass
class SimReport:
    """Aggregate results plus the cycle-stamped trace of one run."""

    scenario_digest: str
    stimulus_digest: str
    cycles: int
    end_reason: str
    per_link: list[dict]
    bus: dict
    baseline: Optional[dict]
    activity: dict
    errors: list[dict]
    trace: Trace

    def to_dict(self) -> dict:
        """Every field but the trace, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "trace"}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _latency_block(samples: list[int]) -> dict:
    if not samples:
        return {"samples": [], "count": 0, "min": None, "max": None,
                "mean": None, "jitter": None}
    return {
        "samples": list(samples),
        "count": len(samples),
        "min": min(samples),
        "max": max(samples),
        "mean": sum(samples) / len(samples),
        "jitter": max(samples) - min(samples),
    }


def _stimulus_digest(stimuli: list[tuple[int, int, int]],
                     blocks: list[RegisterBlock]) -> str:
    """Digest of everything that generates events, read before the first
    cycle: the level each stimulus (cycle, line) is left at, as the last
    setting wins, and the event configuration of each built Timer and
    Sensor (a sensor reads its trigger line only when triggered)."""
    levels = {(cycle, line): level for cycle, line, level in stimuli}
    gens = []
    for block in blocks:
        if isinstance(block, Timer):
            gens.append(["timer", block.period, block.enabled, block.event_line])
        elif isinstance(block, Sensor):
            entry = ["sensor", list(map(list, block.schedule)), block.event_line,
                     block.triggered]
            if block.triggered:
                entry.append(block.trigger_line)
            gens.append(entry)
    payload = json.dumps(
        {"stimuli": sorted((*key, level) for key, level in levels.items()),
         "generators": sorted(gens, key=str)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class Simulation:
    """One scenario bound to fresh fabric/link/bus/peripheral state.
    `run()` may be called once; build a new Simulation to run again."""

    def __init__(self, scenario: Scenario, trace_level: str = "full"):
        self.scenario = scenario
        try:
            self.trace = Trace(trace_level)
        except ValueError as e:
            raise ConfigError("trace_level", str(e)) from None
        # Links and segments write only kinds that "off" drops; the
        # harness's own kinds (stimulus, link, baseline, fabric) are "full" only.
        record = None if trace_level == "off" else self.trace.emit
        self._full = trace_level == "full"
        self.fabric = EventFabric(scenario.fabric_inputs, scenario.fabric_outputs,
                                  scenario.loopback)
        n_masters = max(len(scenario.links), 1)  # link i is master i
        self.segments = [BusSegment(i, n_masters, scenario.transfer_cycles, record)
                         for i in range(scenario.bus_segments)]
        self.blocks: list[RegisterBlock] = []
        for spec in scenario.peripherals:
            block = spec.build()
            self.blocks.append(block)
            try:
                self.segments[spec.segment].attach(block)
            except ValueError as e:
                raise ConfigError(f"peripherals ({spec.name})", str(e))

        self.links: list[Link] = []
        self._link_segments = []
        for i, spec in enumerate(scenario.links):
            link = Link(i, spec.config, spec.scm_lines, spec.fifo_depth, record)
            link.load_program(spec.program)
            self.links.append(link)
            self._link_segments.append((link, self.segments[spec.segment]))

        self.baseline = BaselineCpu(scenario.baseline) if scenario.baseline else None
        self._baseline_cfg = (
            LinkConfig(scenario.baseline.event_mask, TriggerMode.ANY_SELECTED_ACTIVE,
                       0, True) if scenario.baseline else None
        )
        self._stimuli_by_cycle: dict[int, list[tuple[int, int]]] = {}
        for cycle, line, level in scenario.stimuli:
            self._stimuli_by_cycle.setdefault(cycle, []).append((line, level))
        self._stimulus_cycles = sorted(self._stimuli_by_cycle)
        # Only blocks with a tick of their own can pulse or act unprompted.
        self._ticking = [b for b in self.blocks
                         if type(b).tick is not RegisterBlock.tick]
        # input-triggered sensors: [block, trigger line, last seen level]
        self._triggered_sensors = [
            [b, b.trigger_line, 0] for b in self.blocks
            if isinstance(b, Sensor) and b.triggered and b.trigger_line is not None
        ]

    def _next_cycle(self, t: int, quiet: bool) -> Optional[int]:
        """After a cycle t that left every segment and link idle: the cycle
        to simulate next, or None when the run is quiescent. `quiet` is
        True when no link did any work in cycle t; then no output changed
        either, so loopback holds."""
        stimulus_cycles = self._stimulus_cycles
        pending = self.baseline.pending if self.baseline else ()
        # A link that did work may still write its idle `link` record, and
        # an unsteady fabric may still raise a trigger, in cycle t + 1.
        if not (quiet and self.fabric.steady):  # no jump: is anything due?
            due = (pending or (stimulus_cycles and stimulus_cycles[-1] > t)
                   or any(b.due is not None for b in self._ticking))
            return t + 1 if due else None
        due = [b.due for b in self._ticking if b.due is not None]
        i = bisect_right(stimulus_cycles, t)
        due += stimulus_cycles[i:i + 1]
        if pending:  # completions come in order: the first is the earliest
            due.append(pending[0][1])
        return min(due) if due else None

    def run(self) -> SimReport:
        if len(self.trace):  # the header of an earlier run
            raise RuntimeError("Simulation.run() is single-use; build a new Simulation")
        sc = self.scenario
        emit = self.trace.emit
        full = self._full
        fabric, baseline = self.fabric, self.baseline
        # Entry points are bound once per run, not looked up every cycle.
        settle, next_cycle = fabric.settle, self._next_cycle
        stimuli_at = self._stimuli_by_cycle.get
        ticks = [(block, block.tick) for block in self._ticking]
        triggered_sensors = self._triggered_sensors
        # [link, its bound step, its segment, fsm + 8 * pc of its last record]
        steps = [[link, link.step, segment, -1]
                 for link, segment in self._link_segments]
        links, segments = self.links, self.segments
        idle = FsmState.IDLE
        stimulus_digest = _stimulus_digest(sc.stimuli, self.blocks)
        emit(HEADER, TRACE_FORMAT_VERSION, sc.source_digest, stimulus_digest,
             self.trace.level)
        stim_levels = 0
        end_reason = "clock_limit"
        cycles = clock_limit = sc.clock_limit
        last_inputs = last_outputs = 0  # of the last fabric record
        t = 0
        while t < clock_limit:
            for line, level in stimuli_at(t, ()):
                if level:
                    stim_levels |= 1 << line
                else:
                    stim_levels &= ~(1 << line)
                if full:
                    emit(STIMULUS, t, line, level)

            pulses = 0
            for block, tick in ticks:
                if block.due == t:
                    pulses |= tick(t)
            settle(stim_levels, pulses)

            for entry in triggered_sensors:
                sensor, line, last = entry
                level = (fabric.inputs >> line) & 1
                if level and not last:
                    sensor.latch(t)  # done pulse arrives with the next tick
                entry[2] = level

            quiet = True
            for entry in steps:
                link, step, segment, shown = entry
                performed = step(t, fabric, segment)
                if performed is not idle:
                    quiet = False
                if full and shown != (code := performed + 8 * link.pc):
                    entry[3] = code  # states are 0..6
                    emit(LINK[performed], t, link.link_id, link.pc)

            if baseline:
                if (fabric.rose & self._baseline_cfg.event_mask
                        and fabric.rising_trigger(self._baseline_cfg)):
                    completion = baseline.handle_event(t)
                    if full:
                        emit(BASELINE_IRQ, t, completion)
                if baseline.pending:
                    for event_cycle, completion in baseline.step(t):
                        if full:
                            emit(BASELINE_HANDLED, t, completion - event_cycle)

            if full and (fabric.inputs != last_inputs
                         or fabric.outputs != last_outputs):
                last_inputs, last_outputs = fabric.inputs, fabric.outputs
                emit(FABRIC, t, last_inputs, last_outputs)
            for segment in segments:  # at a transfer's completion, or to grant
                txn = segment.in_flight
                if (segment.pending if txn is None else txn.complete_cycle == t):
                    segment.step(t)

            # Work left in a segment or link: simulate t + 1, no jump.
            for segment in segments:
                if segment.in_flight is not None or segment.pending:
                    break
            else:
                for link in links:
                    if link.state is not idle or link.fifo:
                        break
                else:
                    next_t = next_cycle(t, quiet)
                    if next_t is None:
                        end_reason = "quiescent"
                        cycles = t + 1
                        break
                    t = next_t
                    continue
            t += 1

        emit(END, cycles - 1, end_reason)
        return self._report(cycles, end_reason, stimulus_digest)

    def _report(self, cycles: int, end_reason: str,
                stimulus_digest: str) -> SimReport:
        sc = self.scenario
        errors: list[dict] = []
        per_link = []
        for link in self.links:
            if link.error:
                errors.append({"link": link.link_id, "detail": link.error_detail})
            pending = len(link.fifo) + (1 if link.state is not FsmState.IDLE else 0)
            per_link.append({
                "link": link.link_id,
                "latency": _latency_block(link.latency_samples),
                "triggers": {
                    "events": link.stats.trigger_events,
                    "accepted": link.stats.triggers_accepted,
                    "dropped": link.stats.triggers_dropped,
                },
                "commands_executed": link.stats.commands_executed,
                "bus_reads": link.stats.bus_reads,
                "bus_writes": link.stats.bus_writes,
                "pending_at_end": pending,
                "error": link.error,
                "error_detail": link.error_detail,
            })

        # Link i is master i and posts only to its own segment, where each
        # read or write follows a grant.
        per_master: dict[str, dict] = {}
        for link, seg in self._link_segments:
            master = link.link_id
            if master in seg.grant_waits:
                per_master[str(master)] = {
                    "reads": seg.master_reads.get(master, 0),
                    "writes": seg.master_writes.get(master, 0),
                    "grant_waits": {str(wait): count for wait, count
                                    in seg.grant_waits[master].items()}}

        link_bus_txns = sum(l.stats.bus_reads + l.stats.bus_writes for l in self.links)
        baseline_block = None
        baseline_fetches = 0
        baseline_txns = 0
        if self.baseline:
            baseline_fetches = self.baseline.shared_memory_fetches
            baseline_txns = self.baseline.bus_transactions
            baseline_block = {
                "events": self.baseline.events,
                "latency": _latency_block(self.baseline.latency_samples),
                "shared_memory_fetches": baseline_fetches,
                "bus_transactions": baseline_txns,
                "pending_at_end": len(self.baseline.pending),
            }

        return SimReport(
            scenario_digest=sc.source_digest,
            stimulus_digest=stimulus_digest,
            cycles=cycles,
            end_reason=end_reason,
            per_link=per_link,
            bus={"per_master": per_master,
                 "grants": sum(seg.grants for seg in self.segments)},
            baseline=baseline_block,
            activity={
                "label": "power proxy: activity counts only, power is not simulated",
                "shared_memory_instruction_fetches": baseline_fetches,
                "scm_command_fetches": sum(
                    l.stats.commands_executed for l in self.links),
                "bus_transactions": link_bus_txns + baseline_txns,
            },
            errors=errors,
            trace=self.trace,
        )


def run(scenario: Union[Scenario, dict, str, Path],
        trace_level: str = "full") -> SimReport:
    """Load (if needed) and simulate a scenario to completion."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    return Simulation(scenario, trace_level).run()


def _pooled_latency(report: dict) -> Optional[float]:
    samples: list[int] = []
    for entry in report.get("per_link", []):
        samples.extend(entry["latency"]["samples"])
    if not samples and report.get("baseline"):
        samples = list(report["baseline"]["latency"]["samples"])
    if not samples:
        return None
    return sum(samples) / len(samples)


def _ratio(numer: float, denom: float) -> float:
    """Finite activity ratio; equal counts (including 0/0) compare as 1."""
    if numer == denom:
        return 1.0
    return numer / max(denom, 1)


def compare(pels_report: Union[SimReport, dict],
            baseline_report: Union[SimReport, dict],
            pels_mhz: Optional[float] = None,
            baseline_mhz: Optional[float] = None) -> dict:
    """Cycle and activity comparison of two runs of the same stimulus.

    The simulator is frequency-agnostic; pass per-side clock frequencies
    to annotate the cycle counts with wall-clock latencies (iso-latency
    style comparisons at different clocks). Give both or neither, each
    finite and > 0 (MHz); else ValueError, its message led by the name
    of the bad argument.
    """
    if (pels_mhz is None) != (baseline_mhz is None):
        missing = "pels_mhz" if pels_mhz is None else "baseline_mhz"
        raise ValueError(f"{missing}: missing; give both clock frequencies "
                         "or neither")
    for name, mhz in (("pels_mhz", pels_mhz), ("baseline_mhz", baseline_mhz)):
        if mhz is not None and not (mhz > 0 and math.isfinite(mhz)):
            raise ValueError(f"{name}: {mhz} is not a finite frequency > 0")
    a = pels_report.to_dict() if isinstance(pels_report, SimReport) else pels_report
    b = (baseline_report.to_dict() if isinstance(baseline_report, SimReport)
         else baseline_report)
    if a["stimulus_digest"] != b["stimulus_digest"]:
        raise MismatchedStimulus(
            f"stimulus digests differ: {a['stimulus_digest'][:12]} vs "
            f"{b['stimulus_digest'][:12]}"
        )
    pels_lat = _pooled_latency(a)
    base_lat = _pooled_latency(b)
    latency_ratio = None
    if pels_lat is not None and pels_lat > 0 and base_lat is not None:
        latency_ratio = base_lat / pels_lat
    pels_fetches = a["activity"]["shared_memory_instruction_fetches"]
    base_fetches = b["activity"]["shared_memory_instruction_fetches"]
    pels_txns = a["activity"]["bus_transactions"]
    base_txns = b["activity"]["bus_transactions"]
    result = {
        "power": "not simulated; activity counts are a power proxy only",
        "stimulus_digest": a["stimulus_digest"],
        "latency": {"pels_mean": pels_lat, "baseline_mean": base_lat,
                    "ratio": latency_ratio},
        "bus_transactions": {"pels": pels_txns, "baseline": base_txns,
                             "ratio": _ratio(base_txns, pels_txns)},
        "shared_memory_fetches": {"pels": pels_fetches, "baseline": base_fetches,
                                  "ratio": _ratio(base_fetches, pels_fetches)},
    }
    if pels_mhz is not None:
        result["wall_clock"] = {
            "pels_mhz": pels_mhz,
            "baseline_mhz": baseline_mhz,
            "pels_ns": None if pels_lat is None else pels_lat * 1e3 / pels_mhz,
            "baseline_ns": (None if base_lat is None
                            else base_lat * 1e3 / baseline_mhz),
        }
    return result


def sweep(base: Union[Scenario, dict, str, Path],
          link_counts: list[int],
          scm_line_counts: list[int],
          trace_level: str = "off") -> list[dict]:
    """Run the configuration grid of link count x SCM capacity."""
    base_sc = base if isinstance(base, Scenario) else load_scenario(base)
    if not base_sc.links:
        raise ConfigError("links", "sweep needs at least one template link")

    results = []
    for n_links in link_counts:
        for scm_lines in scm_line_counts:
            entry: dict = {"links": n_links, "scm_lines": scm_lines, "ok": False}
            try:
                derived = _derive(base_sc, n_links, scm_lines)
                report = Simulation(derived, trace_level).run()
                samples = [s for e in report.per_link
                           for s in e["latency"]["samples"]]
                entry.update(
                    ok=not report.errors,
                    cycles=report.cycles,
                    end_reason=report.end_reason,
                    accepted=sum(e["triggers"]["accepted"] for e in report.per_link),
                    dropped=sum(e["triggers"]["dropped"] for e in report.per_link),
                    latency_max=max(samples) if samples else None,
                    errors=report.errors,
                )
            except (ConfigError, AsmError) as e:
                entry["error"] = str(e)
            results.append(entry)
    return results


def _derive(base: Scenario, n_links: int, scm_lines: int) -> Scenario:
    _int(n_links, "links", 1, MAX_LINKS)
    _int(scm_lines, "scm_lines", 1, MAX_PROGRAM_LENGTH)
    links = [replace(base.links[i % len(base.links)], scm_lines=scm_lines)
             for i in range(n_links)]
    digest = f"{base.source_digest}:links={n_links}:scm={scm_lines}"
    return replace(base, links=links, source_digest=digest)
