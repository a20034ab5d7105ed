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
- Addresses are word aligned.
- A program must assemble and fit its link's `scm_lines`.

Overlapping register blocks are reported by the Simulation constructor,
also as ConfigError; every other error is reported at load.

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
until the next stimulus, the next peripheral event (`next_event`) or the
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
  are ticked; `RegisterBlock.tick` does nothing.
- Fabric: `settle` scans the loopback only while an output is high. A
  trigger predicate (a link's or the baseline's) is evaluated only when
  a line of its mask rose (`EventFabric.rose`); else it cannot newly hold.
- Links: an idle link with an empty FIFO, and one parked on the bus (its
  transaction posted, not yet done: `done` is set by the bus stage after
  the links), return their state without entering the FSM. A fetch takes
  the loaded `Command`, whose encoding is the SCM word, so nothing is
  decoded.
- Bus: only segments with a transfer in flight or pending are stepped.

Within a run, master ids 0..n_links-1 are the links and the baseline
model (when present) takes the next id. The baseline is an accounting
model: it does not contend on the simulated bus; its transaction counts
are reported separately.

The trace schema, `Trace` and `emit_trace` live in `trace.py` and are
re-exported here. A run's trace is held as one (shape, values...) tuple
per record; `SimReport.trace` is a read-only sequence that shows each
record as the dict its JSON line encodes.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from .asm import (
    MAX_PROGRAM_LENGTH,
    AsmError,
    Program,
    assemble_text,
    validate_against_capacity,
)
from .bus import BusModel
from .core import (IDLE, MAX_FIFO_DEPTH, EventFabric, FsmState, Link,
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
from .trace import (BASELINE_HANDLED, BASELINE_IRQ, END, FABRIC, HEADER, LINK,
                    STIMULUS, TRACE_FORMAT_VERSION, TRACE_LEVELS, Records, Trace,
                    emit_trace)

MAX_LINKS = 8
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
# Absent keys take the block constructor's default; the constructors own
# the word-alignment and non-empty size_words rules.
_PARAMS = {
    "pins": lambda v, loc, n: _int(v, loc, 0, 32),
    "size_words": lambda v, loc, n: _int(v, loc, hi=_MAX_REGS_WORDS),
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
    scm_lines: int = 8
    config: LinkConfig = field(default_factory=LinkConfig)
    fifo_depth: int = 4
    segment: int = 0
    program: Program = field(default_factory=lambda: Program(()))


@dataclass
class PeripheralSpec:
    """Declarative peripheral; a fresh block is built for every run."""

    kind: str
    name: str
    base_address: int
    segment: int = 0
    params: dict = field(default_factory=dict)

    def build(self) -> RegisterBlock:
        block_class, _ = _PERIPHERALS[self.kind]
        return block_class(self.name, self.base_address, **self.params)


@dataclass
class Scenario:
    clock_limit: int = 10_000
    fabric_inputs: int = 32
    fabric_outputs: int = 32
    loopback: dict[int, int] = field(default_factory=dict)
    bus_segments: int = 1
    transfer_cycles: int = 2
    links: list[LinkSpec] = field(default_factory=list)
    peripherals: list[PeripheralSpec] = field(default_factory=list)
    baseline: Optional[BaselineCpuModel] = None
    stimuli: list[tuple[int, int, int]] = field(default_factory=list)
    source_digest: str = ""

    def stimulus_digest(self) -> str:
        """Digest of everything that generates events: the stimuli plus
        the event-producing peripheral configuration."""
        gens = []
        for p in self.peripherals:
            if p.kind == "timer":
                gens.append(["timer", p.params.get("period", 0),
                             p.params.get("enabled", False),
                             p.params.get("event_line")])
            elif p.kind == "sensor":
                gens.append(["sensor",
                             [list(e) for e in p.params.get("schedule", [])],
                             p.params.get("event_line"),
                             p.params.get("triggered", False)])
        payload = json.dumps(
            {"stimuli": sorted(self.stimuli), "generators": sorted(gens, key=str)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()



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
        source_digest=_source_digest(raw),
    )

    for i, lr in enumerate(_list(raw.get("links", []), "links", MAX_LINKS)):
        loc = f"links[{i}]"
        lr = _obj(lr, loc)
        scm_lines = _int(lr.get("scm_lines", 8), f"{loc}.scm_lines", 1,
                         MAX_PROGRAM_LENGTH)
        mode = lr.get("trigger_mode", "any")
        try:
            mode = TriggerMode(mode)
        except ValueError:
            raise ConfigError(f"{loc}.trigger_mode", f"unknown mode {mode!r}") from None
        try:
            config = LinkConfig(
                event_mask=_int(lr.get("event_mask", 0), f"{loc}.event_mask",
                                0, mask_max),
                trigger_mode=mode,
                base_address=_int(lr.get("base_address", 0), f"{loc}.base_address"),
                enabled=_flag(lr.get("enabled", True), f"{loc}.enabled"),
            )
        except ValueError as e:  # LinkConfig owns the alignment rule
            raise ConfigError(f"{loc}.base_address", str(e)) from None
        sc.links.append(LinkSpec(
            scm_lines,
            config,
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
        spec = PeripheralSpec(
            kind,
            _str(pr.get("name", f"{kind}{i}"), f"{loc}.name"),
            _int(pr.get("base_address", 0), f"{loc}.base_address"),
            _int(pr.get("segment", 0), f"{loc}.segment", 0, n_seg - 1),
            {key: _PARAMS[key](pr[key], f"{loc}.{key}", n_in)
             for key in _PERIPHERALS[kind][1] if key in pr},
        )
        try:
            spec.build()  # the block constructors own alignment and size rules
        except ValueError as e:
            raise ConfigError(loc, str(e)) from None
        sc.peripherals.append(spec)

    br = raw.get("baseline")
    if br is not None:
        br = _obj(br, "baseline")
        sc.baseline = BaselineCpuModel(
            master_id=len(sc.links),
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
    trace: Records

    def to_dict(self) -> dict:
        return {
            "scenario_digest": self.scenario_digest,
            "stimulus_digest": self.stimulus_digest,
            "cycles": self.cycles,
            "end_reason": self.end_reason,
            "per_link": self.per_link,
            "bus": self.bus,
            "baseline": self.baseline,
            "activity": self.activity,
            "errors": self.errors,
        }

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


class Simulation:
    """One scenario bound to fresh fabric/link/bus/peripheral state.
    `run()` may be called once; build a new Simulation to run again."""

    def __init__(self, scenario: Scenario, trace_level: Optional[str] = None):
        level = trace_level or os.environ.get("PELS_TRACE_LEVEL", "full")
        self.scenario = scenario
        try:
            self.trace = Trace(level)
        except ValueError as e:
            raise ConfigError("trace_level", str(e)) from None
        # Links and segments write only kinds that "off" drops; the
        # harness's own kinds (stimulus, link, baseline, fabric) are "full" only.
        record = None if level == "off" else self.trace.emit
        self._full = level == "full"
        self.fabric = EventFabric(scenario.fabric_inputs, scenario.fabric_outputs,
                                  scenario.loopback)
        n_masters = len(scenario.links) + (1 if scenario.baseline else 0)
        self.bus = BusModel(max(n_masters, 1), scenario.bus_segments,
                            scenario.transfer_cycles, trace=record)
        self.blocks: list[RegisterBlock] = []
        for spec in scenario.peripherals:
            block = spec.build()
            self.blocks.append(block)
            try:
                self.bus.segment(spec.segment).attach(block)
            except ValueError as e:
                raise ConfigError(f"peripherals ({spec.name})", str(e))

        self.links: list[Link] = []
        self._link_segments = []
        for i, spec in enumerate(scenario.links):
            link = Link(i, spec.config, spec.scm_lines, spec.fifo_depth,
                        master_id=i, trace=record)
            link.load_program(spec.program)
            self.links.append(link)
            self._link_segments.append((link, self.bus.segment(spec.segment)))

        self.baseline = BaselineCpu(scenario.baseline) if scenario.baseline else None
        self._baseline_cfg = (
            LinkConfig(event_mask=scenario.baseline.event_mask) if scenario.baseline
            else None
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

    def block(self, name: str) -> RegisterBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

    def _next_cycle(self, t: int, quiet: bool) -> Optional[int]:
        """The cycle to simulate after cycle t, or None when the run is
        quiescent. `quiet` is True when no link did any work in cycle t;
        then no output changed either, so loopback holds."""
        # `BusSegment.idle` and `Link.idle`, inlined: this runs every cycle.
        for segment in self.bus.segments:
            if segment.in_flight is not None or segment.pending:
                return t + 1
        for link in self.links:
            if link.state is not IDLE or link.fifo:
                return t + 1
        stimulus_cycles = self._stimulus_cycles
        pending = self.baseline.pending if self.baseline else ()
        # A link that did work may still write its idle `link` record, and
        # an unsteady fabric may still raise a trigger, in cycle t + 1.
        if not (quiet and self.fabric.steady):  # no jump: is anything due?
            due = (pending or (stimulus_cycles and stimulus_cycles[-1] > t)
                   or any(b.next_event(t) is not None for b in self._ticking))
            return t + 1 if due else None
        due = [c for c in (b.next_event(t) for b in self._ticking) if c is not None]
        i = bisect_right(stimulus_cycles, t)
        due += stimulus_cycles[i:i + 1]
        if pending:
            due.append(min(c for _, c in pending))
        return min(due) if due else None

    def run(self) -> SimReport:
        if self.trace.records:  # the header of an earlier run
            raise RuntimeError("Simulation.run() is single-use; build a new Simulation")
        sc = self.scenario
        emit = self.trace.emit
        full = self._full
        fabric, baseline = self.fabric, self.baseline
        # Entry points are bound once per run, not looked up every cycle.
        settle, next_cycle = fabric.settle, self._next_cycle
        stimuli_at = self._stimuli_by_cycle.get
        ticks = [block.tick for block in self._ticking]
        steps = [(link, link.step, segment) for link, segment in self._link_segments]
        segments = self.bus.segments
        stimulus_digest = sc.stimulus_digest()
        emit(HEADER, TRACE_FORMAT_VERSION, sc.source_digest, stimulus_digest,
             self.trace.level)
        shown = [None] * len(steps)  # (fsm, pc) of each link's last record
        stim_levels = 0
        end_reason = "clock_limit"
        cycles = sc.clock_limit
        last_fabric = (0, 0)
        t = 0
        while t < sc.clock_limit:
            for line, level in stimuli_at(t, ()):
                if level:
                    stim_levels |= 1 << line
                else:
                    stim_levels &= ~(1 << line)
                if full:
                    emit(STIMULUS, t, line, level)

            pulses = 0
            for tick in ticks:
                pulses |= tick(t)
            settle(stim_levels, pulses)

            for entry in self._triggered_sensors:
                sensor, line, last = entry
                level = (fabric.inputs >> line) & 1
                if level and not last:
                    sensor.latch(t)  # done pulse arrives with the next tick
                entry[2] = level

            quiet = True
            for i, (link, step, segment) in enumerate(steps):
                performed = step(t, fabric, segment)
                if performed is not IDLE:
                    quiet = False
                if full and shown[i] != (performed, link.pc):
                    shown[i] = (performed, link.pc)
                    emit(LINK, t, link.link_id, performed.value, link.pc)

            if baseline:
                if (fabric.rose & self._baseline_cfg.event_mask
                        and fabric.rising_trigger(self._baseline_cfg)):
                    completion = baseline.handle_event(t)
                    if full:
                        emit(BASELINE_IRQ, t, "irq", completion)
                if baseline.pending:
                    for event_cycle, completion in baseline.step(t):
                        if full:
                            emit(BASELINE_HANDLED, t, "handled",
                                 completion - event_cycle)

            if full and (fabric.inputs, fabric.outputs) != last_fabric:
                last_fabric = (fabric.inputs, fabric.outputs)
                emit(FABRIC, t, fabric.inputs, fabric.outputs)
            for segment in segments:
                if segment.in_flight is not None or segment.pending:  # not idle
                    segment.step(t)

            next_t = next_cycle(t, quiet)
            if next_t is None:
                end_reason = "quiescent"
                cycles = t + 1
                break
            t = next_t

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

        per_master: dict[str, dict] = {}
        grants = 0
        for seg in self.bus.segments:
            grants += seg.grants
            for master in sorted(set(seg.master_reads) | set(seg.master_writes)
                                 | set(seg.grant_waits)):
                entry = per_master.setdefault(
                    str(master), {"reads": 0, "writes": 0, "grant_waits": {}})
                entry["reads"] += seg.master_reads.get(master, 0)
                entry["writes"] += seg.master_writes.get(master, 0)
                for wait, count in sorted(seg.grant_waits.get(master, {}).items()):
                    key = str(wait)
                    entry["grant_waits"][key] = entry["grant_waits"].get(key, 0) + count

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
            bus={"per_master": per_master, "grants": grants},
            baseline=baseline_block,
            activity={
                "label": "power proxy: activity counts only, power is not simulated",
                "shared_memory_instruction_fetches": baseline_fetches,
                "scm_command_fetches": sum(
                    l.stats.commands_executed for l in self.links),
                "bus_transactions": link_bus_txns + baseline_txns,
            },
            errors=errors,
            trace=self.trace.records,
        )


def run(scenario: Union[Scenario, dict, str, Path],
        trace_level: Optional[str] = None) -> SimReport:
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
    style comparisons at different clocks).
    """
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
    if pels_mhz and baseline_mhz:
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
