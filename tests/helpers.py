"""Shared generators and scenario builders for the test suite.

Test modules import these with `from helpers import ...`; pytest puts the
test file's directory on sys.path.
"""

import random
from pathlib import Path

from pels import isa
from pels.asm import Program, validate_program
from pels.core import EventFabric, FsmState, Link, LinkConfig, TriggerMode
from pels.harness import Simulation
from pels.periph import Gpio, Regs, Sensor, Timer
from pels.isa import ActionMode, Command, Condition, OpCode

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

def evaluate_trigger(inputs: int, cfg: LinkConfig) -> bool:
    """The masked trigger predicate, stated plainly: every masked line
    high (`all`) or at least one (`any`); an empty mask never fires in
    either mode. `EventFabric.rising_trigger` is checked against it."""
    if cfg.event_mask == 0:
        return False
    selected = inputs & cfg.event_mask
    if cfg.trigger_mode == TriggerMode.ALL_SELECTED_ACTIVE:
        return selected == cfg.event_mask
    return selected != 0


def baseline_idle(cpu) -> bool:
    """No baseline handler is in progress."""
    return not cpu.pending


_REGISTER_OPS = [OpCode.WRITE, OpCode.SET, OpCode.CLEAR, OpCode.TOGGLE, OpCode.CAPTURE]


def random_command(rng: random.Random) -> Command:
    """A well-formed command without any program-structure constraints."""
    op = rng.choice(list(OpCode))
    if op in _REGISTER_OPS:
        return Command(op, rng.randint(0, 0xFFF), rng.getrandbits(32))
    if op is OpCode.JUMP_IF:
        return Command.jump_if(Condition(rng.randint(0, 3)), rng.getrandbits(32),
                               rng.randint(0, 0xFF))
    if op is OpCode.LOOP:
        return Command.loop(rng.getrandbits(32), rng.randint(0, 0xFF))
    if op is OpCode.WAIT:
        return Command.wait(rng.getrandbits(32))
    return Command.action(ActionMode(rng.randint(0, 1)), rng.randint(0, 0xFF),
                          rng.getrandbits(32))


def random_program(rng: random.Random, max_len: int = 8) -> Program:
    """A structurally valid program: targets in range, loops backward
    and non-nested."""
    n = rng.randint(0, max_len)
    cmds = []
    loop_floor = 0  # earliest line a new loop may target without nesting
    for i in range(n):
        pick = rng.random()
        if pick < 0.40:
            op = rng.choice(_REGISTER_OPS)
            cmds.append(Command(op, rng.randint(0, 0xFFF), rng.getrandbits(32)))
        elif pick < 0.55:
            cmds.append(Command.jump_if(Condition(rng.randint(0, 3)),
                                        rng.getrandbits(32), rng.randint(0, n - 1)))
        elif pick < 0.65:
            target = rng.randint(loop_floor, i)
            cmds.append(Command.loop(rng.randint(0, 1000), target))
            loop_floor = i + 1
        elif pick < 0.80:
            cmds.append(Command.wait(rng.randint(0, 100_000)))
        else:
            cmds.append(Command.action(ActionMode(rng.randint(0, 1)),
                                       rng.randint(0, 0xFF), rng.getrandbits(32)))
    prog = Program(tuple(cmds))
    validate_program(prog)
    return prog


def instant_scenario(**overrides) -> dict:
    sc = {
        "clock_limit": 50,
        "links": [{"scm_lines": 4, "event_mask": "0x1",
                   "program": {"source": "action grp0.set, 0x1"}}],
        "stimuli": [[0, 0, 1]],
    }
    sc.update(overrides)
    return sc


def sequenced_scenario(source: str = "set 0x0, 0x1", **overrides) -> dict:
    sc = {
        "clock_limit": 80,
        "links": [{"scm_lines": 4, "event_mask": "0x1",
                   "base_address": "0x40000000", "program": {"source": source}}],
        "peripherals": [{"type": "regs", "name": "r0",
                         "base_address": "0x40000000", "size_words": 16}],
        "stimuli": [[0, 0, 1]],
    }
    sc.update(overrides)
    return sc


def _active(block) -> bool:
    """The original test of whether a block can still produce events on
    its own; kept apart from `due` so the reference shares no code with
    the kernel under test."""
    if isinstance(block, Timer):
        return block.enabled and block.period > 0 and block.event_line is not None
    if isinstance(block, Sensor):
        return bool(block._done_pulse) or (
            not block.triggered and block._next < len(block.schedule))
    return False


class _EveryCycle:
    """A block that is due again in the cycle after each tick, write and
    latch, so the harness ticks it on every cycle and no due rule of its
    own class decides when."""

    def tick(self, t):
        pulses = super().tick(t)
        self.due = t + 1
        return pulses

    def write(self, offset, value, t):
        super().write(offset, value, t)
        self.due = t + 1

    def latch(self, t):
        super().latch(t)
        self.due = t + 1


_EVERY_CYCLE = {cls: type(cls.__name__, (_EveryCycle, cls), {})
                for cls in (Regs, Gpio, Timer, Sensor)}


class _ReferenceLink(Link):
    """A link without the kernel's shortcuts: every step enters the FSM
    and evaluates the trigger predicate, and every fetch decodes its SCM
    word, so the reference also runs the image through the codec."""

    @property
    def idle(self):
        return self.state is FsmState.IDLE and not self.fifo

    def load_image(self):
        """Encode the loaded program into `scm`, the SCM word image that
        each fetch decodes: one word per command, then blank lines."""
        self.scm = [isa.encode(cmd) for cmd in self._commands]
        self.scm += [isa.NOP_SENTINEL] * (self.scm_lines - len(self.scm))

    def step(self, t, fabric, segment):
        if not self.config.enabled:
            return FsmState.IDLE
        performed = self._fsm_advance(t, fabric, segment)
        self._detect_trigger(t, fabric)
        return performed

    def _do_fetch(self, t):
        word = self.scm[self.pc] if self.pc < self.scm_lines else isa.NOP_SENTINEL
        if isa.is_sentinel(word):
            self._complete_program(t)
            return FsmState.FETCH
        try:
            cmd = isa.decode(word)
        except isa.UndefinedOpcode as e:
            return self._abort(t, str(e))
        return self._issue(cmd)


class _UnfilteredFabric(EventFabric):
    """Scans the loopback on every settle, and reports every line as risen,
    so the harness passes each baseline trigger check on to
    `rising_trigger`."""

    def settle(self, stim_levels, pulses):
        mask = (1 << self.n_inputs) - 1
        loop_in = 0
        for out_line, in_line in self.loopback.items():
            if self.outputs >> out_line & 1:
                loop_in |= 1 << in_line
        self._prev_level_inputs = self._level_inputs
        self._level_inputs = (stim_levels | loop_in) & mask
        self.inputs = self._level_inputs | (pulses & mask)
        self.rose = -1


class PerCycleSimulation(Simulation):
    """Reference kernel: simulates every cycle, ticks every block on every
    cycle, steps `_ReferenceLink`s on an `_UnfilteredFabric`, and ends the
    run on the original quiescence test (no stimulus left to apply;
    links, bus and baseline idle; no block that can still produce
    events)."""

    def __init__(self, scenario, trace_level="full"):
        super().__init__(scenario, trace_level)
        # Same state, reference behaviour: swap the classes in place.
        self.fabric.__class__ = _UnfilteredFabric
        for link in self.links:
            link.__class__ = _ReferenceLink
            link.load_image()
        for block in self.blocks:
            block.__class__ = _EVERY_CYCLE[type(block)]
            block.due = 0
        self._ticking = list(self.blocks)  # Regs and Gpio tick as no-ops

    def _next_cycle(self, t, quiet):
        if ((not self._stimulus_cycles or self._stimulus_cycles[-1] <= t)
                and all(link.idle for link in self.links)
                and all(segment.in_flight is None and not segment.pending
                        for segment in self.segments)
                and (self.baseline is None or baseline_idle(self.baseline))
                and not any(_active(b) for b in self.blocks)):
            return None
        return t + 1
