"""Event fabric and per-link trigger/execute machinery.

Timing contract, counted from the cycle a triggering input is asserted
(cycle 0), with the default 2-cycle bus:

    cycle 1   trigger token accepted, SCM line fetched (1-cycle private
              memory; token pop and fetch share the cycle)
    cycle 2   command is in the execution unit. An action command drives
              its output lines now: instant latency = 2 cycles. Bus
              commands issue their first transfer request now.
    cycle 3-4 bus read transfer; data valid at the end of cycle 4
    cycle 5   modify, write-back request issued
    cycle 6-7 bus write transfer: sequenced latency = 7 cycles

Each command costs one fetch cycle plus its execute cycles (action,
jump-if and loop execute in one cycle; wait stalls for its operand).
The program ends when the fetch reaches a blank (sentinel) SCM line or
runs past the last line; the next FIFO token starts the following cycle.

Trigger tokens are enqueued once per rising edge of the masked trigger
predicate. Peripheral event pulses last one cycle and re-arm the edge
detector, so a pulse train yields one trigger event per pulsed cycle;
held stimulus levels and loopback lines trigger only on their 0-to-1
transition. Outputs driven in cycle t reach loopback inputs in t+1.

FSM states and trigger modes are int codes with tables of their names,
and no per-cycle or per-command path reads an Enum (see `_EXEC_STATE`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import eq, ge, lt, ne, or_, xor
from typing import Callable, Optional

from . import isa
from .asm import Program, validate_against_capacity
from .bus import BusSegment, BusTransaction, TxnKind
from .isa import ActionMode, Command, OpCode
from .trace import ACTION, ERROR, PROGRAM, PROGRAM_LATENCY, TRIGGER


class TriggerMode:
    """Trigger predicate modes: codes into TRIGGER_MODE_NAMES."""
    ALL_SELECTED_ACTIVE = 0  # every masked line high
    ANY_SELECTED_ACTIVE = 1  # at least one masked line high


TRIGGER_MODE_NAMES = ("all", "any")  # the scenario's `trigger_mode` spelling


class FsmState:
    """Execution-unit FSM states: codes into FSM_STATE_NAMES. A state is
    always one of these int objects, so states compare with `is`."""
    (IDLE, FETCH, EXEC_ACTION, BUS_READ_PEND, MODIFY, BUS_WRITE_PEND,
     WAIT_COUNT) = range(7)


FSM_STATE_NAMES = tuple(name for name in vars(FsmState) if name.isupper())
ACTION_MODE_NAMES = tuple(mode.name for mode in ActionMode)

# The state that executes each opcode; the operation of each RMW opcode.
_EXEC_STATE = {
    OpCode.WRITE: FsmState.BUS_WRITE_PEND, OpCode.CAPTURE: FsmState.BUS_READ_PEND,
    OpCode.SET: FsmState.BUS_READ_PEND, OpCode.CLEAR: FsmState.BUS_READ_PEND,
    OpCode.TOGGLE: FsmState.BUS_READ_PEND, OpCode.WAIT: FsmState.WAIT_COUNT,
    OpCode.ACTION: FsmState.EXEC_ACTION, OpCode.JUMP_IF: FsmState.EXEC_ACTION,
    OpCode.LOOP: FsmState.EXEC_ACTION}
_RMW = {OpCode.SET: or_, OpCode.CLEAR: lambda old, mask: old & ~mask,
        OpCode.TOGGLE: xor}
_JUMP_CONDITIONS = (eq, ne, lt, ge)  # by Condition code: EQ, NE, LTU, GEU
# The opcodes and the mode that the execute stage tells apart, read once.
_ACTION, _JUMP_IF, _CAPTURE = OpCode.ACTION, OpCode.JUMP_IF, OpCode.CAPTURE
_SET_LEVELS = ActionMode.SET_LEVELS


class GroupOutOfRange(ValueError):
    def __init__(self, group: int, n_groups: int):
        super().__init__(f"event group {group} outside the {n_groups} output groups")


class LinkBusy(RuntimeError):
    """Program load attempted while the execution unit is not idle."""


@dataclass
class LinkConfig:
    event_mask: int
    trigger_mode: int  # a TriggerMode code
    base_address: int
    enabled: bool


def evaluate_trigger(inputs: int, cfg: LinkConfig) -> bool:
    """Masked trigger condition; an empty mask never fires in either mode."""
    if cfg.event_mask == 0:
        return False
    selected = inputs & cfg.event_mask
    if cfg.trigger_mode == TriggerMode.ALL_SELECTED_ACTIVE:
        return selected == cfg.event_mask
    return selected != 0


def execute_rmw(old: int, opcode: int, mask: int) -> int:
    """Bitwise read-modify-write value for set/clear/toggle."""
    if opcode not in _RMW:
        raise ValueError(f"{opcode} is not a read-modify-write opcode")
    return _RMW[opcode](old, mask) & 0xFFFF_FFFF


def execute_capture(bus_value: int, mask: int) -> int:
    """Masked read result stored into the link's capture register."""
    return bus_value & mask & 0xFFFF_FFFF


def execute_jump_if(capture_reg: int, cond: int, operand: int) -> bool:
    """Unsigned comparison of the capture register against the operand;
    `cond` is a `Condition` code."""
    return _JUMP_CONDITIONS[cond](capture_reg, operand)


class EventFabric:
    """Single-wire event lines: broadcast inputs, grouped action outputs,
    and a registered output-to-input loopback."""

    def __init__(self, n_inputs: int, n_outputs: int, loopback: dict[int, int]):
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.loopback = loopback  # output line -> input line; never written
        self.inputs = 0        # settled input vector for the current cycle
        self.rose = 0          # input lines asserted now but not last cycle
        self.outputs = 0       # action-driven output levels
        self._level_inputs = 0
        self._prev_level_inputs = 0
        self._input_mask = (1 << n_inputs) - 1

    def settle(self, stim_levels: int, pulses: int) -> None:
        """Fix the input vector for the coming cycle.

        Loopback uses the output levels as driven in the previous cycle
        (one-cycle registration). Pulses are one-cycle events excluded
        from the edge detector's previous sample, so a new pulse always
        counts as a fresh assertion.

        `rose` holds the lines that are asserted now and were not in the
        edge detector's previous sample. A trigger predicate can newly
        hold only if a line of its mask rose: with `rose & mask == 0`
        every masked line asserted now was already asserted, so in
        either mode the predicate held before if it holds now.
        """
        loop_in = 0
        if self.outputs:  # with every output low nothing loops back
            for out_line, in_line in self.loopback.items():
                if self.outputs >> out_line & 1:
                    loop_in |= 1 << in_line
        prev = self._prev_level_inputs = self._level_inputs
        level = self._level_inputs = (stim_levels | loop_in) & self._input_mask
        inputs = self.inputs = level | (pulses & self._input_mask)
        self.rose = inputs & ~prev

    @property
    def n_groups(self) -> int:
        """Action output groups: the outputs in groups of ACTION_GROUP_WIDTH."""
        return (self.n_outputs + isa.ACTION_GROUP_WIDTH - 1) // isa.ACTION_GROUP_WIDTH

    @property
    def steady(self) -> bool:
        """True when no pulse is on the inputs and the edge detector has
        caught up with the levels: while the stimulus levels and the
        looped-back outputs hold and no pulse arrives, every later settle
        gives the same inputs and no trigger rises."""
        return self.inputs == self._level_inputs == self._prev_level_inputs

    def rising_trigger(self, cfg: LinkConfig) -> bool:
        """True when the trigger predicate newly holds this cycle.

        Callers skip the call when `rose & cfg.event_mask` is 0, since it
        is then False (see `settle`); `Link.step` and the harness's
        baseline check both do.
        """
        return evaluate_trigger(self.inputs, cfg) and not evaluate_trigger(
            self._prev_level_inputs, cfg
        )

    def drive_group(self, group: int, mode: int, bits: int) -> None:
        """Drive one output group; `mode` is an `ActionMode` code."""
        if not 0 <= group < self.n_groups:
            raise GroupOutOfRange(group, self.n_groups)
        shift = group * isa.ACTION_GROUP_WIDTH
        group_mask = ((1 << isa.ACTION_GROUP_WIDTH) - 1) << shift
        group_mask &= (1 << self.n_outputs) - 1
        if mode == _SET_LEVELS:
            self.outputs = (self.outputs & ~group_mask) | ((bits << shift) & group_mask)
        else:
            self.outputs ^= (bits << shift) & group_mask


@dataclass
class TriggerToken:
    seq: int
    cycle: int  # cycle the trigger predicate rose


@dataclass
class LinkStats:
    trigger_events: int = 0
    triggers_accepted: int = 0
    triggers_dropped: int = 0
    commands_executed: int = 0
    bus_reads: int = 0
    bus_writes: int = 0


class Link:
    """One linking unit: trigger FIFO, private SCM, execution-unit FSM.

    `step` runs once per simulated cycle and does only the work that can
    change state in it. An idle link with an empty FIFO, and a link
    parked on the bus (its transaction posted and not yet complete),
    return their state without entering the FSM, which would only find
    no token or the transfer unfinished. The trigger predicate is
    checked only when a line of `event_mask` rose (`EventFabric.rose`).
    A fetch takes its command from the loaded `Program`, whose encoding
    is the SCM word image, so nothing is encoded or decoded.
    """

    def __init__(
        self,
        link_id: int,
        config: LinkConfig,
        scm_lines: int,
        fifo_depth: int,
        trace: Optional[Callable],
    ):
        self.link_id = link_id
        self.config = config
        self.scm_lines = scm_lines  # SCM capacity in lines
        self._commands: tuple[Command, ...] = ()  # the loaded program
        self.fifo: deque[TriggerToken] = deque()
        self.fifo_depth = fifo_depth
        self.trace = trace

        self.state = FsmState.IDLE
        self.pc = 0
        self.cmd: Optional[Command] = None
        self.capture_reg = 0
        self.loop_counter = 0
        self.loop_active = False
        self.wait_counter = 0
        self.txn: Optional[BusTransaction] = None
        self.stats = LinkStats()
        self.error = False
        self.error_detail: Optional[str] = None

        self._running: Optional[TriggerToken] = None
        self._last_effect: Optional[int] = None
        self.latency_samples: list[int] = []

    # -- program load ----------------------------------------------------

    def load_program(self, prog: Program) -> None:
        if self.state is not FsmState.IDLE:
            raise LinkBusy(f"link {self.link_id} is {FSM_STATE_NAMES[self.state]}")
        validate_against_capacity(prog, self.scm_lines)
        self._commands = prog.commands
        self.pc = 0

    # -- one global clock cycle -------------------------------------------

    def step(self, t: int, fabric: EventFabric, segment: BusSegment) -> int:
        """Advance one cycle; returns the state whose work ran this cycle."""
        config = self.config
        if not config.enabled:
            return FsmState.IDLE
        state, txn = self.state, self.txn
        if ((state is FsmState.IDLE and not self.fifo)
                or (txn is not None and not txn.done)):
            performed = state  # nothing to start, or parked on the bus
        else:
            performed = self._fsm_advance(t, fabric, segment)
        if fabric.rose & config.event_mask:
            self._detect_trigger(t, fabric)
        return performed

    def _detect_trigger(self, t: int, fabric: EventFabric) -> None:
        if not fabric.rising_trigger(self.config):
            return
        token = TriggerToken(self.stats.trigger_events, t)  # seq: events before it
        self.stats.trigger_events += 1
        if len(self.fifo) < self.fifo_depth:
            self.fifo.append(token)
            self.stats.triggers_accepted += 1
            status = "accepted"
        else:
            self.stats.triggers_dropped += 1  # drop-newest keeps queued order
            status = "dropped"
        if self.trace:
            self.trace(TRIGGER, t, self.link_id, token.seq, status)

    def _fsm_advance(self, t: int, fabric: EventFabric, segment: BusSegment) -> int:
        st = self.state

        if st is FsmState.IDLE:
            if not self.fifo:
                return FsmState.IDLE
            token = self.fifo.popleft()
            self._running = token
            self._last_effect = None
            self.pc = 0
            self.loop_active = False
            if self.trace:
                self.trace(PROGRAM, t, self.link_id, token.seq, "start")
            return self._do_fetch(t)

        if st is FsmState.FETCH:
            return self._do_fetch(t)

        if st is FsmState.EXEC_ACTION:
            self._do_exec(t, fabric)
            return FsmState.EXEC_ACTION

        if st is FsmState.BUS_READ_PEND or st is FsmState.BUS_WRITE_PEND:
            txn = self.txn
            if txn is None:  # a plain write's value travels in its operand
                if st is FsmState.BUS_READ_PEND:
                    self._post(segment, t, TxnKind.READ)
                else:
                    self._post(segment, t, TxnKind.WRITE, self.cmd.operand)
                return st
            if not txn.done or txn.complete_cycle >= t:
                return st
            if txn.error:
                return self._abort(t, txn.error)
            if st is FsmState.BUS_READ_PEND:
                return self._do_modify(t, segment)
            self._last_effect = txn.complete_cycle
            self.stats.bus_writes += 1
            self.txn = None
            self.pc += 1
            return self._do_fetch(t)

        if st is FsmState.WAIT_COUNT:
            self.wait_counter -= 1
            if self.wait_counter <= 0:
                self.pc += 1
                self.state = FsmState.FETCH
            return FsmState.WAIT_COUNT

        raise AssertionError(f"unreachable state {st}")

    def _do_fetch(self, t: int) -> int:
        if self.pc >= len(self._commands):  # a blank SCM line, or past the end
            self._complete_program(t)
            return FsmState.FETCH
        return self._issue(self._commands[self.pc])

    def _issue(self, cmd: Command) -> int:
        """Latch the fetched command and enter the state that executes it;
        `txn` is None here, as every bus command and abort leaves it."""
        self.cmd = cmd
        self.stats.commands_executed += 1
        state = _EXEC_STATE[cmd.opcode]
        if state is FsmState.WAIT_COUNT:
            if cmd.operand > 0:
                self.wait_counter = cmd.operand
            else:
                self.pc += 1
                state = FsmState.FETCH
        self.state = state
        return FsmState.FETCH

    def _do_exec(self, t: int, fabric: EventFabric) -> None:
        cmd = self.cmd
        op = cmd.opcode
        if op == _ACTION:  # field[7:0]: the group; [11:8]: the ActionMode code
            group, mode = cmd.field & 0xFF, cmd.field >> 8
            try:
                fabric.drive_group(group, mode, cmd.operand)
            except GroupOutOfRange as e:
                self._abort(t, str(e))
                return
            self._last_effect = t
            if self.trace:
                self.trace(ACTION, t, self.link_id, group, ACTION_MODE_NAMES[mode],
                           fabric.outputs)
            self.pc += 1
        elif op == _JUMP_IF:  # field[11:8]: the Condition code; [7:0]: the target
            if execute_jump_if(self.capture_reg, cmd.field >> 8, cmd.operand):
                self.pc = cmd.field & 0xFF
            else:
                self.pc += 1
        else:  # loop
            if not self.loop_active:
                self.loop_counter = cmd.operand  # number of additional passes
                self.loop_active = True
            if self.loop_counter != 0:
                self.loop_counter -= 1
                self.pc = cmd.field & 0xFF
            else:
                self.loop_active = False
                self.pc += 1
        self.state = FsmState.FETCH

    def _do_modify(self, t: int, segment: BusSegment) -> int:
        cmd = self.cmd
        old = self.txn.result
        self.stats.bus_reads += 1
        self.txn = None
        if cmd.opcode == _CAPTURE:
            self.capture_reg = execute_capture(old, cmd.operand)
            self._last_effect = t
            self.pc += 1
            self.state = FsmState.FETCH
        else:
            value = execute_rmw(old, cmd.opcode, cmd.operand)
            self._post(segment, t, TxnKind.WRITE, value)
            self.state = FsmState.BUS_WRITE_PEND
        return FsmState.MODIFY

    def _post(self, segment: BusSegment, t: int, kind: int, data: int = 0) -> None:
        address = self.config.base_address + 4 * self.cmd.field
        self.txn = BusTransaction(self.link_id, kind, address, data)
        segment.post(self.txn, t)

    def _complete_program(self, t: int) -> None:
        token = self._running
        self.state = FsmState.IDLE
        self.cmd = None
        self.pc = 0
        self.loop_active = False
        if token is not None:
            completion = self._last_effect if self._last_effect is not None else t
            self.latency_samples.append(completion - token.cycle)
            if self.trace:
                self.trace(PROGRAM_LATENCY, t, self.link_id, token.seq,
                           "complete", completion - token.cycle)
        self._running = None

    def _abort(self, t: int, detail: str) -> int:
        """Bus or decode failure: flag the link, drop the program, go idle."""
        self.error = True
        self.error_detail = self.error_detail or detail
        if self.trace:
            self.trace(ERROR, t, self.link_id, detail)
            if self._running is not None:
                self.trace(PROGRAM, t, self.link_id, self._running.seq, "aborted")
        self.txn = None
        self.cmd = None
        self.loop_active = False
        self._running = None  # aborted tokens yield no latency sample
        self.state = FsmState.IDLE
        return FsmState.IDLE
