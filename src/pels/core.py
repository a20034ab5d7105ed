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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import isa
from .asm import Program, validate_against_capacity
from .bus import BusSegment, BusTransaction, TxnKind
from .isa import ActionMode, Command, Condition, OpCode

# Trigger FIFO depths a link may be configured with: 1..MAX_FIFO_DEPTH.
MAX_FIFO_DEPTH = 16


class TriggerMode(Enum):
    ALL_SELECTED_ACTIVE = "all"  # every masked line high
    ANY_SELECTED_ACTIVE = "any"  # at least one masked line high


class FsmState(Enum):
    IDLE = "IDLE"
    FETCH = "FETCH"
    EXEC_ACTION = "EXEC_ACTION"
    BUS_READ_PEND = "BUS_READ_PEND"
    MODIFY = "MODIFY"
    BUS_WRITE_PEND = "BUS_WRITE_PEND"
    WAIT_COUNT = "WAIT_COUNT"


class GroupOutOfRange(ValueError):
    def __init__(self, group: int, n_groups: int):
        super().__init__(f"event group {group} outside the {n_groups} output groups")


class LinkBusy(RuntimeError):
    """Program load attempted while the execution unit is not idle."""


@dataclass
class LinkConfig:
    event_mask: int = 0
    trigger_mode: TriggerMode = TriggerMode.ANY_SELECTED_ACTIVE
    base_address: int = 0
    enabled: bool = True

    def __post_init__(self):
        if self.base_address % 4:
            raise ValueError(
                f"base address 0x{self.base_address:08x} not word aligned"
            )


def evaluate_trigger(inputs: int, cfg: LinkConfig) -> bool:
    """Masked trigger condition; an empty mask never fires in either mode."""
    if cfg.event_mask == 0:
        return False
    selected = inputs & cfg.event_mask
    if cfg.trigger_mode is TriggerMode.ALL_SELECTED_ACTIVE:
        return selected == cfg.event_mask
    return selected != 0


def execute_rmw(old: int, opcode: OpCode, mask: int) -> int:
    """Bitwise read-modify-write value for set/clear/toggle."""
    if opcode is OpCode.SET:
        return (old | mask) & 0xFFFF_FFFF
    if opcode is OpCode.CLEAR:
        return old & ~mask & 0xFFFF_FFFF
    if opcode is OpCode.TOGGLE:
        return (old ^ mask) & 0xFFFF_FFFF
    raise ValueError(f"{opcode} is not a read-modify-write opcode")


def execute_capture(bus_value: int, mask: int) -> int:
    """Masked read result stored into the link's capture register."""
    return bus_value & mask & 0xFFFF_FFFF


def execute_jump_if(capture_reg: int, cond: Condition, operand: int) -> bool:
    """Unsigned comparison of the capture register against the operand."""
    if cond is Condition.EQ:
        return capture_reg == operand
    if cond is Condition.NE:
        return capture_reg != operand
    if cond is Condition.LTU:
        return capture_reg < operand
    return capture_reg >= operand  # GEU


class EventFabric:
    """Single-wire event lines: broadcast inputs, grouped action outputs,
    and a registered output-to-input loopback."""

    def __init__(self, n_inputs: int = 32, n_outputs: int = 32,
                 loopback: Optional[dict[int, int]] = None):
        if n_inputs < 1 or n_outputs < 1:
            raise ValueError("fabric needs at least one input and output line")
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.loopback = dict(loopback or {})
        for out_line, in_line in self.loopback.items():
            if not 0 <= out_line < n_outputs:
                raise ValueError(f"loopback source line {out_line} out of range")
            if not 0 <= in_line < n_inputs:
                raise ValueError(f"loopback destination line {in_line} out of range")
        self.inputs = 0        # settled input vector for the current cycle
        self.rose = 0          # input lines asserted now but not last cycle
        self.outputs = 0       # action-driven output levels
        self._level_inputs = 0
        self._prev_level_inputs = 0

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
        for out_line, in_line in self.loopback.items():
            if self.outputs >> out_line & 1:
                loop_in |= 1 << in_line
        self._prev_level_inputs = self._level_inputs
        self._level_inputs = (stim_levels | loop_in) & ((1 << self.n_inputs) - 1)
        self.inputs = self._level_inputs | (pulses & ((1 << self.n_inputs) - 1))
        self.rose = self.inputs & ~self._prev_level_inputs

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

    def drive_group(self, group: int, mode: ActionMode, bits: int) -> None:
        if not 0 <= group < self.n_groups:
            raise GroupOutOfRange(group, self.n_groups)
        shift = group * isa.ACTION_GROUP_WIDTH
        group_mask = ((1 << isa.ACTION_GROUP_WIDTH) - 1) << shift
        group_mask &= (1 << self.n_outputs) - 1
        if mode is ActionMode.SET_LEVELS:
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
    change state in it. A link parked on the bus (its transaction posted
    and not yet complete) returns its state without entering the FSM;
    the FSM would only find the transfer unfinished. The trigger
    predicate is checked only when a line of `event_mask` rose
    (`EventFabric.rose`). A fetch takes its command from the loaded
    `Program`, which is never decoded: `scm` is the program's encoded
    word image, kept for inspection, and writing it does not change what
    the link runs.
    """

    def __init__(
        self,
        link_id: int,
        config: LinkConfig,
        scm_lines: int = 8,
        fifo_depth: int = 4,
        master_id: Optional[int] = None,
        trace: Optional[Callable] = None,
    ):
        if scm_lines < 1:
            raise ValueError("scm_lines must be positive")
        if not 1 <= fifo_depth <= MAX_FIFO_DEPTH:
            raise ValueError(f"fifo_depth must be within 1..{MAX_FIFO_DEPTH}")
        self.link_id = link_id
        self.config = config
        self.scm = [isa.NOP_SENTINEL] * scm_lines
        self._commands: tuple[Command, ...] = ()  # the loaded program
        self.fifo: deque[TriggerToken] = deque()
        self.fifo_depth = fifo_depth
        self.master_id = link_id if master_id is None else master_id
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

        self._token_seq = 0
        self._running: Optional[TriggerToken] = None
        self._last_effect: Optional[int] = None
        self.latency_samples: list[int] = []

    @property
    def scm_lines(self) -> int:
        """SCM capacity in lines."""
        return len(self.scm)

    # -- program load ----------------------------------------------------

    def load_program(self, prog: Program) -> None:
        if self.state is not FsmState.IDLE:
            raise LinkBusy(f"link {self.link_id} is {self.state.value}")
        validate_against_capacity(prog, self.scm_lines)
        for i in range(self.scm_lines):
            self.scm[i] = isa.encode(prog[i]) if i < len(prog) else isa.NOP_SENTINEL
        self._commands = prog.commands
        self.pc = 0

    # -- one global clock cycle -------------------------------------------

    def step(self, t: int, fabric: EventFabric, segment: BusSegment) -> FsmState:
        """Advance one cycle; returns the state whose work ran this cycle."""
        config = self.config
        if not config.enabled:
            return FsmState.IDLE
        txn = self.txn
        if txn is not None and not txn.done:
            performed = self.state  # parked: the transfer is still on the bus
        else:
            performed = self._fsm_advance(t, fabric, segment)
        if fabric.rose & config.event_mask:
            self._detect_trigger(t, fabric)
        return performed

    def _detect_trigger(self, t: int, fabric: EventFabric) -> None:
        if not fabric.rising_trigger(self.config):
            return
        self.stats.trigger_events += 1
        token = TriggerToken(self._token_seq, t)
        self._token_seq += 1
        if len(self.fifo) < self.fifo_depth:
            self.fifo.append(token)
            self.stats.triggers_accepted += 1
            status = "accepted"
        else:
            self.stats.triggers_dropped += 1  # drop-newest keeps queued order
            status = "dropped"
        if self.trace:
            self.trace(kind="trigger", t=t, link=self.link_id, token=token.seq,
                       status=status)

    def _fsm_advance(self, t: int, fabric: EventFabric, segment: BusSegment) -> FsmState:
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
                self.trace(kind="program", t=t, link=self.link_id,
                           token=token.seq, event="start")
            return self._do_fetch(t)

        if st is FsmState.FETCH:
            return self._do_fetch(t)

        if st is FsmState.EXEC_ACTION:
            self._do_exec(t, fabric)
            return FsmState.EXEC_ACTION

        if st is FsmState.BUS_READ_PEND:
            if self.txn is None:
                self._post(segment, t, TxnKind.READ)
                return FsmState.BUS_READ_PEND
            if self.txn.done and self.txn.complete_cycle < t:
                if self.txn.error:
                    return self._abort(t, self.txn.error)
                return self._do_modify(t, segment)
            return FsmState.BUS_READ_PEND

        if st is FsmState.BUS_WRITE_PEND:
            if self.txn is None:
                # plain write command: value travels in the operand
                self._post(segment, t, TxnKind.WRITE, self.cmd.operand)
                return FsmState.BUS_WRITE_PEND
            if self.txn.done and self.txn.complete_cycle < t:
                if self.txn.error:
                    return self._abort(t, self.txn.error)
                self._last_effect = self.txn.complete_cycle
                self.stats.bus_writes += 1
                self.txn = None
                self.pc += 1
                return self._do_fetch(t)
            return FsmState.BUS_WRITE_PEND

        if st is FsmState.WAIT_COUNT:
            self.wait_counter -= 1
            if self.wait_counter <= 0:
                self.pc += 1
                self.state = FsmState.FETCH
            return FsmState.WAIT_COUNT

        raise AssertionError(f"unreachable state {st}")

    def _do_fetch(self, t: int) -> FsmState:
        if self.pc >= len(self._commands):  # a blank SCM line, or past the end
            self._complete_program(t)
            return FsmState.FETCH
        return self._issue(self._commands[self.pc])

    def _issue(self, cmd: Command) -> FsmState:
        """Latch the fetched command and pick the state that executes it."""
        self.cmd = cmd
        self.stats.commands_executed += 1
        op = cmd.opcode
        if op in (OpCode.ACTION, OpCode.JUMP_IF, OpCode.LOOP):
            self.state = FsmState.EXEC_ACTION
        elif op in isa.RMW_OPCODES or op is OpCode.CAPTURE:
            self.state = FsmState.BUS_READ_PEND
            self.txn = None
        elif op is OpCode.WRITE:
            self.state = FsmState.BUS_WRITE_PEND
            self.txn = None
        elif op is OpCode.WAIT:
            if self.cmd.operand > 0:
                self.wait_counter = self.cmd.operand
                self.state = FsmState.WAIT_COUNT
            else:
                self.pc += 1
                self.state = FsmState.FETCH
        return FsmState.FETCH

    def _do_exec(self, t: int, fabric: EventFabric) -> None:
        cmd = self.cmd
        op = cmd.opcode
        if op is OpCode.ACTION:
            try:
                fabric.drive_group(cmd.action_group, cmd.action_mode, cmd.operand)
            except GroupOutOfRange as e:
                self._abort(t, str(e))
                return
            self._last_effect = t
            if self.trace:
                self.trace(kind="action", t=t, link=self.link_id,
                           group=cmd.action_group, mode=cmd.action_mode.name,
                           out=f"0x{fabric.outputs:x}")
            self.pc += 1
        elif op is OpCode.JUMP_IF:
            if execute_jump_if(self.capture_reg, cmd.condition, cmd.operand):
                self.pc = cmd.target
            else:
                self.pc += 1
        elif op is OpCode.LOOP:
            if not self.loop_active:
                self.loop_counter = cmd.operand  # number of additional passes
                self.loop_active = True
            if self.loop_counter != 0:
                self.loop_counter -= 1
                self.pc = cmd.target
            else:
                self.loop_active = False
                self.pc += 1
        self.state = FsmState.FETCH

    def _do_modify(self, t: int, segment: BusSegment) -> FsmState:
        cmd = self.cmd
        old = self.txn.result
        self.stats.bus_reads += 1
        self.txn = None
        if cmd.opcode is OpCode.CAPTURE:
            self.capture_reg = execute_capture(old, cmd.operand)
            self._last_effect = t
            self.pc += 1
            self.state = FsmState.FETCH
        else:
            value = execute_rmw(old, cmd.opcode, cmd.operand)
            self._post(segment, t, TxnKind.WRITE, value)
            self.state = FsmState.BUS_WRITE_PEND
        return FsmState.MODIFY

    def _post(self, segment: BusSegment, t: int, kind: TxnKind, data: int = 0) -> None:
        address = self.config.base_address + 4 * self.cmd.field
        self.txn = BusTransaction(self.master_id, kind, address, data)
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
                self.trace(kind="program", t=t, link=self.link_id,
                           token=token.seq, event="complete",
                           latency=completion - token.cycle)
        self._running = None

    def _abort(self, t: int, detail: str) -> FsmState:
        """Bus or decode failure: flag the link, drop the program, go idle."""
        self.error = True
        self.error_detail = self.error_detail or detail
        if self.trace:
            self.trace(kind="error", t=t, link=self.link_id, detail=detail)
            if self._running is not None:
                self.trace(kind="program", t=t, link=self.link_id,
                           token=self._running.seq, event="aborted")
        self.txn = None
        self.cmd = None
        self.loop_active = False
        self._running = None  # aborted tokens yield no latency sample
        self.state = FsmState.IDLE
        return FsmState.IDLE

    @property
    def idle(self) -> bool:
        return self.state is FsmState.IDLE and not self.fifo
