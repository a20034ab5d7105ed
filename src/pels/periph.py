"""Memory-mapped peripheral models and the baseline CPU-interrupt model.

Register maps (word offsets from the block base):

    gpio    0 OUT   rw  pin levels; write replaces the whole vector
            1 SET   w1  OR written mask into the pins
            2 CLR   w1  AND-NOT written mask
            3 TGL   w1  XOR written mask
            reads of any offset return the current pin vector

    timer   0 CTRL  rw  bit 0 enables counting
            1 PERIOD rw compare value; counter wraps on match
            2 COUNT ro  current counter
            counting starts the cycle after enable; with period P the
            event line pulses at enable+P, enable+2P, ...
            COUNT is derived from cycle numbers, so reads and pulses are
            exact even when the cycles in between were never ticked

    sensor  0 SAMPLE ro most recent sample
            1 START  w1 (triggered mode) latch the scheduled value now
            schedule mode lands samples autonomously at their cycle;
            the event line pulses for one cycle when a sample lands

    regs    plain 32-bit storage block of size_words registers

The baseline CPU model is a calibrated latency/activity stand-in for
interrupt-driven event handling on the main core, not an instruction-set
simulator: every event completes entry+handler cycles later (default 16)
and books a fixed number of shared-memory instruction fetches plus the
peripheral transactions the handler would have issued.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional


class RegisterBlock:
    """Base class: a disjoint range of word-addressed 32-bit registers.

    `due` is the cycle of the block's next `tick` that can pulse or change
    what a read returns, or None when no tick can until a register is
    written; ticks before it need not run. A block keeps it current
    after each tick, write and latch, and always sets it later than the
    cycle that sets it. The clock never jumps past the smallest `due`,
    so a block is never due at a cycle before the current one.
    """

    due: Optional[int] = None

    def __init__(self, name: str, base_address: int, size_words: int):
        self.name = name
        self.base_address = base_address
        self.size_words = size_words

    def read(self, offset: int, t: int) -> int:
        return 0

    def write(self, offset: int, value: int, t: int) -> None:
        pass

    def tick(self, t: int) -> int:
        """Advance to cycle t; returns a bitmask of event lines pulsing at t."""
        return 0


class Regs(RegisterBlock):
    """Plain storage; the generic peripheral for read-modify-write targets."""

    def __init__(self, name: str, base_address: int, size_words: int = 16):
        super().__init__(name, base_address, size_words)
        self.values = [0] * size_words

    def read(self, offset: int, t: int) -> int:
        return self.values[offset]

    def write(self, offset: int, value: int, t: int) -> None:
        self.values[offset] = value & 0xFFFF_FFFF


class Gpio(RegisterBlock):
    OUT, SET, CLR, TGL = range(4)

    def __init__(self, name: str, base_address: int, pins: int = 32):
        super().__init__(name, base_address, 4)
        self.pin_mask = (1 << pins) - 1
        self.pins = 0

    def read(self, offset: int, t: int) -> int:
        return self.pins

    def write(self, offset: int, value: int, t: int) -> None:
        if offset == self.OUT:
            self.pins = value & self.pin_mask
        elif offset == self.SET:
            self.pins |= value & self.pin_mask
        elif offset == self.CLR:
            self.pins &= ~value
        elif offset == self.TGL:
            self.pins ^= value & self.pin_mask


class Timer(RegisterBlock):
    CTRL, PERIOD, COUNT = range(3)

    def __init__(self, name: str, base_address: int, period: int = 0,
                 enabled: bool = False, event_line: Optional[int] = None):
        super().__init__(name, base_address, 3)
        self.period = period
        self.enabled = enabled
        self.event_line = event_line
        self.count = 0  # as of the tick of cycle _synced
        self._armed = False
        self._synced = -1
        self.due = 0

    def _advance(self, t: int) -> bool:
        """Apply the ticks of the cycles after _synced up to t; True when
        the count wraps at t itself."""
        steps = t - self._synced
        if steps <= 0:
            return False
        self._synced = t
        if not self.enabled or self.period <= 0:
            return False
        if not self._armed:
            self._armed = True  # counting starts the following cycle
            steps -= 1
        # A count at or above a lowered period wraps on the next tick,
        # just as period - 1 does.
        self.count = (min(self.count, self.period - 1) + steps) % self.period
        return steps > 0 and self.count == 0

    def read(self, offset: int, t: int) -> int:
        if offset == self.CTRL:
            return 1 if self.enabled else 0
        if offset == self.PERIOD:
            return self.period
        self._advance(t)
        return self.count

    def write(self, offset: int, value: int, t: int) -> None:
        self._advance(t)
        if offset == self.CTRL:
            enable = bool(value & 1)
            if enable and not self.enabled:
                self.count = 0
                self._armed = False
            self.enabled = enable
        elif offset == self.PERIOD:
            self.period = value
        self.due = self._due(t)

    def tick(self, t: int) -> int:
        wrapped = self._advance(t)
        self.due = self._due(t)
        if wrapped and self.event_line is not None:
            return 1 << self.event_line
        return 0

    def _due(self, t: int) -> Optional[int]:
        """The cycle of the next pulse, from the count as of cycle t."""
        if not self.enabled or self.period <= 0 or self.event_line is None:
            return None
        if not self._armed:
            return t + 1 + self.period
        return t + max(self.period - self.count, 1)


class Sensor(RegisterBlock):
    """Sample source fed from a scenario-declared (cycle, value) schedule.

    In triggered mode the sensor behaves like an ADC: it only latches the
    currently scheduled value when its START register is written or when
    its trigger input line fires; the conversion-done pulse on event_line
    follows one cycle after an input-triggered conversion.
    """

    SAMPLE, START = range(2)

    def __init__(self, name: str, base_address: int,
                 schedule: list[tuple[int, int]] = (),
                 event_line: Optional[int] = None,
                 triggered: bool = False,
                 trigger_line: Optional[int] = None):
        super().__init__(name, base_address, 2)
        self.schedule = sorted(schedule)
        self.event_line = event_line
        self.triggered = triggered
        self.trigger_line = trigger_line
        self.sample = 0
        self._next = 0  # index of the next schedule entry to land
        self._done_pulse = 0  # conversion-done, delivered by the next tick
        self.due = 0

    def _scheduled_value(self, t: int) -> int:
        """Value of the last entry with cycle <= t (the current sample if none)."""
        i = bisect_right(self.schedule, t, key=itemgetter(0))
        return self.schedule[i - 1][1] if i else self.sample

    def latch(self, t: int) -> None:
        """Capture the scheduled value now (triggered mode conversion)."""
        self.sample = self._scheduled_value(t) & 0xFFFF_FFFF
        if self.event_line is not None:
            self._done_pulse = 1 << self.event_line
            self.due = t + 1

    def read(self, offset: int, t: int) -> int:
        return self.sample

    def write(self, offset: int, value: int, t: int) -> None:
        if offset == self.START and self.triggered:
            self.latch(t)

    def tick(self, t: int) -> int:
        pulses = self._done_pulse
        self._done_pulse = 0
        if not self.triggered:
            while self._next < len(self.schedule) and self.schedule[self._next][0] <= t:
                self.sample = self.schedule[self._next][1] & 0xFFFF_FFFF
                if self.event_line is not None:
                    pulses |= 1 << self.event_line
                self._next += 1
        self.due = self._due()
        return pulses

    def _due(self) -> Optional[int]:
        """The cycle of the next schedule landing; a triggered sensor has none."""
        if self.triggered or self._next == len(self.schedule):
            return None
        return self.schedule[self._next][0]


@dataclass
class BaselineCpuModel:
    """Constant-latency interrupt handling: every event completes
    entry + handler cycles after it fires, with fixed activity counts."""

    event_mask: int  # input lines that raise the interrupt, in "any" mode
    interrupt_entry_cycles: int = 10
    handler_cycles: int = 6
    memory_fetches_per_handler: int = 16
    peripheral_txns_per_event: int = 2  # the handler's read + write


class BaselineCpu:
    """Run-time state of the baseline model during a simulation."""

    def __init__(self, model: BaselineCpuModel):
        self.model = model
        self.pending: deque[tuple[int, int]] = deque()  # (event, completion) cycles
        self.latency_samples: list[int] = []
        self.shared_memory_fetches = 0
        self.bus_transactions = 0
        self.events = 0

    def handle_event(self, t: int) -> int:
        """Register an event at cycle t; returns its completion cycle."""
        completion = t + self.model.interrupt_entry_cycles + self.model.handler_cycles
        self.pending.append((t, completion))
        self.events += 1
        return completion

    def step(self, t: int) -> list[tuple[int, int]]:
        """Complete the handlers finishing at cycle t and book activity;
        every event takes the same latency, so they finish in FIFO order."""
        pending, finished = self.pending, []
        while pending and pending[0][1] == t:
            event_cycle, completion = pending.popleft()
            finished.append((event_cycle, completion))
            self.latency_samples.append(completion - event_cycle)
            self.shared_memory_fetches += self.model.memory_fetches_per_handler
            self.bus_transactions += self.model.peripheral_txns_per_event
        return finished
