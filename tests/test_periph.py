import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pels.periph import BaselineCpu, BaselineCpuModel, Gpio, Regs, Sensor, Timer


# ------------------------------------------------------------------- gpio --

def test_gpio_out_write_replaces():
    g = Gpio("g", 0x4000_0000)
    g.write(Gpio.OUT, 0b0101, t=0)
    assert g.pins == 0b0101


def test_gpio_toggle_register():
    g = Gpio("g", 0x4000_0000)
    g.write(Gpio.OUT, 0b0101, t=0)
    g.write(Gpio.TGL, 0b0011, t=1)
    assert g.pins == 0b0110


def test_gpio_set_register_then_read():
    g = Gpio("g", 0x4000_0000)
    g.write(Gpio.OUT, 0b0101, t=0)
    g.write(Gpio.SET, 0b1000, t=1)
    assert g.read(Gpio.OUT, t=2) == 0b1101


def test_gpio_clear_register():
    g = Gpio("g", 0x4000_0000)
    g.write(Gpio.OUT, 0b1111, t=0)
    g.write(Gpio.CLR, 0b0101, t=1)
    assert g.pins == 0b1010


def test_gpio_pin_mask():
    g = Gpio("g", 0x4000_0000, pins=4)
    g.write(Gpio.OUT, 0xFF, t=0)
    assert g.pins == 0xF


# ------------------------------------------------------------------ timer --

def run_timer(timer, cycles):
    pulses = []
    for t in range(cycles):
        if timer.tick(t):
            pulses.append(t)
    return pulses


def test_timer_period_10_pulses():
    t = Timer("t", 0x4000_0000, period=10, enabled=True, event_line=0)
    assert run_timer(t, 35) == [10, 20, 30]


def test_timer_disabled_never_pulses():
    t = Timer("t", 0x4000_0000, period=10, enabled=False, event_line=0)
    assert run_timer(t, 50) == []
    assert t.next_event(49) is None


def test_timer_period_1_pulses_every_cycle():
    t = Timer("t", 0x4000_0000, period=1, enabled=True, event_line=0)
    assert run_timer(t, 6) == [1, 2, 3, 4, 5]


def test_timer_registers():
    t = Timer("t", 0x4000_0000, period=5, enabled=False, event_line=0)
    assert t.read(Timer.CTRL, 0) == 0
    t.write(Timer.CTRL, 1, t=3)  # enable resets and re-arms
    assert t.read(Timer.CTRL, 4) == 1
    pulses = []
    for cyc in range(4, 20):
        if t.tick(cyc):
            pulses.append(cyc)
    assert pulses == [9, 14, 19]  # armed at 4, first match one period later
    t.write(Timer.PERIOD, 7, t=20)
    assert t.read(Timer.PERIOD, 21) == 7


def test_timer_without_event_line_is_silent():
    t = Timer("t", 0x4000_0000, period=3, enabled=True, event_line=None)
    assert run_timer(t, 10) == []
    assert t.next_event(9) is None


class PerCycleTimer:
    """The timer as first modelled: one count step per tick, every cycle."""

    CTRL, PERIOD, COUNT = range(3)

    def __init__(self, period, enabled, event_line):
        self.period = period
        self.enabled = enabled
        self.event_line = event_line
        self.count = 0
        self._armed = False

    def read(self, offset, t):
        if offset == self.CTRL:
            return 1 if self.enabled else 0
        if offset == self.PERIOD:
            return self.period
        return self.count

    def write(self, offset, value, t):
        if offset == self.CTRL:
            enable = bool(value & 1)
            if enable and not self.enabled:
                self.count = 0
                self._armed = False
            self.enabled = enable
        elif offset == self.PERIOD:
            self.period = value

    def tick(self, t):
        if not self.enabled or self.period <= 0:
            return 0
        if not self._armed:
            self._armed = True
            return 0
        self.count += 1
        if self.count >= self.period:
            self.count = 0
            if self.event_line is not None:
                return 1 << self.event_line
        return 0


_HORIZON = 300


@settings(max_examples=300, deadline=None)
@given(period=st.integers(0, 40), enabled=st.booleans(),
       event_line=st.none() | st.integers(0, 3),
       writes=st.dictionaries(
           st.integers(0, _HORIZON - 1),
           st.tuples(st.sampled_from([Timer.CTRL, Timer.PERIOD]), st.integers(0, 40)),
           max_size=8),
       reads=st.sets(st.integers(0, _HORIZON - 1), max_size=8))
def test_timer_ticked_at_next_event_matches_per_cycle_timer(period, enabled,
                                                            event_line, writes, reads):
    """Ticked only at its own next_event cycles and at the cycles a bus
    access reaches it, the timer pulses and reads as if ticked every cycle."""
    ref = PerCycleTimer(period, enabled, event_line)
    expected_pulses, expected_reads = [], []
    for t in range(_HORIZON):
        if ref.tick(t):
            expected_pulses.append(t)
        if t in writes:
            ref.write(*writes[t], t)
        if t in reads:
            expected_reads.append([ref.read(r, t) for r in range(3)])

    timer = Timer("t", 0x4000_0000, period, enabled, event_line)
    pulses, got_reads = [], []
    accesses = sorted(set(writes) | reads)
    t = 0
    while t < _HORIZON:
        if timer.tick(t):
            pulses.append(t)
        if t in writes:
            timer.write(*writes[t], t)
        if t in reads:
            got_reads.append([timer.read(r, t) for r in range(3)])
        due = [c for c in accesses if c > t][:1]
        event = timer.next_event(t)
        if event is not None:
            assert event > t
            due.append(event)
        t = min(due, default=_HORIZON)
    assert pulses == expected_pulses
    assert got_reads == expected_reads


# ----------------------------------------------------------------- sensor --

def test_sensor_schedule_lands_samples():
    s = Sensor("s", 0x4000_0000, schedule=[(5, 100), (9, 200)], event_line=2)
    seen = {}
    for t in range(12):
        pulse = s.tick(t)
        seen[t] = (s.read(Sensor.SAMPLE, t), pulse)
    assert seen[4] == (0, 0)
    assert seen[5] == (100, 1 << 2)       # lands and pulses at its cycle
    assert seen[8] == (100, 0)
    assert seen[9] == (200, 1 << 2)
    assert s.next_event(11) is None


def test_sensor_no_time_travel():
    s = Sensor("s", 0x4000_0000, schedule=[(10, 77)])
    for t in range(10):
        s.tick(t)
        assert s.read(Sensor.SAMPLE, t) == 0
    s.tick(10)
    assert s.read(Sensor.SAMPLE, 10) == 77


def test_sensor_next_event():
    s = Sensor("s", 0x4000_0000, schedule=[(5, 1), (9, 2)], event_line=0)
    assert s.next_event(0) == 5
    s.tick(5)
    assert s.next_event(5) == 9
    s.tick(9)
    assert s.next_event(9) is None
    adc = Sensor("a", 0x4000_0000, schedule=[(5, 1)], event_line=0, triggered=True)
    assert adc.next_event(0) is None  # waits for a conversion start
    adc.latch(3)
    assert adc.next_event(3) == 4  # the done pulse
    assert adc.tick(4) == 1
    assert adc.next_event(4) is None


def test_sensor_triggered_mode_latches_on_start():
    s = Sensor("s", 0x4000_0000, schedule=[(0, 5), (20, 9)], triggered=True,
               event_line=1)
    for t in range(40):
        assert s.tick(t) == 0  # no autonomous landings
    assert s.read(Sensor.SAMPLE, 40) == 0
    s.write(Sensor.START, 1, t=25)  # conversion start picks the current value
    assert s.read(Sensor.SAMPLE, 26) == 9


# --------------------------------------------------------------- baseline --

def test_baseline_default_latency_is_16():
    cpu = BaselineCpu(BaselineCpuModel())
    completion = cpu.handle_event(3)
    assert completion == 19
    for t in range(4, 20):
        cpu.step(t)
    assert cpu.latency_samples == [16]
    assert cpu.shared_memory_fetches == 16
    assert cpu.bus_transactions == 2


def test_baseline_degenerate_zero_latency():
    cpu = BaselineCpu(BaselineCpuModel(interrupt_entry_cycles=0, handler_cycles=0))
    assert cpu.handle_event(7) == 7
    cpu.step(7)
    assert cpu.latency_samples == [0]


def test_baseline_latency_has_no_jitter():
    cpu = BaselineCpu(BaselineCpuModel())
    for event in (0, 30, 61, 95):
        cpu.handle_event(event)
    for t in range(0, 130):
        cpu.step(t)
    assert cpu.latency_samples == [16, 16, 16, 16]
    assert cpu.idle


def test_baseline_activity_scales_with_events():
    cpu = BaselineCpu(BaselineCpuModel(memory_fetches_per_handler=16,
                                       peripheral_txns_per_event=2))
    for event in (0, 40):
        cpu.handle_event(event)
    for t in range(0, 60):
        cpu.step(t)
    assert cpu.shared_memory_fetches == 32
    assert cpu.bus_transactions == 4


# --------------------------------------------------------------- validation --

def test_register_block_rejects_unaligned_base():
    with pytest.raises(ValueError):
        Regs("r", 0x4000_0002, 4)


def test_register_block_rejects_empty():
    with pytest.raises(ValueError):
        Regs("r", 0x4000_0000, 0)
