import random

import pytest

from pels.bus import (
    ArbiterState,
    BusSegment,
    BusTransaction,
    DecodeError,
    TxnKind,
    arbitrate,
)
from pels.periph import Regs
from pels.trace import Trace


def make_segment(n_masters=8, transfer_cycles=2, words=64, trace=None):
    seg = BusSegment(0, n_masters, transfer_cycles, trace)
    seg.attach(Regs("r0", 0x4000_0000, words))
    return seg


def traced_segment(n_masters=8):
    """A segment on a `full` trace, plus the (cycle, master) of every
    grant in that trace, in grant order."""
    trace = Trace("full")
    grants = []

    def record(*row):
        trace.emit(*row)
        last = trace.records[-1]
        if last["event"] == "grant":
            grants.append((last["t"], last["master"]))

    return make_segment(n_masters, trace=record), grants


# --------------------------------------------------------------- arbitrate --

def test_arbitrate_next_in_order():
    state = ArbiterState(n_masters=3, rr_pointer=0)
    assert arbitrate(state, {0, 1, 2}) == 1
    assert state.rr_pointer == 1


def test_arbitrate_wraps():
    state = ArbiterState(n_masters=3, rr_pointer=2)
    assert arbitrate(state, {0}) == 0
    assert state.rr_pointer == 0


def test_arbitrate_empty_requests():
    state = ArbiterState(n_masters=4, rr_pointer=1)
    assert arbitrate(state, set()) is None
    assert state.rr_pointer == 1


def test_arbitrate_skips_non_requesters():
    state = ArbiterState(n_masters=4, rr_pointer=0)
    assert arbitrate(state, {3}) == 3
    assert arbitrate(state, {3}) == 3


# ------------------------------------------------------------- transactions --

def run_segment(seg, cycles, repost=None):
    """Step the segment, reposting per master via `repost(master, t)`."""
    completed = []
    for t in range(cycles):
        for txn in seg.step(t):
            completed.append(txn)
            if repost:
                repost(txn.master_id, t)
    return completed


def test_uncontended_read_timing():
    seg = make_segment(n_masters=1)
    txn = BusTransaction(0, TxnKind.READ, 0x4000_0010)
    seg.post(txn, 2)
    for t in range(2, 6):
        seg.step(t)
    assert txn.grant_cycle == 2
    assert txn.complete_cycle == 4
    assert txn.done


def test_read_returns_value_as_of_access_cycle():
    seg = make_segment(n_masters=1)
    block = seg.blocks[0]
    txn = BusTransaction(0, TxnKind.READ, 0x4000_0000)
    seg.post(txn, 2)
    seg.step(2)
    block.values[0] = 0xBEEF  # lands before the access cycle
    seg.step(3)
    seg.step(4)
    assert txn.result == 0xBEEF


def test_two_same_cycle_reads_serialize_two_cycles_apart():
    seg = make_segment(n_masters=2)
    a = BusTransaction(0, TxnKind.READ, 0x4000_0000)
    b = BusTransaction(1, TxnKind.READ, 0x4000_0004)
    seg.post(a, 2)
    seg.post(b, 2)
    for t in range(2, 8):
        seg.step(t)
    first, second = sorted([a, b], key=lambda x: x.complete_cycle)
    assert second.complete_cycle - first.complete_cycle == 2


def test_write_lands_in_block():
    seg = make_segment(n_masters=1)
    txn = BusTransaction(0, TxnKind.WRITE, 0x4000_0008, data=0x55)
    seg.post(txn, 0)
    for t in range(0, 4):
        seg.step(t)
    assert seg.blocks[0].values[2] == 0x55
    assert txn.done and txn.error is None


def test_decode_error_marks_transaction():
    seg = make_segment(n_masters=1)
    txn = BusTransaction(0, TxnKind.WRITE, 0xFFFF_0000, data=1)
    seg.post(txn, 0)
    for t in range(0, 4):
        seg.step(t)
    assert txn.done
    assert txn.error and "decode" in txn.error


def test_decode_totality():
    seg = make_segment(n_masters=1, words=4)
    for address in range(0x4000_0000, 0x4000_0010, 4):
        block, offset = seg.decode(address)
        assert block.name == "r0" and offset == (address - 0x4000_0000) // 4
    with pytest.raises(DecodeError):
        seg.decode(0x4000_0010)
    with pytest.raises(DecodeError):
        seg.decode(0x0)


def test_overlapping_blocks_rejected():
    seg = make_segment(words=4)
    with pytest.raises(ValueError):
        seg.attach(Regs("r1", 0x4000_000C, 4))


def test_grant_persists_for_whole_transaction():
    seg = make_segment(n_masters=2, transfer_cycles=5)
    a = BusTransaction(0, TxnKind.READ, 0x4000_0000)
    seg.post(a, 0)
    seg.step(0)
    b = BusTransaction(1, TxnKind.READ, 0x4000_0004)
    seg.post(b, 1)  # arrives mid-transfer; must not preempt
    for t in range(1, 12):
        seg.step(t)
    assert a.complete_cycle == 5
    assert b.grant_cycle == 5 and b.complete_cycle == 10


def test_saturated_round_robin_window():
    """8 masters always requesting 2-cycle transfers: one grant each per
    16-cycle window, verified by direct simulation."""
    seg, grants = traced_segment(n_masters=8)

    def repost(master, t):
        seg.post(BusTransaction(master, TxnKind.READ, 0x4000_0000), t)

    for m in range(8):
        repost(m, 0)
    run_segment(seg, 2000, repost)

    assert seg.grants == len(grants) > 900
    # steady state: skip the first full rotation
    steady = [g for g in grants if g[0] >= 16]
    for start in range(16, 1900):
        window = [m for (t, m) in steady if start <= t < start + 16]
        if len(window) == 8:
            assert sorted(window) == list(range(8))
    # every master's consecutive grants exactly one rotation apart
    per_master = {}
    for t, m in steady:
        per_master.setdefault(m, []).append(t)
    for times in per_master.values():
        assert all(b - a == 16 for a, b in zip(times, times[1:]))


def test_serialization_no_overlap():
    seg, grants = traced_segment(n_masters=4)
    rng = random.Random(11)
    outstanding = set()

    for t in range(400):
        for m in range(4):
            if m not in outstanding and rng.random() < 0.4:
                seg.post(BusTransaction(m, TxnKind.READ, 0x4000_0000), t)
                outstanding.add(m)
        for txn in seg.step(t):
            outstanding.discard(txn.master_id)

    assert seg.grants == len(grants) > 0
    for (t1, _), (t2, _) in zip(grants, grants[1:]):
        assert t2 - t1 >= 2  # a 2-cycle transfer blocks the next grant


def test_starvation_bound():
    """A continuously requesting master is granted within (L-1)*T cycles."""
    seg = make_segment(n_masters=8)

    def repost(master, t):
        seg.post(BusTransaction(master, TxnKind.READ, 0x4000_0000), t)

    for m in range(8):
        repost(m, 0)
    run_segment(seg, 3000, repost)
    worst = max(
        wait for hist in seg.grant_waits.values() for wait in hist
    )
    assert worst <= (8 - 1) * 2
