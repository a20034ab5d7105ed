"""Memory-mapped interconnect with per-segment round-robin arbitration.

Timing model (APB-like, default 2 transfer cycles): a master posts a
request during its own step in cycle t. When the segment is free, the
arbiter grants one pending request at the end of cycle g; the transfer
then occupies cycles g+1 .. g+T and the data/ack is valid at the end of
cycle g+T (`complete_cycle`). Reads sample the peripheral register as of
the access cycle; writes land in the same cycle. A granted master holds
the segment for the whole transaction.

Arbitration scans master ids starting from rr_pointer + 1, wrapping; the
pointer moves to the granted id. With L continuously requesting masters
and T-cycle transfers every master is granted once per L*T cycles.

A transaction's `kind` is a `TxnKind` code; TXN_KIND_NAMES spells it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Optional

from .periph import RegisterBlock
from .trace import BUS_DATA, BUS_DATA_ERROR, BUS_ERROR, BUS_GRANT, BUS_REQUEST


class TxnKind:
    """Transaction kinds: codes into TXN_KIND_NAMES."""
    READ = 0
    WRITE = 1


TXN_KIND_NAMES = ("R", "W")


class DecodeError(Exception):
    """No peripheral register block claims the address."""

    def __init__(self, address: int):
        self.address = address
        super().__init__(f"no peripheral claims address 0x{address:08x}")


@dataclass
class BusTransaction:
    master_id: int
    kind: int  # a TxnKind code
    address: int
    data: int = 0  # write payload
    issue_cycle: int = 0
    complete_cycle: Optional[int] = None
    result: int = 0  # read return value
    done: bool = False
    error: Optional[str] = None


@dataclass
class ArbiterState:
    n_masters: int
    rr_pointer: int = 0


def arbitrate(state: ArbiterState, requests: Collection[int]) -> Optional[int]:
    """Grant the first requesting master scanning from rr_pointer + 1;
    `requests` is any collection of master ids, such as a segment's
    `pending` dict."""
    if not requests:
        return None
    for step in range(1, state.n_masters + 1):
        candidate = (state.rr_pointer + step) % state.n_masters
        if candidate in requests:
            state.rr_pointer = candidate
            return candidate
    return None


class BusSegment:
    """One arbitrated bus segment with its own peripheral address map."""

    def __init__(
        self,
        seg_id: int,
        n_masters: int,
        transfer_cycles: int,
        trace: Optional[Callable],
    ):
        self.seg_id = seg_id
        self.transfer_cycles = transfer_cycles
        self.arbiter = ArbiterState(n_masters)
        self.blocks: list[RegisterBlock] = []
        self.pending: dict[int, BusTransaction] = {}  # one per master
        self.in_flight: Optional[BusTransaction] = None
        self.trace = trace
        # per-master [reads, writes] and grant-wait histogram
        self.master_reads: dict[int, int] = {}
        self.master_writes: dict[int, int] = {}
        self.grant_waits: dict[int, dict[int, int]] = {}
        self.grants = 0

    def attach(self, block: RegisterBlock) -> None:
        lo, hi = block.base_address, block.base_address + 4 * block.size_words
        for other in self.blocks:
            olo = other.base_address
            ohi = other.base_address + 4 * other.size_words
            if lo < ohi and olo < hi:
                raise ValueError(
                    f"register blocks overlap: [0x{lo:08x},0x{hi:08x}) and "
                    f"[0x{olo:08x},0x{ohi:08x})"
                )
        self.blocks.append(block)

    def decode(self, address: int) -> tuple[RegisterBlock, int]:
        """Map a byte address to (block, word offset); total by construction."""
        for block in self.blocks:
            if block.base_address <= address < block.base_address + 4 * block.size_words:
                return block, (address - block.base_address) // 4
        raise DecodeError(address)

    def post(self, txn: BusTransaction, cycle: int) -> None:
        """Register a request; a master may hold only one at a time."""
        if txn.master_id in self.pending or (
            self.in_flight is not None and self.in_flight.master_id == txn.master_id
        ):
            raise RuntimeError(f"master {txn.master_id} already has a transaction")
        txn.issue_cycle = cycle
        self.pending[txn.master_id] = txn
        if self.trace:
            self.trace(BUS_REQUEST, cycle, self.seg_id, "request", txn.master_id,
                       TXN_KIND_NAMES[txn.kind], txn.address)

    def step(self, t: int) -> None:
        """Advance one cycle: finalize a completing transfer, then grant."""
        txn = self.in_flight
        if txn is not None and txn.complete_cycle == t:
            self._finalize(txn, t)
            self.in_flight = None

        if self.in_flight is None and self.pending:
            granted = arbitrate(self.arbiter, self.pending)
            if granted is not None:
                txn = self.pending.pop(granted)
                txn.complete_cycle = t + self.transfer_cycles
                self.in_flight = txn
                wait = t - txn.issue_cycle
                hist = self.grant_waits.setdefault(granted, {})
                hist[wait] = hist.get(wait, 0) + 1
                self.grants += 1
                if self.trace:
                    self.trace(BUS_GRANT, t, self.seg_id, "grant", granted,
                               TXN_KIND_NAMES[txn.kind], txn.address, wait)

    def _finalize(self, txn: BusTransaction, t: int) -> None:
        read = txn.kind is TxnKind.READ
        try:
            block, offset = self.decode(txn.address)
            if read:
                txn.result = block.read(offset, t) & 0xFFFF_FFFF
                self.master_reads[txn.master_id] = (
                    self.master_reads.get(txn.master_id, 0) + 1
                )
            else:
                block.write(offset, txn.data & 0xFFFF_FFFF, t)
                self.master_writes[txn.master_id] = (
                    self.master_writes.get(txn.master_id, 0) + 1
                )
        except DecodeError as e:
            txn.error = f"decode: {e}"
        txn.done = True
        if self.trace:
            # data: the word read or written; a failed read has none
            head = (t, self.seg_id, "complete", txn.master_id,
                    TXN_KIND_NAMES[txn.kind], txn.address)
            if not read:
                if txn.error:
                    self.trace(BUS_DATA_ERROR, *head, txn.data, txn.error)
                else:
                    self.trace(BUS_DATA, *head, txn.data)
            elif txn.error:
                self.trace(BUS_ERROR, *head, txn.error)
            else:
                self.trace(BUS_DATA, *head, txn.result)

