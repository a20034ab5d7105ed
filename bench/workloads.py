"""Seeded scenario generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical scenario dicts (compare `canonical(workload)`). The
simulator receives only these dicts; the seed is kept on the Workload
so a run can say what it simulated.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

REGS = "0x40000000"  # register block (or sensor) the links address
SWEEP_LINKS = tuple(range(1, 9))
SWEEP_SCM_LINES = (4, 6, 8)
_REGISTER_OPS = ("write", "set", "clear", "toggle", "capture")


@dataclass(frozen=True)
class Workload:
    """The generated inputs of one workload.

    `scenarios` are simulated one by one. `compare_pairs` holds
    (pels index, baseline index) pairs that go through `compare()`.
    `sweep` is the template and grid handed to `sweep()`; its grid
    points are also in `scenarios`, in the order `sweep()` returns them.
    """

    name: str
    seed: int
    scenarios: tuple[dict, ...]
    compare_pairs: tuple[tuple[int, int], ...] = ()
    sweep: Optional[dict] = field(default=None)


def canonical(workload: Workload) -> str:
    """Byte-exact serialisation, used to prove determinism per seed."""
    return json.dumps(
        {"name": workload.name, "seed": workload.seed,
         "scenarios": workload.scenarios,
         "compare_pairs": workload.compare_pairs, "sweep": workload.sweep},
        sort_keys=True,
    )


def _register_command(op: str, rng: random.Random, words: int = 16) -> str:
    return f"{op} 0x{rng.randrange(words):x}, 0x{rng.getrandbits(32):x}"


def bus_contention(seed: int) -> Workload:
    """8 links on one segment, all re-triggered by a short-period timer.

    Each link runs 3-6 register commands against one 16-word block, so
    the offered bus load is several times the segment's capacity. The
    lengths are a permutation and the commands come from a shuffled deck,
    so every seed offers the same amount of bus work per trigger.
    """
    rng = random.Random(seed)
    lengths = [3, 4, 5, 6] * 2
    rng.shuffle(lengths)
    deck = list(_REGISTER_OPS) * 8
    rng.shuffle(deck)
    links = []
    for n in lengths:
        program = "\n".join(_register_command(deck.pop(), rng) for _ in range(n))
        links.append({"scm_lines": 8, "event_mask": "0x1", "base_address": REGS,
                      "fifo_depth": 4, "program": {"source": program}})
    scenario = {
        "clock_limit": 10_000,
        "links": links,
        "peripherals": [
            {"type": "regs", "name": "regs0", "base_address": REGS, "size_words": 16},
            {"type": "timer", "name": "t0", "base_address": "0x40010000",
             "period": 6, "enabled": True, "event_line": 0},
        ],
    }
    return Workload("bus_contention", seed, (scenario,))


def timer_sparse(seed: int) -> Workload:
    """200k cycles; a ~1000-cycle timer drives an instant-action link and
    an RMW-plus-capture link, so almost every cycle is idle."""
    rng = random.Random(seed)
    rmw = (f"set 0x{rng.randrange(16):x}, 0x{rng.getrandbits(32):x}\n"
           f"capture 0x{rng.randrange(16):x}, 0xffff")
    scenario = {
        "clock_limit": 200_000,
        "links": [
            {"scm_lines": 4, "event_mask": "0x2",
             "program": {"source": "action grp0.toggle, 0x1"}},
            {"scm_lines": 4, "event_mask": "0x2", "base_address": REGS,
             "program": {"source": rmw}},
        ],
        "peripherals": [
            {"type": "regs", "name": "regs0", "base_address": REGS, "size_words": 16},
            {"type": "timer", "name": "t0", "base_address": "0x40010000",
             "period": rng.randint(950, 1050), "enabled": True, "event_line": 1},
        ],
    }
    return Workload("timer_sparse", seed, (scenario,))


def sensor_threshold(seed: int) -> Workload:
    """The threshold-readout application on a dense seeded sample train,
    with a loopback-chained second link, and its baseline twin."""
    rng = random.Random(seed)
    schedule = []
    cycle = 10
    for _ in range(1500):
        cycle += rng.randint(20, 40)
        schedule.append([cycle, rng.randrange(0x10000)])
    sensor = {"type": "sensor", "name": "sensor0", "base_address": REGS,
              "schedule": schedule, "event_line": 2}
    actuator = {"type": "gpio", "name": "actuator", "base_address": "0x40001000",
                "pins": 32}
    readout = (
        "capture 0x0, 0xffff\n"
        "jif ltu, 0x8000, done\n"
        f"write 0x400, 0x{rng.getrandbits(32):x}\n"
        "done: action grp0.set, 0x1"
    )
    # Output line 0 loops back to input 5; the second link lowers it again
    # so the next readout re-arms the chain.
    chained = "toggle 0x0, 0x1\naction grp0.set, 0x0"
    clock_limit = cycle + 500
    pels = {
        "clock_limit": clock_limit,
        "fabric": {"loopback": {"0": 5}},
        "links": [
            {"scm_lines": 4, "event_mask": "0x4", "base_address": REGS,
             "program": {"source": readout}},
            {"scm_lines": 4, "event_mask": "0x20", "base_address": "0x40002000",
             "program": {"source": chained}},
        ],
        "peripherals": [
            sensor, actuator,
            {"type": "regs", "name": "count", "base_address": "0x40002000",
             "size_words": 4},
        ],
    }
    baseline = {
        "clock_limit": clock_limit,
        "links": [],
        "peripherals": [sensor, actuator],
        "baseline": {"interrupt_entry_cycles": 10, "handler_cycles": 6,
                     "memory_fetches_per_handler": 16, "event_mask": "0x4",
                     "peripheral_txns_per_event": 2},
    }
    return Workload("sensor_threshold", seed, (pels, baseline), compare_pairs=((0, 1),))


def sweep_grid(seed: int) -> Workload:
    """`sweep()` over 1..8 links x 4,6,8 SCM lines on a seeded template."""
    rng = random.Random(seed)
    template_links = []
    for _ in range(2):
        # Seeded operands in a fixed shape: 4 bus transfers per program.
        program = "\n".join([
            _register_command("capture", rng),
            _register_command(rng.choice(("set", "clear", "toggle")), rng),
            _register_command("write", rng),
            "action grp0.toggle, 0x1",
        ])
        template_links.append({"scm_lines": 4, "event_mask": "0x1",
                               "base_address": REGS, "fifo_depth": 4,
                               "program": {"source": program}})
    # 30 trigger pulses; the gaps are a seeded order of one fixed set, so
    # every seed simulates about as many cycles.
    gaps = list(range(60, 120, 2))
    rng.shuffle(gaps)
    stimuli = []
    cycle = 0
    for gap in gaps:
        stimuli += [[cycle, 0, 1], [cycle + 2, 0, 0]]
        cycle += gap
    template = {
        "clock_limit": cycle + 2000,
        "links": template_links,
        "peripherals": [
            {"type": "regs", "name": "regs0", "base_address": REGS, "size_words": 16},
        ],
        "stimuli": stimuli,
    }
    # Grid points as sweep() derives them: template links reused cyclically.
    grid = []
    for n_links in SWEEP_LINKS:
        for scm_lines in SWEEP_SCM_LINES:
            links = [dict(template_links[i % len(template_links)], scm_lines=scm_lines)
                     for i in range(n_links)]
            grid.append(dict(template, links=links))
    return Workload(
        "sweep_grid", seed, tuple(grid),
        sweep={"template": template, "links": list(SWEEP_LINKS),
               "scm_lines": list(SWEEP_SCM_LINES)},
    )


GENERATORS = {
    "bus_contention": bus_contention,
    "timer_sparse": timer_sparse,
    "sensor_threshold": sensor_threshold,
    "sweep_grid": sweep_grid,
}
