"""Cycle-accurate simulator of a peripheral event linking system.

Parallel event-linking units (links) execute a small microcode command
set against memory-mapped peripherals over an arbitrated bus, or drive
single-wire event lines directly. The package bundles the instruction
encoding, an assembler/disassembler, the cycle-accurate core, bus and
peripheral models, and a scenario harness with a CLI.
"""

from .asm import Program, assemble, assemble_text, disassemble, parse
from .core import (
    EventFabric,
    FsmState,
    Link,
    LinkConfig,
    TriggerMode,
    execute_jump_if,
    execute_rmw,
)
from .harness import (
    Scenario,
    SimReport,
    Simulation,
    compare,
    emit_trace,
    load_scenario,
    run,
    sweep,
)
from .isa import ActionMode, Command, Condition, OpCode, decode, encode

__version__ = "0.1.0"

__all__ = [
    "ActionMode",
    "Command",
    "Condition",
    "EventFabric",
    "FsmState",
    "Link",
    "LinkConfig",
    "OpCode",
    "Program",
    "Scenario",
    "SimReport",
    "Simulation",
    "TriggerMode",
    "assemble",
    "assemble_text",
    "compare",
    "decode",
    "disassemble",
    "emit_trace",
    "encode",
    "execute_jump_if",
    "execute_rmw",
    "load_scenario",
    "parse",
    "run",
    "sweep",
]
