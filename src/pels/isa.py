"""Command set and bit-exact 48-bit binary encoding.

Word layout (big-endian on disk, 6 bytes per command):

    [47:44] opcode   4 bits
    [43:32] field    12 bits (word offset, jump/loop target, event group)
    [31:0]  operand  32 bits (value, mask, cycle count, loop count, line bits)

Opcode assignments:

    0x0  reserved NO-OP sentinel (blank SCM line, end of program)
    0x1  write    field = register word offset, operand = value
    0x2  set      field = offset, operand = OR mask       (read-modify-write)
    0x3  clear    field = offset, operand = AND-NOT mask  (read-modify-write)
    0x4  toggle   field = offset, operand = XOR mask      (read-modify-write)
    0x5  capture  field = offset, operand = read mask -> capture register
    0x6  jump-if  field[11:8] = condition, field[7:0] = target line index
    0x7  loop     field[7:0] = target line index, operand = extra passes
    0x8  wait     field = 0, operand = stall cycle count
    0x9  action   field[11:8] = mode, field[7:0] = event-line group,
                  operand = per-line bits within the group

Register offsets are word addressed: byte address = link base + 4 * field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

WORD_BITS = 48
WORD_BYTES = 6

OPCODE_SHIFT = 44
FIELD_SHIFT = 32
FIELD_MASK = 0xFFF
OPERAND_MASK = 0xFFFF_FFFF

NOP_SENTINEL = 0x0000_0000_0000

# Event lines addressed by action commands come in 32-bit groups.
ACTION_GROUP_WIDTH = 32


class OpCode(IntEnum):
    WRITE = 0x1
    SET = 0x2
    CLEAR = 0x3
    TOGGLE = 0x4
    CAPTURE = 0x5
    JUMP_IF = 0x6
    LOOP = 0x7
    WAIT = 0x8
    ACTION = 0x9


# Opcodes that address a peripheral register (field = word offset).
REGISTER_OPCODES = frozenset(
    {OpCode.WRITE, OpCode.SET, OpCode.CLEAR, OpCode.TOGGLE, OpCode.CAPTURE}
)


class Condition(IntEnum):
    """jump-if comparison of the capture register against the operand."""

    EQ = 0x0
    NE = 0x1
    LTU = 0x2  # unsigned less-than
    GEU = 0x3  # unsigned greater-or-equal


class ActionMode(IntEnum):
    SET_LEVELS = 0x0  # operand replaces the group's line levels
    TOGGLE = 0x1  # operand bits invert the matching lines


class UndefinedOpcode(ValueError):
    """Raised when a 4-bit opcode pattern has no defined command."""

    def __init__(self, nibble: int):
        self.nibble = nibble
        super().__init__(f"undefined opcode 0x{nibble:X}")


class ImageFormatError(ValueError):
    """Raised for malformed binary program images."""


@dataclass(frozen=True)
class Command:
    """One decoded microcode command."""

    opcode: OpCode
    field: int
    operand: int

    def __post_init__(self):
        if self.opcode not in OpCode._value2member_map_:
            raise UndefinedOpcode(int(self.opcode))
        if not 0 <= self.field <= FIELD_MASK:
            raise ValueError(f"field 0x{self.field:x} exceeds 12 bits")
        if not 0 <= self.operand <= OPERAND_MASK:
            raise ValueError(f"operand 0x{self.operand:x} exceeds 32 bits")

    # -- field sub-layout accessors -------------------------------------

    @property
    def condition(self) -> Condition:
        return Condition((self.field >> 8) & 0xF)

    @property
    def target(self) -> int:
        """Jump or loop target line index (field bits [7:0])."""
        return self.field & 0xFF

    @property
    def action_mode(self) -> ActionMode:
        return ActionMode((self.field >> 8) & 0xF)

    @property
    def action_group(self) -> int:
        return self.field & 0xFF

    # -- constructors ----------------------------------------------------

    @classmethod
    def write(cls, offset: int, value: int) -> "Command":
        return cls(OpCode.WRITE, offset, value)

    @classmethod
    def set(cls, offset: int, mask: int) -> "Command":
        return cls(OpCode.SET, offset, mask)

    @classmethod
    def clear(cls, offset: int, mask: int) -> "Command":
        return cls(OpCode.CLEAR, offset, mask)

    @classmethod
    def toggle(cls, offset: int, mask: int) -> "Command":
        return cls(OpCode.TOGGLE, offset, mask)

    @classmethod
    def capture(cls, offset: int, mask: int) -> "Command":
        return cls(OpCode.CAPTURE, offset, mask)

    @classmethod
    def jump_if(cls, cond: Condition, operand: int, target: int) -> "Command":
        return cls(OpCode.JUMP_IF, _subfield(cond, target, "jump target"), operand)

    @classmethod
    def loop(cls, count: int, target: int) -> "Command":
        return cls(OpCode.LOOP, _subfield(0, target, "loop target"), count)

    @classmethod
    def wait(cls, cycles: int) -> "Command":
        return cls(OpCode.WAIT, 0, cycles)

    @classmethod
    def action(cls, mode: ActionMode, group: int, bits: int) -> "Command":
        return cls(OpCode.ACTION, _subfield(mode, group, "event group"), bits)


def _subfield(selector: int, index: int, what: str) -> int:
    """A field of a 4-bit selector over an 8-bit index (target or group)."""
    if not 0 <= index <= 0xFF:
        raise ValueError(f"{what} {index} exceeds 8 bits")
    return (int(selector) << 8) | index


def encode(cmd: Command) -> int:
    """Pack a command into its 48-bit word."""
    return (
        (int(cmd.opcode) << OPCODE_SHIFT)
        | (cmd.field << FIELD_SHIFT)
        | cmd.operand
    )


def decode(bits: int) -> Command:
    """Unpack a 48-bit word; raises UndefinedOpcode for unassigned opcodes."""
    if not 0 <= bits < (1 << WORD_BITS):
        raise ValueError(f"0x{bits:x} is not a 48-bit word")
    nibble = (bits >> OPCODE_SHIFT) & 0xF
    if nibble not in OpCode._value2member_map_:
        raise UndefinedOpcode(nibble)
    return Command(
        OpCode(nibble),
        (bits >> FIELD_SHIFT) & FIELD_MASK,
        bits & OPERAND_MASK,
    )


def is_sentinel(bits: int) -> bool:
    """True for words with the reserved 0x0 opcode (blank SCM line)."""
    return (bits >> OPCODE_SHIFT) & 0xF == 0


def pack_image(commands: list[Command] | tuple[Command, ...]) -> bytes:
    """Serialize commands to the binary image format (6 bytes each, BE)."""
    return b"".join(encode(c).to_bytes(WORD_BYTES, "big") for c in commands)


def unpack_image(data: bytes) -> list[Command]:
    """Parse a binary image back to commands.

    A sentinel word ends the program; anything after it is blank padding
    and is ignored.
    """
    if len(data) % WORD_BYTES:
        raise ImageFormatError(
            f"image length {len(data)} is not a multiple of {WORD_BYTES}"
        )
    commands = []
    for i in range(0, len(data), WORD_BYTES):
        word = int.from_bytes(data[i : i + WORD_BYTES], "big")
        if is_sentinel(word):
            break
        commands.append(decode(word))
    return commands
