import random

import pytest
from hypothesis import given, strategies as st

from helpers import random_command
from pels import isa
from pels.isa import (
    ActionMode,
    Command,
    Condition,
    ImageFormatError,
    OpCode,
    UndefinedOpcode,
    decode,
    encode,
)


def test_encode_write():
    cmd = Command(OpCode.WRITE, 0x004, 0x0000_00FF)
    assert encode(cmd) == 0x1004_0000_00FF


def test_encode_action():
    cmd = Command(OpCode.ACTION, 0x000, 0x0000_0001)
    assert encode(cmd) == 0x9000_0000_0001


def test_encode_all_ones_boundary():
    cmd = Command(OpCode.SET, 0xFFF, 0xFFFF_FFFF)
    assert encode(cmd) == 0x2FFF_FFFF_FFFF


def test_decode_write():
    assert decode(0x1004_0000_00FF) == Command(OpCode.WRITE, 0x004, 0x0000_00FF)


def test_decode_undefined_opcode():
    with pytest.raises(UndefinedOpcode) as exc:
        decode(0xF000_0000_0000)
    assert exc.value.nibble == 0xF


def test_sentinel_is_not_a_command():
    with pytest.raises(UndefinedOpcode) as exc:
        decode(0x0000_0000_0000)
    assert exc.value.nibble == 0x0
    assert isa.is_sentinel(0)
    assert not isa.is_sentinel(encode(Command.wait(0)))


def test_roundtrip_10k_random_commands():
    rng = random.Random(0x9e1)
    for _ in range(10_000):
        cmd = random_command(rng)
        assert decode(encode(cmd)) == cmd


@st.composite
def commands(draw):
    op = draw(st.sampled_from(list(OpCode)))
    return Command(op, draw(st.integers(0, 0xFFF)), draw(st.integers(0, 0xFFFF_FFFF)))


@given(commands())
def test_roundtrip_property(cmd):
    assert decode(encode(cmd)) == cmd


@given(st.integers(0, (1 << 48) - 1))
def test_word_roundtrip_property(word):
    nibble = word >> 44
    if nibble in OpCode._value2member_map_:
        assert encode(decode(word)) == word
    else:
        with pytest.raises(UndefinedOpcode):
            decode(word)


@given(commands(), st.integers(0, 0xFFFF_FFFF))
def test_operand_isolation(cmd, operand):
    changed = Command(cmd.opcode, cmd.field, operand)
    delta = encode(cmd) ^ encode(changed)
    assert delta & ~0xFFFF_FFFF == 0


@given(commands(), st.integers(0, 0xFFF))
def test_field_isolation(cmd, field):
    changed = Command(cmd.opcode, field, cmd.operand)
    delta = encode(cmd) ^ encode(changed)
    assert delta & ~(0xFFF << 32) == 0


@given(commands(), st.sampled_from(list(OpCode)))
def test_opcode_isolation(cmd, opcode):
    changed = Command(opcode, cmd.field, cmd.operand)
    delta = encode(cmd) ^ encode(changed)
    assert delta & ~(0xF << 44) == 0


def test_command_width_validation():
    with pytest.raises(ValueError):
        Command(OpCode.WRITE, 0x1000, 0)
    with pytest.raises(ValueError):
        Command(OpCode.WRITE, 0, 1 << 32)
    with pytest.raises(ValueError):
        Command.jump_if(Condition.EQ, 0, 256)
    with pytest.raises(ValueError):
        Command.action(ActionMode.TOGGLE, 256, 0)


def test_field_sublayout_accessors():
    jmp = Command.jump_if(Condition.LTU, 0x40, 3)
    assert jmp.condition is Condition.LTU
    assert jmp.target == 3
    act = Command.action(ActionMode.TOGGLE, 5, 0b1010)
    assert act.action_mode is ActionMode.TOGGLE
    assert act.action_group == 5


def test_image_roundtrip():
    rng = random.Random(7)
    cmds = [random_command(rng) for _ in range(20)]
    data = isa.pack_image(cmds)
    assert len(data) == 20 * isa.WORD_BYTES
    assert isa.unpack_image(data) == cmds


def test_image_big_endian_layout():
    data = isa.pack_image([Command(OpCode.WRITE, 0x004, 0x0000_00FF)])
    assert data == bytes.fromhex("10040000 00ff".replace(" ", ""))


def test_image_sentinel_truncates():
    cmds = [Command.wait(1), Command.wait(2)]
    padded = isa.pack_image(cmds) + b"\x00" * 12
    assert isa.unpack_image(padded) == cmds


def test_image_bad_length():
    with pytest.raises(ImageFormatError):
        isa.unpack_image(b"\x10\x00\x00")
