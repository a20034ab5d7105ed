import random

import pytest

from helpers import random_program
from pels import asm
from pels.asm import (
    AsmSyntaxError,
    CapacityExceeded,
    NestedLoop,
    OperandWidth,
    Program,
    TargetOutOfRange,
    UndefinedLabel,
    assemble,
    assemble_text,
    disassemble,
    parse,
    validate_against_capacity,
)
from pels.isa import ActionMode, Command, Condition, OpCode

FIG3_STYLE = """\
        capture 0x0, 0xffff
        jif ltu, 0x40, done
        write 0x400, 0x1
done:   action grp0.set, 0x1
"""


# ------------------------------------------------------------------ parse --

def test_parse_set():
    src = parse("set 0x10, 0x1")
    assert len(src.statements) == 1
    stmt = src.statements[0]
    assert stmt.mnemonic == "set"
    assert stmt.args == (0x10, 0x1)


def test_parse_action_binary_literal():
    src = parse("action grp0.set, 0b1")
    (stmt,) = src.statements
    assert stmt.mnemonic == "action"
    assert stmt.args == (0, ActionMode.SET_LEVELS, 1)


def test_parse_unknown_mnemonic():
    with pytest.raises(AsmSyntaxError) as exc:
        parse("bogus 1, 2")
    assert exc.value.code == "unknown-mnemonic"
    assert exc.value.line == 1


def test_parse_arity_mismatch():
    with pytest.raises(AsmSyntaxError) as exc:
        parse("set 0x10")
    assert exc.value.code == "arity"


def test_parse_bad_literal():
    with pytest.raises(AsmSyntaxError) as exc:
        parse("wait 1x0")
    assert exc.value.code == "bad-literal"


def test_parse_duplicate_label():
    with pytest.raises(AsmSyntaxError) as exc:
        parse("a: wait 1\na: wait 2")
    assert exc.value.code == "duplicate-label"
    assert exc.value.line == 2


def test_parse_comments_and_blank_lines():
    src = parse("# header\n\n  wait 1  # trailing\n")
    assert len(src.statements) == 1


def test_parse_label_on_own_line():
    src = parse("top:\n  wait 1\n  loop 2, top\n")
    assert src.labels == {"top": 0}


def test_parse_dangling_label():
    with pytest.raises(AsmSyntaxError) as exc:
        parse("wait 1\nend:\n")
    assert exc.value.code == "dangling-label"


# --------------------------------------------------------------- assemble --

def test_assemble_threshold_pattern():
    prog = assemble(parse(FIG3_STYLE))
    assert len(prog) == 4
    assert prog[0] == Command.capture(0x0, 0xFFFF)
    assert prog[1] == Command.jump_if(Condition.LTU, 0x40, 3)
    assert prog[2] == Command.write(0x400, 0x1)
    assert prog[3] == Command.action(ActionMode.SET_LEVELS, 0, 0x1)


def test_assemble_nested_loop_rejected():
    src = """\
outer:  wait 1
inner:  wait 2
        loop 3, inner
        loop 3, outer
"""
    with pytest.raises(NestedLoop) as exc:
        assemble_text(src)
    assert exc.value.code == "nested-loop"


def test_assemble_sequential_loops_ok():
    src = """\
a:      wait 1
        loop 3, a
b:      wait 2
        loop 3, b
"""
    prog = assemble_text(src)
    assert len(prog) == 4


def test_assemble_empty_source():
    prog = assemble_text("")
    assert len(prog) == 0


def test_assemble_undefined_label():
    with pytest.raises(UndefinedLabel) as exc:
        assemble_text("jif eq, 1, nowhere")
    assert exc.value.code == "undefined-label"
    assert exc.value.symbol == "nowhere"


def test_assemble_forward_loop_rejected():
    with pytest.raises(TargetOutOfRange) as exc:
        assemble_text("loop 1, fwd\nfwd: wait 1")
    assert exc.value.code == "target-range"


def test_assemble_operand_width():
    with pytest.raises(OperandWidth) as exc:
        assemble_text("set 0x1000, 1")  # offset beyond 12 bits
    assert exc.value.code == "operand-width"
    with pytest.raises(OperandWidth):
        assemble_text("write 0, 0x100000000")  # operand beyond 32 bits
    with pytest.raises(OperandWidth):
        assemble_text("action grp256.set, 1")  # group beyond 8 bits


def test_action_group_with_leading_zero_is_a_bad_literal():
    with pytest.raises(AsmSyntaxError) as exc:
        parse("wait 1\naction grp010.set, 1")
    assert (exc.value.code, exc.value.line) == ("bad-literal", 2)


def test_assemble_wait_encodes_zero_field():
    prog = assemble_text("wait 100")
    assert prog[0] == Command(OpCode.WAIT, 0, 100)


# ----------------------------------------------------------- capacity -----

def test_capacity_boundary():
    four = Program(tuple(Command.wait(i) for i in range(4)))
    validate_against_capacity(four, 4)  # exact fit is fine


def test_capacity_exceeded():
    five = Program(tuple(Command.wait(i) for i in range(5)))
    with pytest.raises(CapacityExceeded) as exc:
        validate_against_capacity(five, 4)
    assert (exc.value.length, exc.value.scm_lines) == (5, 4)
    assert exc.value.code == "capacity"


def test_capacity_eight_line_configuration():
    eight = Program(tuple(Command.wait(i) for i in range(8)))
    validate_against_capacity(eight, 8)


def test_capacity_checks_targets():
    prog = Program((Command.wait(0), Command.jump_if(Condition.EQ, 0, 1)))
    validate_against_capacity(prog, 4)
    bad = Program((Command.jump_if(Condition.EQ, 0, 6),))
    with pytest.raises(TargetOutOfRange):
        validate_against_capacity(bad, 4)


# -------------------------------------------------------- disassemble -----

def test_disassemble_wait():
    text = disassemble(Program((Command.wait(100),)))
    assert text.strip() == "wait 100"


def test_disassemble_empty():
    assert disassemble(Program(())) == ""


def test_disassemble_labels_jump_targets():
    prog = assemble(parse(FIG3_STYLE))
    text = disassemble(prog)
    assert "L3:" in text
    assert "jif ltu, 0x40, L3" in text


def test_roundtrip_randomized_programs():
    rng = random.Random(0x515)
    for _ in range(300):
        prog = random_program(rng)
        assert assemble(parse(disassemble(prog))) == prog


def test_roundtrip_is_fixed_point():
    prog = assemble(parse(FIG3_STYLE))
    text1 = disassemble(prog)
    prog2 = assemble(parse(text1))
    assert prog2 == prog
    assert disassemble(prog2) == text1


# -------------------------------------------------------- diagnostics -----

# One single-error program per diagnostic code, the error on line 2 or
# later (capacity has no line): the class, code and line reported.
DIAGNOSTICS = [
    ("wait 1\nbogus 1", AsmSyntaxError, "unknown-mnemonic", 2),
    ("wait 1\nset 0x10", AsmSyntaxError, "arity", 2),
    ("wait 1\nwait 1,", AsmSyntaxError, "arity", 2),
    ("wait 1\nwait 1x0", AsmSyntaxError, "bad-literal", 2),
    ("top: wait 1\njif zz, 1, top", AsmSyntaxError, "bad-condition", 2),
    ("wait 1\nloop 1, 9top", AsmSyntaxError, "bad-label", 2),
    ("wait 1\naction grpx.set, 1", AsmSyntaxError, "bad-argument", 2),
    ("a: wait 1\nwait 2\na: wait 3", AsmSyntaxError, "duplicate-label", 3),
    ("wait 1\nend:", AsmSyntaxError, "dangling-label", 2),
    ("wait 1\njif eq, 1, nowhere", UndefinedLabel, "undefined-label", 2),
    ("wait 1\nset 0x1000, 1", OperandWidth, "operand-width", 2),
    ("wait 1\nwrite 0, 0x100000000", OperandWidth, "operand-width", 2),
    ("wait 1\nwait -1", OperandWidth, "operand-width", 2),
    ("top: wait 1\njif eq, 0x100000000, top", OperandWidth, "operand-width", 2),
    ("top: wait 1\nloop 0x100000000, top", OperandWidth, "operand-width", 2),
    ("wait 1\naction grp256.set, 1", OperandWidth, "operand-width", 2),
    ("wait 1\nloop 1, fwd\nfwd: wait 1", TargetOutOfRange, "target-range", 2),
    ("outer: wait 1\ninner: wait 2\n loop 3, inner\n loop 3, outer",
     NestedLoop, "nested-loop", 3),
    ("top: loop 1, top\nloop 1, top", NestedLoop, "nested-loop", 1),
    ("wait 1\n" * 257, CapacityExceeded, "capacity", 0),
]


@pytest.mark.parametrize("source, cls, code, line", DIAGNOSTICS)
def test_diagnostics_table(source, cls, code, line):
    with pytest.raises(asm.AsmError) as exc:
        assemble_text(source)
    assert (type(exc.value), exc.value.code, exc.value.line) == (cls, code, line)
