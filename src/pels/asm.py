"""Microcode assembly language: parser, assembler, disassembler.

Grammar (one statement per line, `#` starts a comment):

    line     := [label ':'] [statement]
    statement:= 'write'   offset ',' value
              | 'set'     offset ',' mask
              | 'clear'   offset ',' mask
              | 'toggle'  offset ',' mask
              | 'capture' offset ',' mask
              | 'jif'     cond ',' operand ',' label
              | 'loop'    count ',' label
              | 'wait'    cycles
              | 'action'  'grp' group '.' ('set'|'toggle') ',' bits
    cond     := 'eq' | 'ne' | 'ltu' | 'geu'
    literal  := decimal | 0x hex | 0b binary

Offsets are register word offsets from the link base address. Jump and
loop targets are labels; loop targets must not be forward references
(hardware loops only run backward). Loop bodies must not contain another
loop.

Diagnostics are AsmError subclasses with a stable `code` and a 1-based
source line (0 when no location applies). Each rule has one owner:

    parse (grammar): AsmSyntaxError with code unknown-mnemonic, arity,
        bad-literal, bad-condition, bad-label, bad-argument,
        duplicate-label or dangling-label
    assemble (label resolution): UndefinedLabel, undefined-label
    isa.Command (field and operand widths): OperandWidth, operand-width
    validate_program (structure): CapacityExceeded, capacity (over 256
        commands); TargetOutOfRange, target-range (past the end, or a
        forward loop); NestedLoop, nested-loop
    validate_against_capacity (fit in scm_lines): capacity, target-range

`assemble` reports the errors of `Command` and `validate_program` at the
line of the offending statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .isa import REGISTER_OPCODES, ActionMode, Command, Condition, OpCode

# Target line indices are encoded in 8 bits, bounding any program.
MAX_PROGRAM_LENGTH = 256

CONDITION_NAMES = {cond.name.lower(): cond for cond in Condition}

# Commands whose field holds a target line index.
_TARGET_OPCODES = (OpCode.JUMP_IF, OpCode.LOOP)

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_GRP_RE = re.compile(r"^grp([0-9]+|0x[0-9A-Fa-f]+)\.(set|toggle)$")


class AsmError(Exception):
    """Base class for assembly diagnostics: a stable `code`, a 1-based
    source `line` (0 when none applies) and, from `validate_program`, the
    offending command's `index`, which `assemble` turns into the line."""

    code = "asm-error"
    index: int | None = None

    def __init__(self, message: str, line: int = 0):
        self.message = message
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}" if self.line else self.message


class AsmSyntaxError(AsmError):
    """Malformed source text: bad mnemonic, arity, literal, or label."""

    def __init__(self, code: str, message: str, line: int):
        self.code = code
        super().__init__(message, line)


class UndefinedLabel(AsmError):
    code = "undefined-label"

    def __init__(self, symbol: str, line: int):
        self.symbol = symbol
        super().__init__(f"undefined label '{symbol}'", line)


class TargetOutOfRange(AsmError):
    code = "target-range"


class NestedLoop(AsmError):
    code = "nested-loop"

    def __init__(self, line: int):
        super().__init__("loop body contains another loop", line)


class OperandWidth(AsmError):
    code = "operand-width"


class CapacityExceeded(AsmError):
    code = "capacity"

    def __init__(self, length: int, scm_lines: int):
        self.length = length
        self.scm_lines = scm_lines
        super().__init__(f"program of {length} commands exceeds {scm_lines} SCM lines")


@dataclass
class Statement:
    """One parsed source statement with its location."""

    mnemonic: str
    args: tuple
    label: str | None
    line: int


@dataclass
class SourceProgram:
    """Parse result: statements in order plus the label table."""

    statements: list[Statement]
    labels: dict[str, int]  # label -> statement index


@dataclass(frozen=True)
class Program:
    """A validated command sequence; entry point is index 0."""

    commands: tuple[Command, ...]

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    def __getitem__(self, i):
        return self.commands[i]


# -- argument parsers: one source argument -> a tuple of values -----------

def _literal(token: str, line: int) -> tuple:
    try:
        return (int(token, 0),)
    except ValueError:
        raise AsmSyntaxError("bad-literal", f"malformed literal '{token}'", line)


def _condition(token: str, line: int) -> tuple:
    if token.lower() not in CONDITION_NAMES:
        raise AsmSyntaxError("bad-condition", f"unknown condition '{token}'", line)
    return (CONDITION_NAMES[token.lower()],)


def _label(token: str, line: int) -> tuple:
    if not _IDENT_RE.match(token):
        raise AsmSyntaxError("bad-label", f"malformed label '{token}'", line)
    return (token,)


def _group(token: str, line: int) -> tuple:
    """`grp<N>.set` or `grp<N>.toggle` -> (group, mode)."""
    m = _GRP_RE.match(token.lower())
    if not m:
        raise AsmSyntaxError(
            "bad-argument", f"expected grp<N>.set or grp<N>.toggle, got '{token}'", line)
    mode = ActionMode.SET_LEVELS if m.group(2) == "set" else ActionMode.TOGGLE
    return _literal(m.group(1), line) + (mode,)


# mnemonic -> (argument parsers, Command builder). The parsed values are
# a Statement's args; labels stay names until `assemble` replaces them by
# their line indices and passes the args to the builder.
_REGISTER_ARGS = (_literal, _literal)
_SYNTAX = {
    "write": (_REGISTER_ARGS, Command.write),
    "set": (_REGISTER_ARGS, Command.set),
    "clear": (_REGISTER_ARGS, Command.clear),
    "toggle": (_REGISTER_ARGS, Command.toggle),
    "capture": (_REGISTER_ARGS, Command.capture),
    "jif": ((_condition, _literal, _label), Command.jump_if),
    "loop": ((_literal, _label), Command.loop),
    "wait": ((_literal,), Command.wait),
    "action": ((_group, _literal),
               lambda group, mode, bits: Command.action(mode, group, bits)),
}


def parse(text: str) -> SourceProgram:
    """Tokenize and parse source text, checking grammar and label uniqueness."""
    statements: list[Statement] = []
    labels: dict[str, int] = {}
    pending: list[tuple[str, int]] = []  # labels waiting for a statement

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue

        label = None
        m = _LABEL_RE.match(stripped)
        if m:
            label = m.group(1)
            if label in labels or any(label == p for p, _ in pending):
                raise AsmSyntaxError(
                    "duplicate-label", f"duplicate label '{label}'", lineno
                )
            stripped = stripped[m.end():].strip()

        if not stripped:
            # Label on its own line attaches to the next statement.
            pending.append((label, lineno))
            continue

        parts = stripped.split(None, 1)
        mnemonic = parts[0].lower()
        argtext = parts[1] if len(parts) > 1 else ""
        args = tuple(a.strip() for a in argtext.split(",")) if argtext else ()
        if any(a == "" for a in args):
            raise AsmSyntaxError("arity", "empty argument", lineno)
        if mnemonic not in _SYNTAX:
            raise AsmSyntaxError(
                "unknown-mnemonic", f"unknown mnemonic '{mnemonic}'", lineno)
        parsers, _ = _SYNTAX[mnemonic]
        n = len(parsers)
        if len(args) != n:
            raise AsmSyntaxError(
                "arity",
                f"'{mnemonic}' takes {n} argument{'s' if n != 1 else ''}, got {len(args)}",
                lineno,
            )
        values = ()
        for parse_arg, arg in zip(parsers, args):
            values += parse_arg(arg, lineno)

        for sym, _ in pending:
            labels[sym] = len(statements)
        pending.clear()
        if label is not None:
            labels[label] = len(statements)
        statements.append(Statement(mnemonic, values, label, lineno))

    if pending:
        sym, ln = pending[0]
        raise AsmSyntaxError(
            "dangling-label", f"label '{sym}' points past the end of the program", ln
        )
    return SourceProgram(statements, labels)


def assemble(src: SourceProgram) -> Program:
    """Resolve labels, build each command and validate the program.

    A value `Command` rejects is an OperandWidth error at its statement's
    line; a `validate_program` error is reported at the line of the
    command it names.
    """
    commands: list[Command] = []
    for stmt in src.statements:
        try:  # labels are the only str args; every other value is a number
            args = [src.labels[a] if isinstance(a, str) else a for a in stmt.args]
        except KeyError as e:
            raise UndefinedLabel(e.args[0], stmt.line) from None
        _, build = _SYNTAX[stmt.mnemonic]
        try:
            commands.append(build(*args))
        except ValueError as e:
            raise OperandWidth(str(e), stmt.line) from None

    prog = Program(tuple(commands))
    try:
        validate_program(prog)
    except AsmError as e:
        if e.index is not None:
            e.line = src.statements[e.index].line
        raise
    return prog


def assemble_text(text: str) -> Program:
    return assemble(parse(text))


def validate_against_capacity(prog: Program, scm_lines: int) -> None:
    """Check that a program fits an SCM with the given number of lines."""
    if scm_lines <= 0:
        raise ValueError(f"scm_lines must be positive, got {scm_lines}")
    if len(prog) > scm_lines:
        raise CapacityExceeded(len(prog), scm_lines)
    for i, cmd in enumerate(prog):
        if cmd.opcode in _TARGET_OPCODES and cmd.target >= scm_lines:
            raise TargetOutOfRange(f"command {i} targets line {cmd.target} beyond "
                                   f"{scm_lines} SCM lines", 0)


def _at(index: int, err: AsmError) -> AsmError:
    err.index = index
    return err


def validate_program(prog: Program) -> None:
    """Structural checks: length, targets, loop direction and nesting.

    An error about one command carries its position as `index`.
    """
    if len(prog) > MAX_PROGRAM_LENGTH:
        raise CapacityExceeded(len(prog), MAX_PROGRAM_LENGTH)
    loops = []
    for i, cmd in enumerate(prog):
        if cmd.opcode in _TARGET_OPCODES and cmd.target >= len(prog):
            raise _at(i, TargetOutOfRange(
                f"command {i} targets line {cmd.target} past the program end", 0))
        if cmd.opcode is OpCode.LOOP:
            if cmd.target > i:
                raise _at(i, TargetOutOfRange(
                    f"loop at {i} targets forward line {cmd.target}", 0))
            loops.append((i, cmd.target))
    # A loop at index i with target t owns body [t, i]; no other loop
    # command may sit inside that region.
    for i, t in loops:
        for j, _ in loops:
            if j != i and t <= j <= i:
                raise _at(j, NestedLoop(0))


def disassemble(prog: Program) -> str:
    """Render a program as source text that reassembles to it exactly.

    Jump and loop targets get synthesized labels L<index>.
    """
    targets = sorted({c.target for c in prog if c.opcode in _TARGET_OPCODES})
    label_for = {t: f"L{t}" for t in targets}

    lines = []
    for i, cmd in enumerate(prog):
        op = cmd.opcode
        if op in REGISTER_OPCODES:
            body = f"{op.name.lower()} 0x{cmd.field:x}, 0x{cmd.operand:x}"
        elif op is OpCode.JUMP_IF:
            body = (f"jif {cmd.condition.name.lower()}, 0x{cmd.operand:x}, "
                    f"{label_for[cmd.target]}")
        elif op is OpCode.LOOP:
            body = f"loop {cmd.operand}, {label_for[cmd.target]}"
        elif op is OpCode.WAIT:
            body = f"wait {cmd.operand}"
        else:
            mode = "set" if cmd.action_mode is ActionMode.SET_LEVELS else "toggle"
            body = f"action grp{cmd.action_group}.{mode}, 0x{cmd.operand:x}"

        prefix = f"{label_for[i]}:" if i in label_for else ""
        lines.append(f"{prefix:<8}{body}")
    return "\n".join(lines) + ("\n" if lines else "")
