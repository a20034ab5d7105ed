"""The mutation catalogue: small faults planted in the simulator, each run
against the test suite, as a standing measure of what the tests can see.

    python tests/mutation.py            # every entry
    python tests/mutation.py NAME ...   # the named entries

Each entry names a file under `src/pels`, an exact text that occurs in it
once, the text that replaces it, and the rule the change breaks. For
each entry the script copies the repository into a fresh temporary
directory (without `.git`, caches or the Hypothesis database), plants
the mutant there and runs `python -m pytest -x -q tests` with
`PYTHONPATH` set to the copy's `src`. It runs one subprocess at a time.
The unmutated copy runs first, since a suite that already fails kills
every mutant.

It prints the test that killed each mutant, or "survived". An entry may
be a known survivor only if it names the open ROADMAP item whose tests
will kill it. The exit status is 1 when an entry that must be killed
survives, and 2 when the unmutated suite fails or an entry's text does
not occur exactly once.

Pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # per suite run; the whole suite takes about 35 s on 2 vCPU
_IGNORE = shutil.ignore_patterns(".git", ".hypothesis", "__pycache__",
                                 ".pytest_cache", ".bench_tmp*", "*.egg-info")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/pels
    old: str  # occurs exactly once in the file
    new: str
    rule: str
    survivor: Optional[str] = None  # the ROADMAP item that will kill it


CATALOGUE = (
    # -- due cycles (periph.py) --
    Mutant("timer-write-keeps-due", "periph.py",
           "            self.period = value\n        self.due = self._due(t)\n",
           "            self.period = value\n",
           "a CTRL or PERIOD write re-times the timer's next pulse"),
    Mutant("sensor-latch-keeps-due", "periph.py",
           "            self._done_pulse = 1 << self.event_line\n"
           "            self.due = t + 1\n",
           "            self._done_pulse = 1 << self.event_line\n",
           "a conversion's done pulse is due in the next cycle"),
    Mutant("timer-due-before-advance", "periph.py",
           "        wrapped = self._advance(t)\n        self.due = self._due(t)\n",
           "        self.due = self._due(t)\n        wrapped = self._advance(t)\n",
           "the timer's due cycle follows from its count as of the tick"),
    # -- peripherals --
    Mutant("timer-arms-at-enable", "periph.py",
           "            self._armed = True  # counting starts the following cycle\n"
           "            steps -= 1\n",
           "            self._armed = True  # counting starts the following cycle\n",
           "a timer counts from the cycle after it is enabled"),
    Mutant("sensor-latch-next-cycle", "periph.py",
           "self.sample = self._scheduled_value(t) & 0xFFFF_FFFF",
           "self.sample = self._scheduled_value(t + 1) & 0xFFFF_FFFF",
           "a conversion latches the value scheduled at its own cycle"),
    # -- link FSM (core.py) --
    Mutant("jif-geu-as-gtu", "core.py",
           "_JUMP_CONDITIONS = (eq, ne, lt, ge)",
           "_JUMP_CONDITIONS = (eq, ne, lt, lambda a, b: a > b)",
           "`jif geu` jumps when the capture equals the operand"),
    Mutant("wait-one-long", "core.py",
           "                self.wait_counter = cmd.operand\n",
           "                self.wait_counter = cmd.operand + 1\n",
           "`wait n` holds the link for n cycles"),
    Mutant("fifo-one-deep", "core.py",
           "if len(self.fifo) < self.fifo_depth:",
           "if len(self.fifo) <= self.fifo_depth:",
           "the trigger FIFO holds fifo_depth tokens and drops the newest"),
    Mutant("toggle-as-or", "core.py",
           "OpCode.TOGGLE: xor}", "OpCode.TOGGLE: or_}",
           "`toggle` XORs its mask into the register"),
    Mutant("loop-one-extra-pass", "core.py",
           "self.loop_counter = cmd.operand  # number of additional passes",
           "self.loop_counter = cmd.operand + 1",
           "`loop n` runs its body n more times"),
    Mutant("write-effect-late", "core.py",
           "            self._last_effect = txn.complete_cycle\n",
           "            self._last_effect = txn.complete_cycle + 1\n",
           "a write takes effect in the cycle its transfer completes"),
    Mutant("jif-target-off-by-one", "core.py",
           "execute_jump_if(self.capture_reg, cmd.field >> 8, cmd.operand):\n"
           "                self.pc = cmd.field & 0xFF\n",
           "execute_jump_if(self.capture_reg, cmd.field >> 8, cmd.operand):\n"
           "                self.pc = (cmd.field & 0xFF) + 1\n",
           "a taken `jif` fetches its target line next"),
    Mutant("capture-effect-late", "core.py",
           "self.capture_reg = execute_capture(old, cmd.operand)\n"
           "            self._last_effect = t\n",
           "self.capture_reg = execute_capture(old, cmd.operand)\n"
           "            self._last_effect = t + 1\n",
           "a capture takes effect in the cycle after its read completes",
           survivor="item 2 (static timing oracle)"),
    # -- bus (bus.py) --
    Mutant("grant-wait-one-short", "bus.py",
           "wait = t - txn.issue_cycle", "wait = t - txn.issue_cycle - 1",
           "a grant's wait is grant cycle minus request cycle"),
    Mutant("read-a-cycle-early", "bus.py",
           "txn.result = block.read(offset, t) & 0xFFFF_FFFF",
           "txn.result = block.read(offset, t - 1) & 0xFFFF_FFFF",
           "a read samples its register in the completion cycle",
           survivor="item 3 (independent reference kernel)"),
    # -- clock loop (harness.py) --
    Mutant("jump-ignores-due-blocks", "harness.py",
           "        due = [b.due for b in self._ticking if b.due is not None]\n",
           "        due = []\n",
           "the clock never jumps past a block's due cycle"),
    Mutant("waiting-link-is-idle", "harness.py",
           "                    if link.state is not idle or link.fifo:\n",
           "                    if link.fifo:\n",
           "a link that is not IDLE steps again in the next cycle"),
    Mutant("half-word-base-address", "harness.py",
           "    if address % 4:\n", "    if address % 2:\n",
           "link and peripheral base addresses are word aligned"),
    # -- trace (trace.py) --
    Mutant("word-without-padding", "trace.py",
           "WORD = '\"0x%08x\"'", "WORD = '\"0x%x\"'",
           "a bus address or data word is written as 8 hex digits"),
    # -- assembler (asm.py) --
    Mutant("loop-on-loop-target-not-nested", "asm.py",
           "if j != i and t <= j <= i:", "if j != i and t < j <= i:",
           "a loop command on another loop's target line is nested"),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


def _run_suite(copy: Path) -> tuple[int, str]:
    """Run the suite in `copy`: (exit status, what killed it or '')."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "tests"], cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timeout after {TIMEOUT_S} s"
    found = _FAILED.search(done.stdout)
    return done.returncode, found.group(1) if found else done.stdout[-200:]


def _fresh_copy(base: Path) -> Path:
    copy = Path(tempfile.mkdtemp(dir=base))
    shutil.copytree(ROOT, copy / "repo", ignore=_IGNORE)
    return copy / "repo"


def _plant(root: Path, mutant: Mutant) -> None:
    path = root / "src" / "pels" / mutant.file
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def main(argv: list[str]) -> int:
    chosen = [m for m in CATALOGUE if not argv or m.name in argv]
    if unknown := set(argv) - {m.name for m in CATALOGUE}:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    for mutant in chosen:
        count = (ROOT / "src" / "pels" / mutant.file).read_text().count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: its text occurs {count} times in {mutant.file}")
            return 2
    escaped, killed = [], 0
    with tempfile.TemporaryDirectory(prefix="pels-mutation-") as tmp:
        base = Path(tmp)
        copy = _fresh_copy(base)
        status, detail = _run_suite(copy)
        shutil.rmtree(copy.parent)
        if status != 0:
            print(f"the unmutated suite fails ({detail}); no mutant can be judged")
            return 2
        for mutant in chosen:
            copy = _fresh_copy(base)
            _plant(copy, mutant)
            start = time.perf_counter()
            status, detail = _run_suite(copy)
            shutil.rmtree(copy.parent)
            took = f"{time.perf_counter() - start:.0f} s"
            if status != 0:
                killed += 1
                note = (f"  (listed as a survivor for {mutant.survivor})"
                        if mutant.survivor else "")
                print(f"{mutant.name}: killed by {detail} [{took}]{note}", flush=True)
            elif mutant.survivor:
                print(f"{mutant.name}: survived, known; {mutant.survivor} "
                      f"[{took}]", flush=True)
            else:
                escaped.append(mutant.name)
                print(f"{mutant.name}: SURVIVED; it breaks: {mutant.rule} "
                      f"[{took}]", flush=True)
    print(f"score: {killed} of {len(chosen)} killed; "
          f"{len(escaped)} unexpected survivors")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
