"""Command line front ends.

    pelsc build <in.pels> -o <out.bin> [--scm-lines N]   assemble microcode
    pelsc dump <in.bin>                                  disassemble an image

    pels run <scenario.json> [--trace out.jsonl] [--report out.json]
             [--check SPEC] [--trace-level off|grants|full]
    pels compare <pels_report.json> <baseline_report.json> [-o out.json]
    pels sweep --links 1..8 --scm-lines 4,6,8 <scenario.json> [--report out.json]

Exit codes: 0 success, 1 configuration error, 2 simulation error
recorded in the report, 3 latency check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path

from . import asm, harness, isa

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIM_ERROR = 2
EXIT_CHECK_FAILED = 3


def _fail(message: str, code: int = EXIT_CONFIG) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------- pelsc --

def pelsc_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pelsc", description="microcode assembler and disassembler")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble a .pels source file")
    p_build.add_argument("source", type=Path)
    p_build.add_argument("-o", "--output", type=Path, required=True)
    p_build.add_argument("--scm-lines", type=int, default=None,
                         help="validate the program against this SCM capacity")

    p_dump = sub.add_parser("dump", help="disassemble a binary image")
    p_dump.add_argument("image", type=Path)

    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            program = asm.assemble_text(args.source.read_text())
            if args.scm_lines is not None:
                asm.validate_against_capacity(program, args.scm_lines)
            args.output.write_bytes(isa.pack_image(list(program)))
            print(f"{args.source}: {len(program)} commands -> {args.output}")
        else:
            commands = isa.unpack_image(args.image.read_bytes())
            sys.stdout.write(asm.disassemble(asm.Program(tuple(commands))))
    # ValueError: --scm-lines below 1, source that is not UTF-8, bad image.
    except (asm.AsmError, OSError, ValueError) as e:
        return _fail(str(e))
    return EXIT_OK


# ----------------------------------------------------------------- pels --

def _parse_check(spec: str) -> dict:
    """--check forms: '7' (all links) or '0:2,1:5' (per link)."""
    checks = {}
    for part in spec.split(","):
        if ":" in part:
            link, cycles = part.split(":", 1)
            checks[int(link, 0)] = int(cycles, 0)
        else:
            checks[None] = int(part, 0)
    return checks


def _apply_check(report: harness.SimReport, checks: dict) -> list[str]:
    failures = []
    for entry in report.per_link:
        expected = checks.get(entry["link"], checks.get(None))
        if expected is None:
            continue
        samples = entry["latency"]["samples"]
        if not samples:
            failures.append(f"link {entry['link']}: no completed triggers")
        for s in samples:
            if s != expected:
                failures.append(
                    f"link {entry['link']}: latency {s} != expected {expected}")
                break
    return failures


def _open(stack: ExitStack, flag: str, path: Path | None, mode: str = "w"):
    """Open an output file (None without a path) before any work, so an
    unwritable path fails in no time; ConfigError names flag and path."""
    try:
        return path and stack.enter_context(open(path, mode))
    except OSError as e:
        raise harness.ConfigError(f"{flag} {path}",
                                  f"cannot write: {e.strerror or e}") from None


def _cmd_run(args) -> int:
    try:
        checks = _parse_check(args.check) if args.check else None
    except ValueError as e:
        return _fail(f"--check {args.check!r}: {e}")
    with ExitStack() as outputs:
        try:
            sim = harness.Simulation(harness.load_scenario(args.scenario),
                                     args.trace_level)
            trace = _open(outputs, "--trace", args.trace)
            report_file = _open(outputs, "--report", args.report)
        except harness.ConfigError as e:
            return _fail(str(e))
        report = sim.run()
        if trace:
            harness.emit_trace(report, trace)
        if report_file:
            report_file.write(report.to_json() + "\n")

    summary = {
        "cycles": report.cycles,
        "end_reason": report.end_reason,
        "per_link": [
            {"link": e["link"], "latency_min": e["latency"]["min"],
             "latency_max": e["latency"]["max"],
             "accepted": e["triggers"]["accepted"],
             "dropped": e["triggers"]["dropped"],
             "error": e["error"]}
            for e in report.per_link
        ],
        "errors": report.errors,
    }
    if report.baseline:
        summary["baseline_latency"] = report.baseline["latency"]["max"]
    print(json.dumps(summary, indent=2))

    if checks:
        failures = _apply_check(report, checks)
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    if report.errors:
        return EXIT_SIM_ERROR
    return EXIT_OK


def _read_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    if not isinstance(report, dict):
        raise TypeError(f"{path} does not hold a JSON object")
    return report


def _cmd_compare(args) -> int:
    try:
        reports = (_read_report(args.pels_report),
                   _read_report(args.baseline_report))
    except (OSError, ValueError, TypeError) as e:
        return _fail(f"cannot read reports: {e}")
    try:
        result = harness.compare(*reports, pels_mhz=args.pels_mhz,
                                 baseline_mhz=args.baseline_mhz)
    except ValueError as e:  # a clock frequency, led by its argument's name
        name, detail = str(e).split(": ", 1)
        return _fail(f"--{name.replace('_', '-')}: {detail}")
    except (KeyError, TypeError) as e:
        return _fail(f"cannot read reports: {e}")
    except harness.MismatchedStimulus as e:
        return _fail(str(e))
    text = json.dumps(result, indent=2)
    # Written after the (cheap) comparison: `-o` may name an input report,
    # and a failed comparison leaves it as it was.
    if args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as e:
            return _fail(f"-o {args.output}: cannot write: {e.strerror or e}")
    print(text)
    return EXIT_OK


def _parse_int_list(flag: str, spec: str, hi: int) -> list[int]:
    """Accept '4,6,8' and '1..8' forms of values within 1..hi; a range is
    checked by its ends before it is expanded. ConfigError names the flag."""
    ends = spec.split("..", 1)
    try:
        values = [int(v) for v in (ends if len(ends) == 2 else spec.split(","))]
    except ValueError as e:
        raise harness.ConfigError(flag, str(e)) from None
    bad = [v for v in values if not 1 <= v <= hi]
    if bad or len(ends) == 2 and values[0] > values[1]:
        raise harness.ConfigError(flag, f"{bad[0]} is outside 1..{hi}" if bad
                                  else f"empty range {spec!r}")
    return list(range(values[0], values[1] + 1)) if len(ends) == 2 else values


def _cmd_sweep(args) -> int:
    with ExitStack() as outputs:
        try:
            links = _parse_int_list("--links", args.links, harness.MAX_LINKS)
            scm_lines = _parse_int_list("--scm-lines", args.scm_lines,
                                        asm.MAX_PROGRAM_LENGTH)
            base = harness.load_scenario(args.scenario)
            # Append mode checks the path without emptying an existing
            # report, which is replaced only once the sweep has run.
            out = _open(outputs, "--report", args.report, "a")
            results = harness.sweep(base, links, scm_lines)
        except harness.ConfigError as e:
            return _fail(str(e))
        if out:
            out.truncate(0)
            out.write(json.dumps(results, indent=2) + "\n")
    print(f"{'links':>5} {'scm':>4} {'ok':>3} {'cycles':>7} "
          f"{'accepted':>8} {'dropped':>7}")
    for r in results:
        print(f"{r['links']:>5} {r['scm_lines']:>4} "
              f"{'yes' if r.get('ok') else 'NO':>3} {r.get('cycles', '-'):>7} "
              f"{r.get('accepted', '-'):>8} {r.get('dropped', '-'):>7}")
    if not all(r.get("ok") for r in results):
        return EXIT_SIM_ERROR
    return EXIT_OK


def pels_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pels", description="event-linking system simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--trace", type=Path, help="write a JSONL trace")
    p_run.add_argument("--report", type=Path, help="write the full report JSON")
    p_run.add_argument("--trace-level", choices=harness.TRACE_LEVELS, default="full")
    p_run.add_argument("--check", help="assert latencies: '7' or '0:2,1:5'")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two run reports")
    p_cmp.add_argument("pels_report", type=Path)
    p_cmp.add_argument("baseline_report", type=Path)
    p_cmp.add_argument("-o", "--output", type=Path)
    p_cmp.add_argument("--pels-mhz", type=float, default=None,
                       help="annotate cycle counts with wall-clock latency")
    p_cmp.add_argument("--baseline-mhz", type=float, default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run a links x SCM-lines grid")
    p_sweep.add_argument("scenario", type=Path)
    p_sweep.add_argument("--links", default="1..8")
    p_sweep.add_argument("--scm-lines", default="4,6,8")
    p_sweep.add_argument("--report", type=Path)
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pels_main())
