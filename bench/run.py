"""pels-sim benchmark: host throughput of the cycle-accurate kernel.

Run from the repository root:

    python3 bench/run.py --workload bus_contention --seed 1 --seconds 25 --trace 0

`--trace 0` times the untraced public API and prints the end-to-end
metrics; `--trace 1` runs the same work under span wrappers and prints
the per-layer metrics. `--workload all` runs every workload in turn,
each in its own process so peak RSS stays attributable to one workload.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bus_contention", "timer_sparse", "sensor_threshold", "sweep_grid")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from measure import Runner

    workload = workloads.GENERATORS[args.workload](args.seed)
    print(f"# workload={workload.name} seed={workload.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# python={platform.python_version()} commit={commit()} "
          f"nproc={os.cpu_count()} load=closed-loop, one simulation at a time, "
          "1 process, 1 thread")

    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
        runner = Runner(workload, Path(tmp))
        anchor_cycles, anchor_notes = runner.anchors(ROOT / "scenarios")
        ref = runner.reference_pass()
        print(f"# inputs: {len(workload.scenarios)} scenario(s), "
              f"{sum(r['cycles'] for r in runner.reference)} sim cycles per pass; "
              f"report digest {ref['report_digest']}; "
              f"full trace digest {ref['trace_digest']}")
        if args.trace:
            layer = runner.traced(args.seconds)
        else:
            e2e = runner.timed(args.seconds)
    correct = runner.failed == 0 and anchor_cycles == 0
    fail_ratio = runner.failed / runner.attempted

    if args.trace:
        units = metric_units("per_layer")
        print("# per-layer metrics of the traced run (span wrappers on, trace level "
              "off; trace_records/bytes and emit_trace_s at level full; *_s = "
              "self time in host s, median over traced passes)")
        for name, unit in units.items():
            print(f"{name:32s} {layer[name]:.6g} {unit}")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in units.items()}
    else:
        scale = (f"median of {e2e['passes']} passes, rescaled to the reference host "
                 f"speed; raw host median {e2e['raw_cycles_per_s']:.1f} at host "
                 f"slowdown {e2e['slowdown']:.3f}")
        print(f"cycles_per_s        {e2e['cycles_per_s']:.1f} sim cycles/host s "
              f"(trace level off; {scale})")
        print(f"traced_cycles_per_s {e2e['traced_cycles_per_s']:.1f} sim cycles/host s "
              f"(trace level full, run + emit_trace to JSONL; median of "
              f"{e2e['passes']} passes, rescaled)")
        print(f"setup_s             {e2e['setup_s']:.6f} host s (load_scenario + "
              f"Simulation(); median of {e2e['setup_samples']}, rescaled)")
        print(f"peak_rss_mb         {ref['peak_rss_mb']:.2f} MiB (trace level full; "
              "growth of peak RSS over the cold pass)")
        metrics = {name: {"value": (ref if name == "peak_rss_mb" else e2e)[name],
                          "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    print(f"fail_ratio          {fail_ratio:.6g} failed/attempted simulations "
          f"({runner.failed}/{runner.attempted})")
    print(f"anchor_error_cycles {anchor_cycles} sim cycles "
          f"(measured/anchor: {', '.join(anchor_notes)})")
    print(result_line(correct, runner.attempted, runner.failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in a child process; the summary prefixes metric names."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/pels/__init__.py", "scenarios") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a pels-sim checkout, missing {', '.join(missing)} "
              f"under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
