"""Drive one workload through the public API and time it.

Host time is measured with `time.perf_counter` around public calls only:
`load_scenario` + `Simulation(...)` is set-up, `Simulation.run()` (plus
`emit_trace` at level `full`) is the simulation. Simulated time is the
report's `cycles`. The load is closed-loop: one simulation at a time on
one thread.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable

from pels import harness

import gate
import hostspeed
import spans
from workloads import Workload

SETUP_REPS = 5  # set-ups timed per pass; set-up is cheap and noisy


class Runner:
    """Runs one workload's scenarios, checks every report, counts attempts.

    An attempt is one simulation or one `compare()` of a pair; it fails on
    an exception or on any problem the gate finds.
    """

    def __init__(self, workload: Workload, tmp_dir: Path):
        self.workload = workload
        self.trace_path = tmp_dir / "trace.jsonl"
        self.attempted = 0
        self.failed = 0
        self.reference: list[dict] = []
        self.scenarios: list[harness.Scenario] = []
        self.full_trace: dict = {}

    # -- bookkeeping -----------------------------------------------------

    def _attempt(self, fn: Callable[[], list[str]], attempts: int = 1) -> None:
        """Run one checked unit of work; any exception or problem fails it."""
        self.attempted += attempts
        try:
            problems = fn()
        except Exception:  # noqa: BLE001 - the benchmark must keep counting
            problems = ["exception:\n" + traceback.format_exc()]
        if problems:
            self.failed += attempts
            for p in problems:
                print(f"# check failed [{self.workload.name}]: {p}", file=sys.stderr)

    def anchors(self, scenario_dir: Path) -> tuple[int, list[str]]:
        """anchor_error_cycles: sum of |measured - anchor| over the shipped
        anchor scenarios; a miss also fails its attempt."""
        total = 0
        notes = []
        for name, anchor in gate.ANCHORS:
            measured = []

            def one(name=name, anchor=anchor):
                measured.append(gate.anchor_latency(scenario_dir / name))
                if measured[0] != anchor:
                    return [f"{name}: latency {measured[0]} != anchor {anchor}"]
                return []
            self._attempt(one)
            got = measured[0] if measured else None
            # No sample counts as missing the anchor by the whole anchor.
            total += anchor if got is None else abs(got - anchor)
            notes.append(f"{name.removesuffix('.json')} {got}/{anchor}")
        return total, notes

    # -- reference pass ------------------------------------------------------

    def reference_pass(self) -> dict:
        """First (cold) pass at level `full`: reference reports, trace size
        and the growth of peak RSS that this workload alone causes."""
        self.scenarios = [harness.load_scenario(d) for d in self.workload.scenarios]
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        trace_bytes = 0
        trace_records = 0
        trace_digests = []
        for scenario in self.scenarios:
            def one(scenario=scenario):
                nonlocal trace_bytes, trace_records
                rep = harness.Simulation(scenario, "full").run()
                harness.emit_trace(rep, self.trace_path)
                trace_records += len(rep.trace)
                self.reference.append(rep.to_dict())
                return gate.check_report(self.reference[-1], scenario.bus_segments)
            self._attempt(one)
            # Hashed in chunks after the run, so it adds nothing to peak RSS.
            with open(self.trace_path, "rb") as f:
                trace_digests.append(hashlib.file_digest(f, "sha256").hexdigest())
            trace_bytes += self.trace_path.stat().st_size
        rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if len(self.reference) == len(self.scenarios):
            self._compare_pairs(self.reference)
            self._sweep()
        self.full_trace = {
            "peak_rss_mb": (rss_after - rss_before) / 1024,  # ru_maxrss is KiB
            "trace_records": trace_records,
            "trace_bytes": trace_bytes,
            "report_digest": gate.digest(self.reference),
            "trace_digest": gate.digest(trace_digests),
        }
        return self.full_trace

    def _compare_pairs(self, reports: list[dict]) -> None:
        for a, b in self.workload.compare_pairs:
            def one(a=a, b=b):
                problems = gate.check_pair(reports[a], reports[b])
                if not problems:
                    harness.compare(reports[a], reports[b])
                return problems
            self._attempt(one)

    def _sweep(self) -> None:
        sw = self.workload.sweep
        if sw is None:
            return
        self._attempt(lambda: gate.check_sweep(
            harness.sweep(sw["template"], sw["links"], sw["scm_lines"]),
            self.reference), attempts=len(self.reference))

    # -- timed passes ----------------------------------------------------

    def _setup(self, level: str) -> tuple[list, float]:
        t0 = perf_counter()
        sims = [harness.Simulation(harness.load_scenario(d), level)
                for d in self.workload.scenarios]
        return sims, perf_counter() - t0

    def off_pass(self) -> tuple[float, float, int]:
        """Set up and run every scenario at level `off`.

        Returns (set-up seconds, run seconds, simulated cycles)."""
        sims, setup_s = self._setup("off")
        run_s = 0.0
        cycles = 0
        reports = []
        for i, sim in enumerate(sims):
            t0 = perf_counter()
            rep = sim.run()
            run_s += perf_counter() - t0
            cycles += rep.cycles
            reports.append(rep.to_dict())
            self._attempt(lambda i=i: gate.check_same(
                self.reference[i], reports[i], "report at level off"))
        self._compare_pairs(reports)
        return setup_s, run_s, cycles

    def full_pass(self) -> tuple[float, int]:
        """Run every scenario at level `full` and write its JSONL trace.

        Returns (run + emit_trace seconds, simulated cycles)."""
        elapsed = 0.0
        cycles = 0
        for i, d in enumerate(self.workload.scenarios):
            sim = harness.Simulation(harness.load_scenario(d), "full")
            t0 = perf_counter()
            rep = sim.run()
            harness.emit_trace(rep, self.trace_path)
            elapsed += perf_counter() - t0
            cycles += rep.cycles
            self._attempt(lambda i=i, r=rep.to_dict(): gate.check_same(
                self.reference[i], r, "report at level full"))
            del sim, rep  # keep one full trace alive at a time
        return elapsed, cycles

    def timed(self, seconds: float) -> dict:
        """Alternate set-up, `off` and `full` passes for `seconds`; report
        the median of each metric over the passes, each pass rescaled to
        the reference host speed by the probes around it (hostspeed.py)."""
        setup, off, full = [], [], []
        raw_off, slowdowns = [], []
        track = hostspeed.SpeedTrack()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(off) < 3:
            gc.collect()
            batch = [self._setup("off")[1] for _ in range(SETUP_REPS - 1)]
            slowdown = track.factor()
            setup += [s / slowdown for s in batch]
            setup_s, run_s, cycles = self.off_pass()
            slowdown = track.factor()
            setup.append(setup_s / slowdown)
            raw_off.append(cycles / run_s)
            off.append(cycles / run_s * slowdown)
            slowdowns.append(slowdown)
            gc.collect()
            elapsed, cycles = self.full_pass()
            full.append(cycles / elapsed * track.factor())
        return {
            "cycles_per_s": statistics.median(off),
            "traced_cycles_per_s": statistics.median(full),
            "setup_s": statistics.median(setup),
            "raw_cycles_per_s": statistics.median(raw_off),
            "slowdown": statistics.median(slowdowns),
            "passes": len(off),
            "setup_samples": len(setup),
        }

    # -- traced run ------------------------------------------------------

    def traced(self, seconds: float) -> dict:
        """Per-layer metrics: the `off` pass under span wrappers, with an
        untraced `off` pass before each for the tracing overhead; medians
        over passes. Trace size and emit_trace time come from a `full` pass."""
        samples: list[dict] = []
        overhead = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or not samples:
            gc.collect()
            t0 = perf_counter()
            self.off_pass()
            untraced = perf_counter() - t0
            gc.collect()
            recorder = spans.SpanRecorder()
            t0 = perf_counter()
            with spans.instrumented(recorder):
                self.off_pass()
            overhead.append((perf_counter() - t0) / untraced)
            samples.append(self._layer_metrics(recorder))
            del recorder
        if self.workload.sweep is not None:
            recorder = spans.SpanRecorder()
            with spans.instrumented(recorder):
                self._sweep()
            sweep_s = recorder.totals()["harness.sweep"][1]
        else:
            sweep_s = 0.0
        recorder = spans.SpanRecorder()
        with spans.instrumented(recorder):
            self.full_pass()
        emit_s = recorder.totals().get("harness.emit_trace", (0, 0.0))[1]
        metrics = {name: statistics.median(s[name] for s in samples)
                   for name in samples[0]}
        metrics.update(self._sim_metrics())
        metrics["isa.decodes_per_command"] = (
            metrics["isa.decode_calls"] / metrics["core.commands_executed"]
            if metrics["core.commands_executed"] else 0.0)
        metrics["harness.sweep_s"] = sweep_s
        metrics["harness.trace_records"] = self.full_trace["trace_records"]
        metrics["harness.trace_bytes"] = self.full_trace["trace_bytes"]
        metrics["harness.emit_trace_s"] = emit_s
        metrics["bench.tracing_overhead"] = statistics.median(overhead)
        return metrics

    @staticmethod
    def _layer_metrics(recorder: spans.SpanRecorder) -> dict:
        totals = recorder.totals()

        def calls(name):
            return totals.get(name, (0, 0.0))[0]

        def self_s(name):
            return totals.get(name, (0, 0.0))[1]

        def ratio(numer, denom):
            return numer / denom if denom else 0.0

        return {
            "core.link_step_calls": calls("core.link_step"),
            "core.link_step_s": self_s("core.link_step"),
            "core.link_idle_step_ratio": ratio(recorder.hits.get("core.link_step", 0),
                                               calls("core.link_step")),
            "core.fabric_settle_s": self_s("core.fabric_settle"),
            "core.rising_trigger_calls": calls("core.rising_trigger"),
            "core.rising_trigger_s": self_s("core.rising_trigger"),
            "core.trigger_hit_ratio": ratio(recorder.hits.get("core.rising_trigger", 0),
                                            calls("core.rising_trigger")),
            "periph.tick_calls": calls("periph.tick"),
            "periph.tick_s": self_s("periph.tick"),
            "periph.baseline_step_calls": calls("periph.baseline_step"),
            "periph.baseline_step_s": self_s("periph.baseline_step"),
            "harness.loop_self_s": self_s("harness.run"),
            "harness.trace_emit_calls": calls("harness.trace_emit"),
            "harness.trace_emit_s": self_s("harness.trace_emit"),
            "harness.load_s": self_s("harness.load_scenario"),
            "harness.init_s": self_s("harness.init"),
            "harness.compare_s": self_s("harness.compare"),
            "asm.assemble_calls": calls("asm.assemble_text"),
            "asm.assemble_s": self_s("asm.assemble_text"),
            "isa.decode_calls": calls("isa.decode"),
            "isa.decode_s": self_s("isa.decode"),
            "bus.step_s": self_s("bus.step"),
            "bus.post_calls": calls("bus.post"),
            "bus.post_s": self_s("bus.post"),
        }

    def _sim_metrics(self) -> dict:
        """Simulated counts from the reference reports; they repeat exactly."""
        reports = self.reference
        links = [e for r in reports for e in r["per_link"]]
        latencies = sorted(s for e in links for s in e["latency"]["samples"])
        commands = sum(e["commands_executed"] for e in links)
        busy = sum(r["bus"]["grants"] * sc.transfer_cycles
                   for r, sc in zip(reports, self.scenarios))
        # The baseline twin never uses the bus; only scenarios with links count.
        bus_cycles = sum(r["cycles"] * sc.bus_segments
                         for r, sc in zip(reports, self.scenarios) if sc.links)
        waits = [(int(w), n) for r in reports for m in r["bus"]["per_master"].values()
                 for w, n in m["grant_waits"].items()]
        granted = sum(n for _, n in waits)
        return {
            "bench.sim_cycles": sum(r["cycles"] for r in reports),
            "core.commands_executed": commands,
            "core.triggers_accepted": sum(e["triggers"]["accepted"] for e in links),
            "core.triggers_dropped": sum(e["triggers"]["dropped"] for e in links),
            "core.latency_p50_cycles": statistics.median_low(latencies) if latencies else 0,
            "core.latency_max_cycles": latencies[-1] if latencies else 0,
            "bus.grants": sum(r["bus"]["grants"] for r in reports),
            "bus.busy_ratio": busy / bus_cycles if bus_cycles else 0.0,
            "bus.grant_wait_mean_cycles": (sum(w * n for w, n in waits) / granted
                                           if granted else 0.0),
        }
