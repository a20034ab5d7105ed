"""Correctness gate: every simulation the benchmark times is checked here.

Each check returns a list of problems; an empty list means the run
passed. A problem is counted as a failed attempt, never raised.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from pels import harness

# Shipped scenario and its paper anchor, in simulated cycles.
ANCHORS = (("instant.json", 2), ("sequenced.json", 7),
           ("threshold_baseline.json", 16))


def check_report(rep: dict, segments: int = 1) -> list[str]:
    """Invariants of one report (as `SimReport.to_dict()`)."""
    problems = []
    if rep["errors"]:
        problems.append(f"link errors in a workload built to have none: {rep['errors']}")
    links = rep["per_link"]
    for entry in links:
        t = entry["triggers"]
        if t["accepted"] + t["dropped"] != t["events"]:
            problems.append(f"link {entry['link']}: accepted {t['accepted']} + "
                            f"dropped {t['dropped']} != events {t['events']}")
    masters = rep["bus"]["per_master"]
    grants = rep["bus"]["grants"]
    finished = sum(m["reads"] + m["writes"] for m in masters.values())
    if rep["end_reason"] == "quiescent":
        if grants != sum(e["bus_reads"] + e["bus_writes"] for e in links):
            problems.append(f"{grants} bus grants != link transactions")
        for entry in links:
            m = masters.get(str(entry["link"]), {"reads": 0, "writes": 0})
            if (m["reads"], m["writes"]) != (entry["bus_reads"], entry["bus_writes"]):
                problems.append(f"master {entry['link']} bus counts differ from its link")
    else:
        # Cut at the clock limit: each segment may hold one transfer in
        # flight, and each link one finished transfer it has not consumed.
        if not 0 <= grants - finished <= segments:
            problems.append(f"{grants} grants vs {finished} finished transfers")
        for entry in links:
            m = masters.get(str(entry["link"]), {"reads": 0, "writes": 0})
            ahead = m["reads"] + m["writes"] - entry["bus_reads"] - entry["bus_writes"]
            if not 0 <= ahead <= 1:
                problems.append(f"master {entry['link']} is {ahead} transfers "
                                "ahead of its link")
    return problems


def check_same(reference: dict, rep: dict, what: str) -> list[str]:
    """A rerun, at any trace level, must reproduce the reference report."""
    return [] if rep == reference else [f"{what} differs from the reference report"]


def check_pair(pels: dict, baseline: dict) -> list[str]:
    """A PELS report and its baseline twin must share one stimulus."""
    if pels["stimulus_digest"] != baseline["stimulus_digest"]:
        return ["stimulus digests of the compared pair differ"]
    return []


def check_sweep(entries: list[dict], reports: list[dict]) -> list[str]:
    """sweep() must agree with the grid points simulated one by one."""
    if len(entries) != len(reports):
        return [f"sweep returned {len(entries)} entries for {len(reports)} grid points"]
    problems = []
    for entry, rep in zip(entries, reports):
        samples = [s for e in rep["per_link"] for s in e["latency"]["samples"]]
        expected = {
            "ok": True,
            "cycles": rep["cycles"],
            "end_reason": rep["end_reason"],
            "accepted": sum(e["triggers"]["accepted"] for e in rep["per_link"]),
            "dropped": sum(e["triggers"]["dropped"] for e in rep["per_link"]),
            "latency_max": max(samples) if samples else None,
        }
        got = {key: entry.get(key) for key in expected}
        if got != expected:
            problems.append(f"sweep point links={entry['links']} "
                            f"scm={entry['scm_lines']}: {got} != {expected}")
    return problems


def anchor_latency(path: Path) -> Optional[int]:
    """First latency sample of link 0, or of the baseline model when the
    scenario has no links; None when there is no sample."""
    rep = harness.run(path, trace_level="off").to_dict()
    owner = rep["per_link"][0] if rep["per_link"] else rep["baseline"]
    samples = owner["latency"]["samples"]
    return samples[0] if samples else None


def digest(reports: list[dict]) -> str:
    """Digest of deterministic reports, to compare two commits exactly."""
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
