import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pels
from helpers import SCENARIO_DIR, instant_scenario, sequenced_scenario
from pels.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SIM_ERROR,
    pels_main,
    pelsc_main,
)

SOURCE = """\
        capture 0x0, 0xffff
        jif geu, 0x40, go
        wait 5
go:     action grp0.set, 0x1
"""


def test_pelsc_build_and_dump_roundtrip(tmp_path, capsys):
    src = tmp_path / "prog.pels"
    src.write_text(SOURCE)
    out = tmp_path / "prog.bin"
    assert pelsc_main(["build", str(src), "-o", str(out)]) == EXIT_OK
    assert out.stat().st_size == 4 * 6
    capsys.readouterr()

    assert pelsc_main(["dump", str(out)]) == EXIT_OK
    dumped = capsys.readouterr().out
    assert "jif geu, 0x40, L3" in dumped
    assert "wait 5" in dumped

    # dumped text rebuilds to the identical image
    src2 = tmp_path / "prog2.pels"
    src2.write_text(dumped)
    out2 = tmp_path / "prog2.bin"
    assert pelsc_main(["build", str(src2), "-o", str(out2)]) == EXIT_OK
    assert out.read_bytes() == out2.read_bytes()


def test_pelsc_build_capacity_flag(tmp_path, capsys):
    src = tmp_path / "prog.pels"
    src.write_text(SOURCE)
    out = tmp_path / "prog.bin"
    assert pelsc_main(["build", str(src), "-o", str(out), "--scm-lines", "4"]) == EXIT_OK
    capsys.readouterr()
    assert pelsc_main(["build", str(src), "-o", str(out), "--scm-lines", "2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "exceeds 2 SCM lines" in err


def test_pelsc_build_reports_syntax_error(tmp_path, capsys):
    src = tmp_path / "bad.pels"
    src.write_text("bogus 1, 2\n")
    assert pelsc_main(["build", str(src), "-o", str(tmp_path / "x.bin")]) == EXIT_CONFIG
    assert "unknown mnemonic" in capsys.readouterr().err


@pytest.mark.parametrize("lines", ["0", "-3"])
def test_pelsc_build_rejects_non_positive_scm_lines(tmp_path, capsys, lines):
    src = tmp_path / "prog.pels"
    src.write_text(SOURCE)
    out = tmp_path / "x.bin"
    assert pelsc_main(["build", str(src), "-o", str(out),
                       "--scm-lines", lines]) == EXIT_CONFIG
    assert "scm_lines must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_pelsc_build_rejects_source_that_is_not_utf8(tmp_path, capsys):
    src = tmp_path / "bad.pels"
    src.write_bytes(b"wait 1\n\xff\xfe\n")
    assert pelsc_main(["build", str(src), "-o", str(tmp_path / "x.bin")]) == EXIT_CONFIG
    assert "utf-8" in capsys.readouterr().err


def _write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return path


def test_pels_run_with_check_and_outputs(tmp_path, capsys):
    path = _write_scenario(tmp_path, instant_scenario())
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.json"
    rc = pels_main(["run", str(path), "--trace", str(trace),
                    "--report", str(report), "--check", "2"])
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["per_link"][0]["latency_max"] == 2
    assert trace.exists() and report.exists()
    loaded = json.loads(report.read_text())
    assert loaded["per_link"][0]["latency"]["samples"] == [2]


def test_pels_run_check_failure(tmp_path, capsys):
    path = _write_scenario(tmp_path, instant_scenario())
    assert pels_main(["run", str(path), "--check", "3"]) == EXIT_CHECK_FAILED
    assert "check failed" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["x", "0:x", "1,"])
def test_pels_run_rejects_bad_check_spec(tmp_path, capsys, spec):
    path = _write_scenario(tmp_path, instant_scenario())
    assert pels_main(["run", str(path), "--check", spec]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--check" in captured.err
    assert captured.out == ""  # rejected before the simulation runs


def test_pels_run_config_error(tmp_path, capsys):
    path = _write_scenario(tmp_path, {"clock_limit": 0})
    assert pels_main(["run", str(path)]) == EXIT_CONFIG


def _pels_process(*args):
    src = str(Path(pels.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "pels.cli", *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


def test_pels_run_malformed_scenario_exits_1_without_traceback(tmp_path):
    path = _write_scenario(tmp_path, {"links": [[1]]})
    proc = _pels_process("run", path)
    assert proc.returncode == EXIT_CONFIG
    assert "links[0]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pels_run_trace_to_missing_directory_exits_1_before_running(tmp_path):
    trace = tmp_path / "no" / "such" / "dir" / "x.jsonl"
    proc = _pels_process("run", SCENARIO_DIR / "sequenced.json", "--trace", trace)
    assert proc.returncode == EXIT_CONFIG
    assert f"--trace {trace}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # no run summary: the path failed first


def test_pels_run_report_to_unwritable_path_exits_1_before_running(tmp_path):
    proc = _pels_process("run", SCENARIO_DIR / "sequenced.json", "--report", tmp_path)
    assert proc.returncode == EXIT_CONFIG
    assert f"--report {tmp_path}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_pels_sweep_report_to_missing_directory_exits_1_before_running(tmp_path):
    report = tmp_path / "no" / "such" / "dir" / "s.json"
    proc = _pels_process("sweep", SCENARIO_DIR / "sequenced.json", "--links", "1..2",
                         "--scm-lines", "4", "--report", report)
    assert proc.returncode == EXIT_CONFIG
    assert f"--report {report}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # no sweep table: the path failed first


def test_pels_compare_output_to_missing_directory_exits_1(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert pels_main(["run", str(SCENARIO_DIR / "sequenced.json"),
                      "--report", str(report)]) == EXIT_OK
    out = tmp_path / "no" / "such" / "dir" / "c.json"
    proc = _pels_process("compare", report, report, "-o", out)
    assert proc.returncode == EXIT_CONFIG
    assert f"-o {out}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_pels_compare_output_may_name_an_input_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert pels_main(["run", str(SCENARIO_DIR / "sequenced.json"),
                      "--report", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert pels_main(["compare", str(report), str(report),
                      "-o", str(report)]) == EXIT_OK
    assert json.loads(report.read_text()) == json.loads(capsys.readouterr().out)


def test_pels_compare_failure_leaves_the_output_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "c.json"
    out.write_text("earlier result\n")
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    assert pels_main(["compare", str(bad), str(bad), "-o", str(out)]) == EXIT_CONFIG
    assert out.read_text() == "earlier result\n"


def test_pels_sweep_failure_leaves_the_report_file_as_it_was(tmp_path, capsys):
    path = _write_scenario(tmp_path, {"clock_limit": 10})  # no template link
    report = tmp_path / "s.json"
    report.write_text("earlier sweep\n")
    assert pels_main(["sweep", str(path), "--links", "1",
                      "--report", str(report)]) == EXIT_CONFIG
    assert "template link" in capsys.readouterr().err
    assert report.read_text() == "earlier sweep\n"


def test_pels_sweep_replaces_an_existing_report(tmp_path, capsys):
    path = _write_scenario(tmp_path, sequenced_scenario())
    report = tmp_path / "s.json"
    report.write_text("x" * 10_000)
    assert pels_main(["sweep", str(path), "--links", "1", "--scm-lines", "4",
                      "--report", str(report)]) == EXIT_OK
    assert len(json.loads(report.read_text())) == 1


def test_pels_run_sim_error_exit_code(tmp_path, capsys):
    path = _write_scenario(tmp_path, sequenced_scenario(source="write 0x800, 0x1"))
    assert pels_main(["run", str(path)]) == EXIT_SIM_ERROR


def test_pels_compare_cli(tmp_path, capsys):
    pels_path = _write_scenario(tmp_path, sequenced_scenario(), "pels.json")
    base_path = _write_scenario(tmp_path, {
        "clock_limit": 80,
        "peripherals": sequenced_scenario()["peripherals"],
        "baseline": {"event_mask": "0x1"},
        "stimuli": [[0, 0, 1]],
    }, "base.json")
    ra = tmp_path / "a.json"
    rb = tmp_path / "b.json"
    assert pels_main(["run", str(pels_path), "--report", str(ra)]) == EXIT_OK
    assert pels_main(["run", str(base_path), "--report", str(rb)]) == EXIT_OK
    capsys.readouterr()
    assert pels_main(["compare", str(ra), str(rb)]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["latency"]["ratio"] == pytest.approx(16 / 7)


def test_pels_compare_rejects_report_that_is_not_an_object(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text("[1]")
    b = tmp_path / "b.json"
    b.write_text("{}")
    assert pels_main(["compare", str(a), str(b)]) == EXIT_CONFIG
    assert "does not hold a JSON object" in capsys.readouterr().err


def test_pels_sweep_cli(tmp_path, capsys):
    path = _write_scenario(tmp_path, sequenced_scenario())
    out = tmp_path / "sweep.json"
    rc = pels_main(["sweep", str(path), "--links", "1..3",
                    "--scm-lines", "4,6", "--report", str(out)])
    assert rc == EXIT_OK
    results = json.loads(out.read_text())
    assert len(results) == 6
    table = capsys.readouterr().out
    assert "links" in table and "yes" in table


def test_pels_sweep_rejects_bad_int_list(tmp_path, capsys):
    path = _write_scenario(tmp_path, sequenced_scenario())
    assert pels_main(["sweep", str(path), "--links", "1..x"]) == EXIT_CONFIG
    assert "--links" in capsys.readouterr().err


def test_pels_run_shipped_scenarios(capsys):
    assert pels_main(["run", str(SCENARIO_DIR / "instant.json"),
                      "--check", "2"]) == EXIT_OK
    capsys.readouterr()
    assert pels_main(["run", str(SCENARIO_DIR / "sequenced.json"),
                      "--check", "7"]) == EXIT_OK
    capsys.readouterr()
