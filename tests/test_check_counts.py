"""The benchmark gate: ``benchmarks/check_counts.py`` and its pin file.

The pin file is checked against ``BENCHMARK.json`` here, in well under a
second, so a typo in a pin does not surface only deep into a minute of
workload runs. The gate's own failure reporting is checked with the
workload subprocesses faked.
"""

import json
import math
import pathlib
import subprocess

from benchmarks import check_counts

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())
PINS = json.loads(check_counts.PINNED.read_text())


def test_every_pin_names_a_declared_workload():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    for entry in PINS:
        workload, sep, mode = entry.partition(":")
        assert workload in workloads, entry
        assert not sep or mode == "traced", entry


def test_every_pinned_metric_is_one_the_run_reports():
    # An untraced run reports the end-to-end metrics, a traced run the
    # per-layer ones; every entry pins ``failed``.
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for entry, pins in PINS.items():
        reported = per_layer if entry.endswith(":traced") else end_to_end
        assert "failed" in pins, entry
        for name in pins:
            assert name == "failed" or name in reported, (entry, name)


def test_every_pinned_value_is_a_finite_number():
    for entry, pins in PINS.items():
        for name, value in pins.items():
            assert type(value) in (int, float), (entry, name)
            assert math.isfinite(value), (entry, name)


def test_a_failing_or_crashing_workload_is_reported_and_the_rest_run(
        monkeypatch, tmp_path, capsys):
    pins = {"stream_sim_bulk": {"wire_bytes_per_op": 1.0, "failed": 0},
            "token_ring_sim": {"wire_bytes_per_op": 2.0, "failed": 0},
            "session_churn_sim": {"wire_bytes_per_op": 3.0, "failed": 0}}

    def line(wire_bytes, failed):
        return "progress\n" + json.dumps(
            {"failed": failed,
             "metrics": {"wire_bytes_per_op": {"value": wire_bytes}}})

    outcomes = {
        # A workload whose output check failed: JSON line, exit 1.
        "stream_sim_bulk": (1, line(1.0, 1), ""),
        # A workload that crashed: no JSON line.
        "token_ring_sim": (1, "", "Traceback\nChildFailed: boom"),
        "session_churn_sim": (0, line(3.0, 0), ""),
    }
    ran = []

    def fake_run(argv, *, check=False, **kwargs):
        workload = argv[argv.index("--workload") + 1]
        ran.append(workload)
        proc = subprocess.CompletedProcess(argv, *outcomes[workload])
        if check:
            proc.check_returncode()
        return proc

    pinned = tmp_path / "pins.json"
    pinned.write_text(json.dumps(pins))
    monkeypatch.setattr(check_counts, "PINNED", pinned)
    monkeypatch.setattr(subprocess, "run", fake_run)

    assert check_counts.main() == 1
    out = capsys.readouterr().out
    assert "FAIL stream_sim_bulk:" in out and "!= pinned" in out
    assert "FAIL token_ring_sim: exit 1" in out
    assert "ChildFailed: boom" in out
    assert "ok   session_churn_sim:" in out
    assert ran == list(pins)
