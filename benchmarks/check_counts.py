"""Zero-tolerance guard on E20's exact counts — the benchmark gate.

Runs the five simulator workloads of the E20 ledger through the driver's
contract command at a fixed seed and one-tenth scale, untraced::

    python3 benchmarks/e20/run.py --workload W --seed 1 --seconds 1 --trace 0

and compares ``wire_bytes_per_op`` and ``failed`` from the last-line
JSON with the values pinned in ``benchmarks/baselines/E20_counts.json``.
An entry keyed ``W:traced`` runs the same command with ``--trace 1`` and
compares the per-layer counts it pins — which also proves the span patch
targets still exist:

* ``stream_sim_bulk:traced`` — frames, ACKs and timers per message,
  kernel events per op, batch fill, window stalls, the wire's frame
  sizes and the WAL's bytes per set;
* ``stream_sim_lossy:traced`` — the same per-message counts plus the
  retransmit, fast-retransmit, skip, stale-drop and duplicate fractions
  and the virtual p99 latency under loss;
* ``stream_sim_traced:traced`` — trace events per message under a full
  ``Tracer()``, kernel events per op and frames per message: a faster
  ``Tracer.emit`` must drop no event, and the ``obs:emit`` span target
  must still exist;
* ``session_churn_sim:traced`` and ``token_ring_sim:traced`` — the
  control plane's per-message counts, datagrams per member or request
  and background datagrams.

All are counts on the simulator — exact for one seed on any machine —
so the match is exact: a difference is a change to what the stack does,
never noise. A change that means to move them re-pins the file and says
why.

A workload that fails its own output check still prints its JSON line
(with ``failed`` > 0), so the mismatch is reported; one that crashes is
reported with its exit code and stderr tail. Either way the remaining
entries are still checked. Exit status: 0 when every count matches,
1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = ROOT / "benchmarks" / "baselines" / "E20_counts.json"
STDERR_TAIL = 20


def run(entry: str) -> subprocess.CompletedProcess:
    """Run ``entry`` (``W`` or ``W:traced``) through the contract command."""
    workload, _, mode = entry.partition(":")
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e20" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1" if mode == "traced" else "0"],
        cwd=ROOT, capture_output=True, text=True)


def read(stdout: str, names) -> dict[str, float] | None:
    """``names`` from the last stdout line, or ``None`` if it is not JSON."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return {name: result["failed"] if name == "failed"
            else result["metrics"][name]["value"] for name in names}


def main() -> int:
    bad = 0
    for entry, want in json.loads(PINNED.read_text()).items():
        proc = run(entry)
        got = read(proc.stdout, want)
        if got is None:
            bad += 1
            tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
            print(f"FAIL {entry}: exit {proc.returncode}\n{tail}")
            continue
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {entry}: {got}"
              + ("" if ok else f" != pinned {want}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
