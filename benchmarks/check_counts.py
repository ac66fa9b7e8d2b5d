"""Zero-tolerance guard on E20's exact counts.

Runs the five simulator workloads of the E20 ledger through the driver's
contract command at a fixed seed and one-tenth scale, untraced::

    python3 benchmarks/e20/run.py --workload W --seed 1 --seconds 1 --trace 0

and compares ``wire_bytes_per_op`` and ``failed`` from the last-line
JSON with the values pinned in ``benchmarks/baselines/E20_counts.json``.
An entry keyed ``W:traced`` runs the same command with ``--trace 1`` and
compares the per-layer counts it pins (frames, acks and timers per
message, kernel events per op, ...) — which also proves the span patch
targets still exist. All are counts on the simulator — exact for one
seed on any machine — so the match is exact: a difference is a change
to what the stack does, never noise. A change that means to move them
re-pins the file and says why.

Exit status: 0 when every count matches, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = ROOT / "benchmarks" / "baselines" / "E20_counts.json"


def measure(entry: str, names) -> dict[str, float]:
    """Run ``entry`` (``W`` or ``W:traced``) and read back ``names``."""
    workload, _, mode = entry.partition(":")
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e20" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1" if mode == "traced" else "0"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: result["failed"] if name == "failed"
            else result["metrics"][name]["value"] for name in names}


def main() -> int:
    bad = 0
    for entry, want in json.loads(PINNED.read_text()).items():
        got = measure(entry, want)
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {entry}: {got}"
              + ("" if ok else f" != pinned {want}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
