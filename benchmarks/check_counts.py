"""Zero-tolerance guard on E20's exact counts.

Runs the five simulator workloads of the E20 ledger through the driver's
contract command at a fixed seed and one-tenth scale, untraced::

    python3 benchmarks/e20/run.py --workload W --seed 1 --seconds 1 --trace 0

and compares ``wire_bytes_per_op`` and ``failed`` from the last-line
JSON with the values pinned in ``benchmarks/baselines/E20_counts.json``.
Both are counts on the simulator — exact for one seed on any machine —
so the match is exact: a difference is a change to what goes on the
wire, never noise. A change that means to move them re-pins the file and
says why.

Exit status: 0 when every count matches, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = ROOT / "benchmarks" / "baselines" / "E20_counts.json"


def measure(workload: str) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e20" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"wire_bytes_per_op":
            result["metrics"]["wire_bytes_per_op"]["value"],
            "failed": result["failed"]}


def main() -> int:
    bad = 0
    for workload, want in json.loads(PINNED.read_text()).items():
        got = measure(workload)
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {got}"
              + ("" if ok else f" != pinned {want}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
