"""Command lines of the E20 ledger.

Two front ends share :func:`run_untraced` / :func:`run_traced`:

* ``python -m benchmarks.e20 --seed S --out DIR [--workload W]...
  [--traced] [--quick]`` runs every workload (each in fresh
  subprocesses), prints every metric by name with its unit and clock,
  and adds one result file per workload to ``DIR`` (``compare`` reads
  those). ``--selftest`` checks the harness itself.
* ``run.py --workload W --seed N --seconds T --trace 0|1`` is the
  driver's contract (see ``BENCHMARK.json``): one workload, one JSON
  line.

Run length is fixed by operation count: ``--seconds`` (or ``--quick``)
only scales the counts, which are sized so that scale 1.0 takes about
``SIZED_SECONDS`` on the box they were sized on.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from statistics import median
from typing import Any

from . import metrics as m

ROOT = pathlib.Path(__file__).resolve().parents[2]
DEFAULT_OUT = ROOT / ".e20_out"

#: Subprocess launches whose set-up times ``setup_s`` is the median of.
SETUP_LAUNCHES = 5
#: The traced run repeats the workload at this share of its counts.
TRACED_SHARE = 0.2
QUICK_SCALE = 0.1
CHILD_TIMEOUT = 170.0


class ChildFailed(RuntimeError):
    """A workload subprocess exited non-zero or printed no result."""


def spawn(workload: str, seed: int, scale: float, mode: str,
          out: pathlib.Path) -> dict[str, Any]:
    """Run one child to completion; returns its JSON result (plus
    ``setup_s`` when it reached its first timed operation)."""
    paths = [str(ROOT), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    argv = [sys.executable, "-m", "benchmarks.e20.child", "--mode", mode,
            "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--out", str(out)]
    spawned = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload or mode} ({mode}) exited "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("ready_at") is not None:
        result["setup_s"] = result["ready_at"] - spawned
    return result


def run_untraced(workload: str, seed: int, scale: float,
                 out: pathlib.Path) -> dict[str, Any]:
    """The end-to-end run: tracing off, ``setup_s`` from five launches."""
    setups = [spawn(workload, seed, scale, "setup", out)["setup_s"]
              for _ in range(SETUP_LAUNCHES - 1)]
    result = spawn(workload, seed, scale, "e2e", out)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = median(setups)
    result["notes"]["setup_samples_s"] = setups
    return result


def run_traced(workload: str, seed: int, scale: float,
               out: pathlib.Path) -> dict[str, Any]:
    """The per-layer run: an untraced reference and the traced run at the
    same reduced counts, plus the isolated micro loops."""
    scale *= TRACED_SHARE
    return merge_traced(spawn(workload, seed, scale, "e2e", out),
                        spawn(workload, seed, scale, "traced", out),
                        spawn("", seed, scale, "micro", out))


def merge_traced(reference: dict[str, Any], traced: dict[str, Any],
                 micro: dict[str, Any]) -> dict[str, Any]:
    """One per-layer result out of the three children's."""
    merged = dict(micro["metrics"])
    merged.update({name: value for name, value in traced["metrics"].items()
                   if name in m.PER_LAYER_BY_NAME})
    # Workload-level numbers are quoted from the run with tracing off.
    merged.update({name: value for name, value in
                   reference["metrics"].items()
                   if name in m.PER_LAYER_BY_NAME})
    merged["failed_frac"] = max(reference["metrics"]["failed_frac"],
                                traced["metrics"]["failed_frac"])
    merged["bench.trace_overhead_ratio"] = (
        traced["metrics"]["us_per_op"] / reference["metrics"]["us_per_op"])
    return {
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": reference["failed"] + traced["failed"],
        "metrics": merged,
        "notes": {"reference": reference["notes"],
                  "traced": traced["notes"]},
    }


# -- the driver's contract -------------------------------------------------------


def contract_line(result: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The object the driver reads: every declared metric of the kind
    asked for, and nothing else. A per-layer metric the workload does not
    exercise reads 0."""
    if trace:
        declared = [(x.name, x.unit) for x in m.PER_LAYER]
    else:
        declared = [(x.name, x.unit) for x in m.END_TO_END if x.contract]
    values = {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
              for name, unit in declared}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": values}


def contract_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e20/run.py")
    parser.add_argument("--workload", required=True, choices=list(m.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds / m.SIZED_SECONDS,
                 DEFAULT_OUT)
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0 if result["failed"] == 0 else 1


# -- the full set ------------------------------------------------------------------


def _next_index(out: pathlib.Path, workload: str) -> int:
    """Result files are ``<workload>.<k>.json``; repeated invocations on
    one directory add sets instead of overwriting them."""
    pattern = re.compile(re.escape(workload) + r"\.(\d+)\.json$")
    taken = [int(found.group(1)) for found in
             map(pattern.match, os.listdir(out)) if found]
    return max(taken, default=-1) + 1


def _print_metrics(workload: str, result: dict[str, Any],
                   traced: bool) -> None:
    values = result["metrics"]
    print(f"\n== {workload} ({'traced set' if traced else 'tracing off'}) ==")
    if traced:
        rows = [(x.name, x.unit, x.clock) for x in m.PER_LAYER]
    else:
        rows = [(x.name, x.unit, x.clock) for x in m.END_TO_END
                if x.applies(workload)]
    for name, unit, clock in rows:
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit:<6} {clock}")
    notes = result["notes"]
    if traced:
        shares = notes["traced"]["self_time_share"]
        print("  self time by layer: " + ", ".join(
            f"{layer} {share:.0%}" for layer, share in shares.items()
            if share >= 0.01))
        print(f"  spans: {notes['traced']['trace_file']}")
    else:
        over = notes["lat_windows"]
        print(f"  lat samples {notes['lat_samples']} (p50 over {over['p50']} "
              f"windows, tail = p{notes['lat_tail_percentile']} over "
              f"{over['tail']}), "
              f"{notes['segments']} segments, timed {notes['timed_s']:.2f} s"
              + (f"; {notes['link']}" if "link" in notes else ""))
        if notes.get("valid") is False:
            print("  INVALID: the open-loop generator ran later than its "
                  "paced interval")
    print(f"  attempted {result['attempted']} failed {result['failed']}")


def full_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e20",
        description="E20 cost ledger: run the workloads, print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--workload", action="append",
                        choices=list(m.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--traced", action="store_true",
                        help="also run the per-layer (traced) set")
    parser.add_argument("--quick", action="store_true",
                        help="counts divided by ten")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        from .selftest import selftest
        return selftest(args.out)

    scale = QUICK_SCALE if args.quick else 1.0
    args.out.mkdir(parents=True, exist_ok=True)
    bad = 0
    for workload in args.workload or list(m.WORKLOADS):
        index = _next_index(args.out, workload)
        runs = [(False, run_untraced)]
        if args.traced:
            runs.append((True, run_traced))
        for traced, run in runs:
            result = run(workload, args.seed, scale, args.out)
            _print_metrics(workload, result, traced)
            record = dict(result, workload=workload, seed=args.seed,
                          scale=scale, traced=traced)
            suffix = "traced.json" if traced else "json"
            path = args.out / f"{workload}.{index}.{suffix}"
            path.write_text(json.dumps(record, indent=1) + "\n")
            bad += result["failed"]
            if not traced and result["notes"].get("valid") is False:
                bad += 1
    return 1 if bad else 0
