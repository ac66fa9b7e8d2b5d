"""``python -m benchmarks.e20 --selftest``: the harness checks itself.

1. ``BENCHMARK.json`` equals what ``metrics.py`` declares and stays inside
   the contract's limits; every per-layer metric names the end-to-end
   cell it should move.
2. A quick run (counts / 10) of every workload emits every declared name,
   no undeclared one, and end-to-end values that are not zero.
3. Two same-seed runs of every simulated workload agree exactly on the
   exact metrics; a different seed changes the lossy fault schedule.

Returns 0 when every check holds, 1 otherwise (each failure is printed).
"""

from __future__ import annotations

import json
import pathlib
import re

from . import metrics as m
from .cli import (QUICK_SCALE, ROOT, contract_line, merge_traced, spawn)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 20


def check_declarations(problems: list[str]) -> None:
    declared = m.benchmark_json()
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != declared:
        problems.append("BENCHMARK.json differs from metrics.benchmark_json()")
    e2e, layers = declared["end_to_end"], declared["per_layer"]
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics (limit 16)")
    if not 1 <= len(layers) <= 128:
        problems.append(f"{len(layers)} per-layer metrics (limit 128)")
    names = ([x["name"] for x in e2e] + [x["name"] for x in layers]
             + [x["name"] for x in declared["workloads"]])
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not any(x["name"] == "setup_s" and x["unit"] == "s"
               and x["better"] == "lower" for x in e2e):
        problems.append("setup_s (s, lower) is not an end-to-end metric")
    for x in e2e:
        if not 0 < x["bound"] <= 0.25:
            problems.append(f"bound of {x['name']} outside (0, 0.25]")
    for metric in m.PER_LAYER:
        if metric.layer == "bench":
            continue
        if not metric.moves:
            problems.append(f"{metric.name} names nothing it should move")
        for workload, target in metric.moves:
            cell = m.E2E_BY_NAME.get(target)
            if workload not in m.WORKLOADS or cell is None \
                    or not cell.applies(workload):
                problems.append(f"{metric.name} should move "
                                f"{workload}:{target}, which is no cell")


def check_runs(out: pathlib.Path, problems: list[str]) -> None:
    known = (set(m.E2E_BY_NAME) | set(m.PER_LAYER_BY_NAME) | set(m.INTERNAL))
    micro = spawn("", SEED, QUICK_SCALE, "micro", out)
    emitted: set[str] = set(micro["metrics"])
    for workload in m.WORKLOADS:
        print(f"selftest: {workload}", flush=True)
        on_sim = workload in m.SIM_WORKLOADS
        plain = [spawn(workload, SEED, QUICK_SCALE, "e2e", out)
                 for _ in range(2 if on_sim else 1)]
        traced = [spawn(workload, SEED, QUICK_SCALE, "traced", out)
                  for _ in range(2 if on_sim else 1)]
        for result in plain + traced:
            if result["failed"]:
                problems.append(f"{workload}: {result['failed']} failed")
            for name in set(result["metrics"]) - known:
                problems.append(f"{workload}: undeclared metric {name}")
        emitted |= set(traced[0]["metrics"]) | set(plain[0]["metrics"])

        plain[0]["metrics"]["setup_s"] = plain[0]["setup_s"]
        line = contract_line(plain[0], trace=False)
        for name, cell in line["metrics"].items():
            if name not in plain[0]["metrics"]:
                problems.append(f"{workload}: {name} not emitted")
            elif not cell["value"] > 0:
                problems.append(f"{workload}: {name} = {cell['value']}")
        for metric in m.END_TO_END:
            if metric.applies(workload) and \
                    metric.name not in plain[0]["metrics"]:
                problems.append(f"{workload}: {metric.name} not emitted")
        merged = merge_traced(plain[0], traced[0], micro)
        emitted |= set(merged["metrics"])
        line = contract_line(merged, trace=True)
        if set(line["metrics"]) != set(m.PER_LAYER_BY_NAME):
            problems.append(f"{workload}: traced line names differ")

        if on_sim:
            for kind, pair, exact in (("untraced", plain, m.EXACT_E2E),
                                      ("traced", traced, m.EXACT_PER_LAYER)):
                for name in exact:
                    a, b = (r["metrics"].get(name) for r in pair)
                    if a != b:
                        problems.append(f"{workload}: {name} differs between "
                                        f"same-seed {kind} runs: {a} vs {b}")
        if workload == "stream_sim_lossy":
            other = spawn(workload, SEED + 1, QUICK_SCALE, "e2e", out)
            prints = [r["notes"]["fault_fingerprint"]
                      for r in (plain[0], other)]
            if prints[0] == prints[1]:
                problems.append("a different seed left the lossy fault "
                                f"schedule unchanged ({prints[0]})")
    for name in set(m.PER_LAYER_BY_NAME) - emitted:
        problems.append(f"per-layer metric {name} is emitted by no run")


def selftest(out: pathlib.Path) -> int:
    problems: list[str] = []
    check_declarations(problems)
    check_runs(out, problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0
