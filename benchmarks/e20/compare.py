"""``python -m benchmarks.e20.compare A/ B/`` — parent against change.

``A`` and ``B`` are output directories of ``python -m benchmarks.e20``
(one ``<workload>.<k>.json`` per set of runs; run the command several
times on each, alternating, to get quartiles). One row per (workload,
end-to-end metric): both medians with their quartiles, the change as a
share of A's median (positive = worse), the bound from ``metrics.py``
and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  it is not, but either side's interquartile spread is
                wider than the bound, so "unchanged" cannot be claimed —
                unless every run of B reads better than every run of A.

Exits non-zero on any ``regressed`` row or a higher ``failed_frac``.
"""

from __future__ import annotations

import json
import pathlib
import re
import statistics
import sys

from . import metrics as m

_RESULT = re.compile(r"(?P<workload>[a-z_]+)\.\d+\.json$")


def load(directory: pathlib.Path) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` over the untraced result files."""
    table: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.iterdir()):
        found = _RESULT.match(path.name)
        if not found or found["workload"] not in m.WORKLOADS:
            continue
        record = json.loads(path.read_text())
        per_metric = table.setdefault(record["workload"], {})
        for name, value in record["metrics"].items():
            per_metric.setdefault(name, []).append(value)
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def verdict(metric: m.EndToEnd, workload: str, a: list[float],
            b: list[float]) -> tuple[str, float]:
    """``(verdict, change)`` with ``change`` > 0 meaning B is worse."""
    a_q1, a_mid, a_q3 = quartiles(a)
    b_q1, b_mid, b_q3 = quartiles(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    bound = metric.bound_for(workload)
    if bound == 0.0 or a_mid == 0.0:
        # Absolute: any worsening at all counts (failed_frac).
        change = sign * (b_mid - a_mid)
        return ("regressed" if change > 0 else "ok"), change
    change = sign * (b_mid - a_mid) / a_mid
    if change > bound:
        return "regressed", change
    widest = max((a_q3 - a_q1) / a_mid, (b_q3 - b_q1) / b_mid if b_mid else 0)
    all_better = (max(b) < min(a) if metric.better == "lower"
                  else min(b) > max(a))
    if widest > bound and not all_better:
        return "unresolved", change
    return "ok", change


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_table, b_table = (load(pathlib.Path(arg)) for arg in argv)
    header = (f"{'workload':<18} {'metric':<18} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    regressed = 0
    for workload in m.WORKLOADS:
        for metric in m.END_TO_END:
            a = a_table.get(workload, {}).get(metric.name)
            b = b_table.get(workload, {}).get(metric.name)
            if not metric.applies(workload) or not a or not b:
                continue
            what, change = verdict(metric, workload, a, b)
            regressed += what == "regressed"
            cells = []
            for values in (a, b):
                q1, mid, q3 = quartiles(values)
                cells.append(f"{mid:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{workload:<18} {metric.name:<18} {cells[0]:>34} "
                  f"{cells[1]:>34} {change:>+8.1%} "
                  f"{metric.bound_for(workload):>6.2f}  {what}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
