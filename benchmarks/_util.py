"""Shared helper for the benchmark harness: the table printer.

Each ``bench_eN_*.py`` module reproduces one experiment from the
DESIGN.md index: it runs the scenario on the simulator, prints the
paper-style table (run pytest with ``-s`` to see it, or check
EXPERIMENTS.md for recorded outputs), asserts the *shape* claims, and
uses the ``benchmark`` fixture to time the core operation in wall-clock
terms. The shape asserts are the scripts' gate; exact counts are pinned
by ``benchmarks/check_counts.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def print_table(title: str, header: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Render one experiment table to stdout."""
    widths = [max(len(str(h)), 10) for h in header]
    rows = [list(map(_fmt, row)) for row in rows]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(str(h).rjust(w) for h, w in zip(header, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
