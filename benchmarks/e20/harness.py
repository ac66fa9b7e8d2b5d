"""What every workload shares: the run context, sample statistics and
the substrate factories.

A workload is a function ``run(ctx) -> Outcome``. It builds its world,
warms it up, calls ``ctx.ready()`` at the first timed operation, runs a
fixed number of operations (``ctx.scaled``), checks every output and
returns its samples; :func:`summarise` turns those into the end-to-end
metrics.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.runtime import AsyncioSubstrate, SimSubstrate

from .counting import CountingAsyncioSubstrate, CountingSimSubstrate

#: Samples needed before the tail percentile is a true p99.
P99_MIN_SAMPLES = 1000
#: Samples that must lie beyond the reported tail percentile. The guide's
#: floor is ten; with ten, the tail of 250 session cycles moved 12 % between
#: two launches of one seed, with 25 it moves 2 %.
TAIL_BEYOND = 25
#: Samples a window needs before its tail, and before its median, is used.
TAIL_WINDOW_MIN = 200
P50_WINDOW_MIN = 20


def percentile(ordered: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an already sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _tail_percentile(n: int) -> float:
    """p99, or with fewer than 1000 samples the highest percentile that
    still has at least ``TAIL_BEYOND`` samples beyond it."""
    if n >= P99_MIN_SAMPLES:
        return 0.99
    # Never below p75: a quick run's handful of samples would otherwise
    # put the "tail" under the median.
    return max(0.75, (n - TAIL_BEYOND - 1) / n)


def cut(samples: list[float], windows: int,
        minimum: int) -> list[list[float]]:
    """``samples`` cut, in arrival order, into ``windows`` equal windows —
    fewer (down to one: the pooled list) where each would otherwise hold
    under ``minimum`` samples. A remainder shorter than a window is left
    out.

    Latencies are medians over these windows for the reason rates are
    medians over segments: one stall of the host delays a run of
    consecutive operations. Pooled, those samples shift the median of the
    whole run and own its p99; a window statistic is moved only by a
    stall that covers more than half of the windows.
    """
    windows = max(1, min(windows, len(samples) // minimum))
    size = len(samples) // windows
    return [samples[i * size:(i + 1) * size] for i in range(windows)]


def typical(samples: list[float], windows: int = 1) -> tuple[float, int]:
    """``(value, windows used)``: the median latency, as the median of
    the windows' medians."""
    parts = cut(samples, windows, P50_WINDOW_MIN)
    return statistics.median(map(statistics.median, parts)), len(parts)


def tail(samples: list[float], windows: int = 1) -> tuple[float, float, int]:
    """``(value, q, windows used)``: the tail latency, as the median of
    the windows' ``q``-quantiles, and the percentile it stands for."""
    parts = cut(samples, windows, TAIL_WINDOW_MIN)
    q = _tail_percentile(len(parts[0]))
    return (statistics.median(percentile(sorted(part), q) for part in parts),
            q, len(parts))


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def calibrate(iterations: int = 200_000) -> float:
    """ns per iteration of a fixed pure-Python loop: the yardstick for
    comparing wall numbers taken on different machines (reported, never
    gated)."""
    best = float("inf")
    for _ in range(5):
        acc = 0
        start = time.perf_counter_ns()
        for i in range(iterations):
            acc += i & 7
        best = min(best, (time.perf_counter_ns() - start) / iterations)
    return best


@dataclass
class Outcome:
    """What a workload hands back.

    ``segments`` are ``(operations, wall seconds)`` of the equal parts the
    timed region is cut into (rates are medians over them);
    ``lat_us`` the wall-latency samples; ``vlat_ms`` the virtual-latency
    samples (empty where the cell has no meaning); ``extra`` workload
    metrics already in final form (``scale_ratio`` ...); ``counts`` the
    raw counters the per-layer metrics are derived from.
    """

    attempted: int
    failed: int
    completed: int
    segments: list[tuple[int, float]]
    lat_us: list[float]
    wire_bytes: int
    vlat_ms: list[float] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def summarise(outcome: Outcome) -> dict[str, float]:
    """End-to-end metrics (all but ``setup_s``, which the parent times)."""
    rates = [ops / secs for ops, secs in outcome.segments if secs > 0]
    windows = len(outcome.segments)
    p50, p50_windows = typical(outcome.lat_us, windows)
    p99, q, tail_windows = tail(outcome.lat_us, windows)
    metrics = {
        "ops_per_s": statistics.median(rates),
        "lat_p50_us": p50,
        "lat_p99_us": p99,
        "wire_bytes_per_op": outcome.wire_bytes / max(1, outcome.completed),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "bench.segment_spread": spread(rates),
    }
    if outcome.vlat_ms:
        ordered = sorted(outcome.vlat_ms)
        metrics["vlat_p50_ms"] = percentile(ordered, 0.50)
        metrics["vlat_p99_ms"] = percentile(ordered, 0.99)
    metrics.update(outcome.extra)
    outcome.notes["lat_samples"] = len(outcome.lat_us)
    outcome.notes["lat_tail_percentile"] = round(q * 100, 2)
    outcome.notes["lat_windows"] = {"p50": p50_windows, "tail": tail_windows}
    return metrics


class Context:
    """One run of one workload: its seed, size and (when traced) recorder.

    ``seed`` feeds :attr:`rng`, the only source of randomness for the
    generated inputs, and the simulator's fault/latency streams — both
    are inputs handed to the program, which never reads the seed itself.
    """

    def __init__(self, seed: int, scale: float, *, recorder: Any = None,
                 setup_only: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.recorder = recorder
        self.setup_only = setup_only
        self.rng = random.Random(seed)
        self.ready_at: float | None = None

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def scaled(self, nominal: int, minimum: int = 1) -> int:
        """``nominal`` operations at scale 1.0 (a 10 s run on the box the
        counts were sized on), scaled, never below ``minimum``."""
        return max(minimum, round(nominal * self.scale))

    def ready(self) -> None:
        """Mark the first timed operation; a set-up-only run stops here."""
        self.ready_at = time.monotonic()
        if self.setup_only:
            raise SetupDone
        if self.recorder is not None:
            self.recorder.reset()

    def op(self, ident: int) -> None:
        """Tag the spans opened from now on with operation ``ident``."""
        if self.recorder is not None:
            self.recorder.op = ident

    def sim(self, **kwargs: Any) -> SimSubstrate:
        """The plain simulator, or its counting subclass when traced."""
        cls = CountingSimSubstrate if self.traced else SimSubstrate
        return cls(seed=self.seed, **kwargs)

    def aio(self) -> AsyncioSubstrate:
        """The asyncio/UDP substrate (host loopback), counting when traced."""
        cls = CountingAsyncioSubstrate if self.traced else AsyncioSubstrate
        return cls(seed=self.seed)


class SetupDone(Exception):
    """Raised by :meth:`Context.ready` in a set-up-only run."""


Slices = list[tuple[int, float]]  # (operations, wall seconds) each


def slices(stamps: list[float], ops_per_slice: int) -> Slices:
    """Fine slices of a timed region from their boundary timestamps."""
    return [(ops_per_slice, b - a) for a, b in zip(stamps, stamps[1:])]


def per_op_us(fine: Slices) -> list[float]:
    """Wall µs per operation of each slice that completed any."""
    return [secs * 1e6 / ops for ops, secs in fine if ops]


def coarse(fine: Slices, parts: int = 10) -> Slices:
    """Regroup fine slices into ``parts`` equal segments (a remainder
    shorter than a segment is left out)."""
    step = max(1, len(fine) // parts)
    return [(sum(ops for ops, _ in fine[i:i + step]),
             sum(secs for _, secs in fine[i:i + step]))
            for i in range(0, len(fine) - step + 1, step)]


def mismatches(got: list[Any], expected: list[Any]) -> int:
    """Positions at which two sequences differ, plus the length gap."""
    wrong = sum(1 for g, e in zip(got, expected) if g != e)
    return wrong + abs(len(got) - len(expected))

