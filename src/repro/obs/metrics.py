"""Metrics: component counters, and counters and latency histograms fed
by the tracer.

The paper's debugging story is built on *observable* distributed state
(logical clocks, snapshots); this module is the quantitative half of the
observability layer: every component counts in a :class:`Counters`
group, every traced event increments counters (globally, per dapplet
node, and per channel), and selected numeric fields — round-trip times,
mailbox wait times — are folded into log-bucketed histograms.
Summaries are plain dicts of JSON-encodable values.

Everything here is deterministic: bucket boundaries are fixed powers of
two, keys are strings, and :meth:`Histogram.snapshot` sorts nothing at
runtime that could vary between identical runs.
"""

from __future__ import annotations

from bisect import bisect_left

#: Inclusive upper bounds of the histogram buckets, in seconds:
#: powers of two from 1 µs to ~67 s, plus a catch-all overflow bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2 ** i for i in range(27))
_NBUCKETS = len(BUCKET_BOUNDS)

#: Quantiles resolve to 1e-9: ``q`` becomes a whole number of billionths
#: before the rank is computed in integers.
_Q_SCALE = 10 ** 9


class Counters:
    """One component's monotonic int counters, all starting at 0: a
    subclass names its ``layer`` and its counters (``__slots__``)."""

    __slots__ = ()
    layer = ""

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def add_to(self, totals: dict[str, int]) -> None:
        """Add every count to ``totals["<layer>.<counter>"]``."""
        for name in self.__slots__:
            key = f"{self.layer}.{name}"
            totals[key] = totals.get(key, 0) + getattr(self, name)


class Histogram:
    """A fixed-bucket latency histogram (log-spaced, base 2).

    ``observe`` finds the bucket by binary search over
    :data:`BUCKET_BOUNDS`: a value lands in the first bucket whose bound
    it does not exceed, and anything above the last bound — or NaN,
    which exceeds no bound — in ``overflow``.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "overflow")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * len(BUCKET_BOUNDS)
        self.overflow = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        i = bisect_left(BUCKET_BOUNDS, value)
        # bisect puts NaN at 0 and values past the last bound at the end;
        # both fail this test and land in overflow.
        if i < _NBUCKETS and value <= BUCKET_BOUNDS[i]:
            self.buckets[i] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding
        the nearest-rank ``q``-th observation, i.e. the
        ``ceil(q * count)``-th smallest (``inf`` if it landed in
        overflow).

        The rank is integer arithmetic on ``q`` rounded to billionths,
        so float noise cannot push it up a rank (``0.07 * 100`` is
        ``7.000000000000001`` in floats; the rank is 7).
        """
        if not self.count:
            return 0.0
        share = round(q * _Q_SCALE)
        target = max(1, -(-share * self.count // _Q_SCALE))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return BUCKET_BOUNDS[i]
        return float("inf")

    def snapshot(self) -> dict:
        """A JSON-encodable summary (empty buckets omitted)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "buckets": {f"le_{BUCKET_BOUNDS[i]:.6g}": n
                        for i, n in enumerate(self.buckets) if n},
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """Counters (global / per-node / per-channel) plus named histograms.

    The counters are plain ``key -> count`` dicts that
    :meth:`repro.obs.Tracer.emit` bumps in place, one event at a time.
    """

    __slots__ = ("counters", "per_node", "per_channel", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.per_node: dict[str, dict[str, int]] = {}
        self.per_channel: dict[str, dict[str, int]] = {}
        self.histograms: dict[str, Histogram] = {}

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def summary(self) -> dict:
        """The full metrics summary, JSON-encodable and deterministic."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "per_node": {n: dict(sorted(c.items()))
                         for n, c in sorted(self.per_node.items())},
            "per_channel": {ch: dict(sorted(c.items()))
                            for ch, c in sorted(self.per_channel.items())},
            "histograms": {name: hist.snapshot()
                           for name, hist in sorted(self.histograms.items())},
        }
