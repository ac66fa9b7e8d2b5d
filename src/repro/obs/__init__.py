"""Observability: structured tracing + metrics for the dapplet stack.

* :class:`Tracer` — attach to a substrate (``World(tracer=...)``) to
  record typed events from every layer, exportable as deterministic
  JSONL and as a counters/histograms summary.
* :class:`Counters` — one component's always-on counters, summed
  across a world by :meth:`repro.world.World.metrics`.
* :mod:`repro.obs.replay` — run recorded fault schedules and diff the
  traces against committed goldens (the regression corpus).

See ``docs/OBSERVABILITY.md`` for the event schema and metric names.
"""

from repro.obs.metrics import Counters, Histogram, MetricsRegistry
from repro.obs.tracer import CATEGORIES, TraceEvent, Tracer

__all__ = [
    "CATEGORIES",
    "Counters",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "Tracer",
]
