"""E20 — the wall-clock cost ledger.

One benchmark, seven workloads, end-to-end and per-layer metrics, measured
from outside ``src/``. ``README.md`` in this directory is the manual;
``metrics.py`` declares every metric and workload by name.
"""
