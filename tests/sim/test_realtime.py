"""The kernel never paces against the wall clock: virtual time jumps
event-to-event."""

import time

from repro.sim import Kernel


def test_non_realtime_runs_faster_than_wall_clock():
    k = Kernel()
    for i in range(1, 101):
        k.timeout(1.0 * i)
    start = time.monotonic()
    k.run()
    elapsed = time.monotonic() - start
    assert k.now == 100.0
    assert elapsed < 1.0  # 100 virtual seconds in well under one real one
