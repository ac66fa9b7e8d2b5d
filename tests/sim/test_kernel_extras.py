"""Edge-case tests for the kernel: trace hooks, interrupts interacting
with composite events."""

import pytest

from repro.errors import InterruptError
from repro.sim import Kernel


def test_trace_hooks_observe_every_event():
    k = Kernel()
    seen = []
    k.trace_hooks.append(lambda t, ev: seen.append(t))
    k.timeout(1.0)
    k.timeout(2.0)
    k.run()
    assert seen == [1.0, 2.0]


def test_interrupt_during_any_of():
    k = Kernel()
    log = []

    def sleeper():
        try:
            yield k.timeout(10.0) | k.timeout(20.0)
        except InterruptError:
            log.append(("interrupted", k.now))

    p = k.process(sleeper())
    k.call_later(1.0, lambda: p.interrupt())
    k.run()
    assert log == [("interrupted", 1.0)]


def test_interrupted_process_can_wait_again():
    k = Kernel()
    log = []

    def body():
        try:
            yield k.timeout(100.0)
        except InterruptError:
            pass
        yield k.timeout(1.0)  # a fresh wait works after interruption
        log.append(k.now)

    p = k.process(body())
    k.call_later(2.0, lambda: p.interrupt())
    k.run()
    assert log == [3.0]


def test_interrupt_unwaiting_process_raises():
    k = Kernel()

    def body():
        yield k.timeout(1.0)

    p = k.process(body())
    k.run()
    with pytest.raises(RuntimeError):
        p.interrupt()  # finished


def test_process_yielding_processed_event_resumes_same_instant():
    k = Kernel()
    ev = k.event()
    ev.succeed("v")
    log = []

    def late():
        yield k.timeout(3.0)
        value = yield ev  # long since processed
        log.append((value, k.now))

    k.process(late())
    k.run()
    assert log == [("v", 3.0)]


def test_process_yielding_failed_processed_event_gets_exception():
    k = Kernel()
    ev = k.event()
    ev.fail(ValueError("old failure"))
    ev.defused = True
    k.run()  # process the failure (defused: no crash)
    caught = []

    def late():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    k.process(late())
    k.run()
    assert caught == ["old failure"]


def test_nested_any_all_composition():
    k = Kernel()
    log = []

    def body():
        fast = k.timeout(1.0, "fast")
        slow = k.timeout(9.0, "slow")
        other = k.timeout(2.0, "other")
        got = yield (fast | slow) & other
        log.append((sorted(str(v) for v in got.values()), k.now))

    k.process(body())
    k.run()
    # The AnyOf fires at 1.0; the AllOf completes at 2.0.
    assert log[0][1] == 2.0


def test_call_later_returns_cancelable_looking_event():
    k = Kernel()
    fired = []
    ev = k.call_later(1.5, lambda: fired.append(k.now))
    # Timeouts are triggered at creation (value fixed) but not yet
    # processed (callbacks pending).
    assert ev.triggered and not ev.processed
    k.run()
    assert fired == [1.5]
    assert ev.processed
