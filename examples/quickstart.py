#!/usr/bin/env python3
"""Quickstart: two dapplets ping-pong across a simulated WAN.

Demonstrates the paper's core layer in ~60 lines: dapplets with global
addresses, an initiator linking them into a session (Figure 2), session
ports (inboxes/outboxes over FIFO channels), and clean termination.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace trace.jsonl   # export a trace
"""

from repro import Dapplet, Initiator, SessionSpec, Tracer, World
from repro.messages import Text
from repro.net import GeoLatency


class PingPong(Dapplet):
    """Replies to every 'ping <n>' with 'pong <n>'."""

    kind = "pingpong"

    def on_session_start(self, ctx):
        self.ctx = ctx
        if ctx.member != "responder":
            return None

        def respond():
            while ctx.active:
                msg = yield ctx.inbox("in").receive()
                print(f"[{self.world.now*1000:8.1f} ms] {self.name} got "
                      f"{msg.text!r}")
                ctx.outbox("out").send(Text(msg.text.replace("ping", "pong")))

        return respond()


def main(trace: str | None = None) -> World:
    # One world = one simulated internetwork. GeoLatency places hosts at
    # real coordinates; caltech<->sydney is a ~100 ms round trip.
    # With --trace, a Tracer records every layer's events for export.
    world = World(seed=1, latency=GeoLatency(),
                  tracer=Tracer() if trace is not None else None)
    caller = world.dapplet(PingPong, "caltech.edu", "caller")
    world.dapplet(PingPong, "sydney.edu.au", "responder")
    initiator = world.dapplet(Initiator, "caltech.edu", "init")

    # Describe the session: two members, a channel each way.
    spec = SessionSpec("pingpong")
    spec.add_member("caller", inboxes=("in",))
    spec.add_member("responder", inboxes=("in",))
    spec.bind("caller", "out", "responder", "in")
    spec.bind("responder", "out", "caller", "in")

    def director():
        session = yield from initiator.establish(spec)
        print(f"session {session.session_id} established with "
              f"{sorted(session.members)}")
        ctx = caller.ctx
        for i in range(3):
            ctx.outbox("out").send(Text(f"ping {i}"))
            reply = yield ctx.inbox("in").receive()
            print(f"[{world.now*1000:8.1f} ms] caller got {reply.text!r}")
        yield from session.terminate()
        print(f"session terminated at t={world.now*1000:.1f} ms")

    world.run(until=world.process(director()))
    world.run()
    metrics = world.metrics()  # every layer's counters, one flat dict
    print(f"network: {metrics['net.sent']} datagrams sent, "
          f"{metrics['net.delivered']} delivered; "
          f"{metrics['ep.data_sent']} messages, "
          f"{metrics['session.commits']} session commits")
    if trace is not None:
        path = world.export_trace(trace)
        print(f"trace: {len(world.tracer.events)} events -> {path}")
    return world


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export a JSONL trace of the run to PATH")
    main(parser.parse_args().trace)
