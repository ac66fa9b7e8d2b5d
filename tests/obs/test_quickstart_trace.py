"""The quickstart example, traced: every protocol action the endpoints
and mailboxes counted must appear in the exported JSONL with time and
Lamport-clock stamps — the acceptance check for trace completeness."""

import importlib.util
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]


def load_quickstart():
    spec = importlib.util.spec_from_file_location(
        "quickstart", REPO / "examples" / "quickstart.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart_trace_is_complete(tmp_path, capsys):
    trace_path = tmp_path / "quickstart.jsonl"
    world = load_quickstart().main(trace=str(trace_path))
    assert "session terminated" in capsys.readouterr().out

    records = [json.loads(line)
               for line in trace_path.read_text().splitlines()]
    assert records

    def count(cat, ev):
        return sum(1 for r in records if r["cat"] == cat and r["ev"] == ev)

    # Every counted protocol action appears in the trace...
    metrics = world.metrics()
    assert count("ep", "data") == metrics["ep.data_sent"]
    assert count("ep", "rtx") == metrics["ep.data_retransmitted"]
    wire_acks = [r for r in records if r["cat"] == "ep" and r["ev"] == "ack"
                 and r["mode"] == "wire"]
    piggyback = [r for r in records if r["cat"] == "ep" and r["ev"] == "ack"
                 and r["mode"] == "piggyback"]
    assert len(wire_acks) == metrics["ep.acks_sent"]
    assert len(piggyback) == metrics["ep.acks_piggybacked"]
    assert count("ep", "deliver") == metrics["ep.delivered"]
    assert count("ep", "sack_suppress") == metrics["ep.sacked_suppressed"]
    assert count("net", "send") == metrics["net.sent"]

    # ...as does every mailbox hand-off (enqueues >= dequeues: the
    # quickstart leaves nothing queued, so here they are equal)...
    enq, deq = count("mbox", "enqueue"), count("mbox", "dequeue")
    assert enq > 0 and enq == deq

    # ...and everything a dapplet did is stamped with its Lamport clock.
    nodes = {str(d.address) for d in world.dapplets()}
    for r in records:
        assert "t" in r and "i" in r
        if r["cat"] in ("ep", "mbox", "session") and r.get("node") in nodes:
            assert isinstance(r["clk"], int), f"unstamped event: {r}"

    # The ping/pong payload round trips are all visible as deliveries:
    # 3 pings + 3 pongs on the session's two data channels.
    data_channels = {r["ch"] for r in records
                     if r["cat"] == "ep" and r["ev"] == "deliver"
                     and str(r["ch"]).endswith(":in")}
    assert len(data_channels) == 2
