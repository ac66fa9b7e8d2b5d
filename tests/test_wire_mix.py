"""``benchmarks/wire_mix.py``: a workload's wire bytes by message type."""

from benchmarks.wire_mix import HEADERS, Mix, main, measure
from repro.messages.serialize import dumps
from repro.net.address import NodeAddress
from repro.net.datagram import HEADER_OVERHEAD, Datagram
from repro.rpc.messages import Invoke
from repro.services.clocks.lamport import Stamped

A, B = NodeAddress("a.edu", 1), NodeAddress("b.edu", 1)


def test_datagrams_are_split_into_headers_messages_and_bare_acks():
    mix = Mix()
    invoke = dumps(Stamped(3, "a", Invoke("renew", ("n", 1))))
    reply = '{"t":"rpc.reply","f":{"call_id":1,"ok":true}}'
    mix.tap(0.0, Datagram(A, B, {"kind": "DATA"}, invoke))
    mix.tap(0.0, Datagram(A, B, {"kind": "DATA"}, "",
                          parts_payloads=(invoke, reply)))
    mix.tap(0.0, Datagram(B, A, {"kind": "ACK"}, ""))
    assert dict(mix.count) == {HEADERS: 2, "rpc.invoke:renew": 2,
                               "rpc.reply": 1, "bare ACK": 1}
    assert mix.bytes[HEADERS] == 2 * HEADER_OVERHEAD
    assert mix.bytes["rpc.invoke:renew"] == 2 * len(invoke)
    assert mix.bytes["bare ACK"] == HEADER_OVERHEAD
    assert mix.total == (3 * HEADER_OVERHEAD + 2 * len(invoke)
                         + len(reply))


def test_a_quick_churn_run_adds_up_to_the_workloads_own_figure():
    result = measure("session_churn_sim", seed=1, scale=0.04)
    assert result["ops"] > 0
    assert result["matches"]
    rows = result["rows"]
    for name in (HEADERS, "bare ACK", "rpc.invoke:renew", "rpc.reply",
                 "lease.gossip"):
        assert rows[name]["bytes_per_op"] > 0, name
    assert abs(sum(r["bytes_per_op"] for r in rows.values())
               - result["wire_bytes_per_op"]) < 1e-6


def test_the_command_line_prints_the_table(capsys):
    assert main(["--workload", "stream_sim_bulk", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "sys.text" in out and HEADERS in out
    assert out.rstrip().endswith(": equal")
