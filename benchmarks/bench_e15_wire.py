"""E15 — wire codec: struct-packed binary frames vs the JSON reference.

Scenario: a fixed set of representative frames — small and large
singleton DATA, a full 32-payload batched DATA, ACKs bare and fully
optioned (ets + SACK + rwnd), and PROBE — each encoded and decoded
by the binary codec (:func:`repro.net.wire.encode_frame`) and by the
retained JSON reference codec the package shipped before
(:func:`repro.net.wire.encode_frame_json`).

Metrics per frame class: bytes on the wire for both codecs and their
ratio (JSON/binary — higher means the binary frame is smaller), plus
wall-clock encode+decode round trips per second for each codec.

Shape claims: every binary frame is strictly smaller than its JSON
form, every class round-trips exactly, and the binary codec is faster
than the JSON one on the same machine (a relative claim, so it holds on
any hardware). The exact frame sizes the transport emits are pinned
by ``benchmarks/check_counts.py`` (E20's ``net.wire.frame_bytes.*``).
The ops/s numbers are printed for inspection but never gate.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._util import print_table
from repro.net import NodeAddress
from repro.net.datagram import Datagram
from repro.net.wire import (KIND_ACK, KIND_DATA, KIND_PROBE, decode_frame,
                            decode_frame_json, encode_frame,
                            encode_frame_json)

A = NodeAddress("caltech.edu", 2000)
B = NodeAddress("sydney.edu.au", 2107)

#: Representative frames, one per class the transport actually emits.
FRAMES = {
    "data_small": Datagram(
        A, B, {"kind": KIND_DATA, "to": 3, "ch": "cal/updates",
               "seq": 1234, "ts": 17.640625}, "x" * 48),
    "data_large": Datagram(
        A, B, {"kind": KIND_DATA, "to": "updates", "ch": "cal/updates",
               "seq": 98765, "ts": 1712.5}, "y" * 4096),
    "data_batch32": Datagram(
        A, B, {"kind": KIND_DATA, "to": 7, "ch": "cal/updates",
               "seq": 4096, "ts": 99.375, "parts": list(range(7, 39))},
        "", parts_payloads=tuple(f"{i:03d}" + "z" * 97 for i in range(32))),
    "data_piggyback": Datagram(
        A, B, {"kind": KIND_DATA, "to": 0, "ch": "c0", "seq": 10,
               "ts": 5.25,
               "pack": [{"ch": "c1", "cum": 41, "ets": 5.125,
                         "rwnd": 16384},
                        {"ch": "c2", "cum": 7, "ets": None,
                         "sack": [[9, 12], [14, 14]]}]}, "w" * 100),
    "ack_bare": Datagram(
        A, B, {"kind": KIND_ACK, "ch": "cal/updates", "cum": 1233,
               "ets": 17.640625}, ""),
    "ack_full": Datagram(
        A, B, {"kind": KIND_ACK, "ch": "cal/updates", "cum": 1233,
               "ets": 17.640625, "sack": [[1290, 1293], [1295, 1295],
                                          [1299, 1304]],
               "rwnd": 123456}, ""),
    "probe": Datagram(A, B, {"kind": KIND_PROBE, "ch": "cal/updates"}, ""),
}

ROUNDS = 2000


def _time_codec(encode, decode, frames, rounds=ROUNDS):
    """Wall-clock encode+decode round trips per second over the set."""
    start = time.perf_counter()
    for _ in range(rounds):
        for d in frames:
            decode(encode(d))
    elapsed = time.perf_counter() - start
    return rounds * len(frames) / elapsed


@pytest.fixture(scope="module")
def results():
    table = {}
    frames = list(FRAMES.values())
    for name, d in FRAMES.items():
        binary = encode_frame(d)
        legacy = encode_frame_json(d)
        assert decode_frame(binary) == d
        assert decode_frame_json(legacy) == d
        table[name] = {
            "binary_bytes": len(binary),
            "json_bytes": len(legacy),
            "size_ratio": len(legacy) / len(binary),
        }
    table["codec"] = {
        "binary_roundtrips_per_s": _time_codec(encode_frame, decode_frame,
                                               frames),
        "json_roundtrips_per_s": _time_codec(encode_frame_json,
                                             decode_frame_json, frames),
    }
    return table


def test_e15_table_and_shape(results, benchmark):
    table = results
    rows = [[name, m["binary_bytes"], m["json_bytes"],
             f"{m['size_ratio']:.2f}x"]
            for name, m in table.items() if name != "codec"]
    print_table("E15: binary wire frames vs the JSON reference codec",
                ["frame", "binary B", "json B", "json/binary"], rows)
    codec = table["codec"]
    print(f"  round trips/s: binary {codec['binary_roundtrips_per_s']:,.0f}"
          f"  json {codec['json_roundtrips_per_s']:,.0f}")

    # Binary strictly smaller, for every frame class.
    for name, m in table.items():
        if name == "codec":
            continue
        assert m["binary_bytes"] < m["json_bytes"], name
        assert m["size_ratio"] > 1.0
    # The per-datagram header cost (what every ACK pays) shrinks >1.5x.
    assert table["ack_bare"]["size_ratio"] > 1.5
    # And faster than the JSON reference on the same machine.
    assert (codec["binary_roundtrips_per_s"]
            > codec["json_roundtrips_per_s"])

    benchmark(_time_codec, encode_frame, decode_frame,
              list(FRAMES.values()), 50)
