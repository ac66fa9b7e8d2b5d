"""Unit tests for the binary wire codec and the framing bugs it fixes.

Three regressions rode in with the codec and are pinned here:

* batch coalescing is wire-size-aware — a backlog of large payloads
  splits into several frames instead of encoding one oversized frame
  that only the UDP substrate would reject;
* a single payload that cannot fit one frame even unbatched fails its
  send with a *typed* error (:class:`~repro.errors.PayloadTooLarge`) on
  every substrate, at send time, without holing the FIFO stream;
* malformed datagrams (truncated, mutated, or not our format at all —
  including perfectly valid JSON) are dropped and counted at the
  decode boundary instead of crashing the receive path.
"""

import json
import socket

import pytest

from repro.errors import (AddressError, PayloadTooLarge, TransportError,
                          WireFormatError)
from repro.net import (ConstantLatency, DatagramNetwork, Endpoint,
                       FaultPlan, NodeAddress)
from repro.net.datagram import Datagram
from repro.net.wire import (BATCH_MAX_PAYLOADS, RELIABLE, RELIABLE_SKIP,
                            UNRELIABLE, FrameError, KIND_ACK, KIND_DATA,
                            KIND_PROBE, KIND_SKIP,
                            MAX_FRAME_BYTES, decode_frame, encode_frame,
                            encode_frame_json)
from repro.runtime import AsyncioSubstrate, SimSubstrate
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


def rt(datagram):
    """Round-trip one datagram through the binary codec."""
    return decode_frame(encode_frame(datagram))


# -- codec round trips -------------------------------------------------------


def test_data_frame_round_trips():
    d = Datagram(A, B, {"kind": KIND_DATA, "to": 3, "ch": "c0",
                        "seq": 17, "ts": 12.625}, "hello wire")
    assert rt(d) == d


def test_data_frame_with_named_ref_and_unicode_round_trips():
    d = Datagram(A, B, {"kind": KIND_DATA, "to": "réponse", "ch": "canál",
                        "seq": 0, "ts": 0.0}, "päyload ✓")
    assert rt(d) == d


def test_data_frame_with_pack_round_trips():
    pack = [{"ch": "c1", "cum": 41, "ets": 3.5, "rwnd": 1024},
            {"ch": "c2", "cum": -1, "ets": None,
             "sack": [[5, 9], [11, 11]]}]
    d = Datagram(A, B, {"kind": KIND_DATA, "to": 0, "ch": "c0",
                        "seq": 2, "ts": 1.0, "pack": pack}, "x")
    assert rt(d) == d


def test_batched_data_frame_round_trips():
    d = Datagram(A, B,
                 {"kind": KIND_DATA, "to": 1, "ch": "c", "seq": 5,
                  "ts": 2.0, "parts": [1, "named", 2]},
                 "", parts_payloads=("p0", "", "p2 ünïcode"))
    got = rt(d)
    assert got == d
    assert got.parts_payloads == ("p0", "", "p2 ünïcode")


def test_ack_frame_round_trips_with_and_without_options():
    full = Datagram(A, B, {"kind": KIND_ACK, "ch": "c", "cum": 9,
                           "ets": 0.125, "sack": [[11, 13]],
                           "rwnd": 2048}, "")
    bare = Datagram(A, B, {"kind": KIND_ACK, "ch": "c", "cum": -1,
                           "ets": None}, "")
    assert rt(full) == full
    assert rt(bare) == bare


def test_probe_frame_round_trips():
    probe = Datagram(A, B, {"kind": KIND_PROBE, "ch": "c"}, "")
    assert rt(probe) == probe


def test_retired_raw_kind_is_strict_rejected():
    """Wire id 3 (the retired RAW kind) is reserved: encoders refuse to
    emit it and decoders reject it with the typed frame error."""
    with pytest.raises(FrameError, match="unknown frame kind"):
        encode_frame(Datagram(A, B, {"kind": "RAW", "to": "svc", "ch": "c"},
                              "ping"))
    probe = bytearray(encode_frame(
        Datagram(A, B, {"kind": KIND_PROBE, "ch": "c"}, "")))
    probe[2] = 3  # overwrite the kind byte with the reserved id
    with pytest.raises(FrameError, match="reserved"):
        decode_frame(bytes(probe))


def test_data_frame_delivery_class_round_trips():
    for cls in (UNRELIABLE, RELIABLE_SKIP):
        d = Datagram(A, B, {"kind": KIND_DATA, "to": 0, "ch": "c0",
                            "seq": 2, "ts": 1.5, "cls": cls}, "payload")
        assert rt(d) == d


def test_reliable_class_is_implicit_on_the_wire():
    """``cls: RELIABLE`` encodes to the same bytes as no ``cls`` at all,
    and decodes back without the key — pre-class frames stay byte- and
    dict-identical."""
    base = {"kind": KIND_DATA, "to": 0, "ch": "c0", "seq": 2, "ts": 1.5}
    plain = Datagram(A, B, dict(base), "p")
    tagged = Datagram(A, B, {**base, "cls": RELIABLE}, "p")
    assert encode_frame(tagged) == encode_frame(plain)
    assert "cls" not in decode_frame(encode_frame(tagged)).header


def test_skip_frame_round_trips():
    d = Datagram(A, B, {"kind": KIND_SKIP, "ch": "c1", "upto": 7}, "")
    assert rt(d) == d
    big = Datagram(A, B, {"kind": KIND_SKIP, "ch": "c1",
                          "upto": 2**32 - 1}, "")
    assert rt(big) == big


def test_encode_rejects_unknown_delivery_class():
    d = Datagram(A, B, {"kind": KIND_DATA, "to": 0, "ch": "c", "seq": 0,
                        "ts": 0.0, "cls": "best_effort"}, "p")
    with pytest.raises(FrameError, match="delivery class"):
        encode_frame(d)


def test_encode_rejects_skip_upto_out_of_range():
    d = Datagram(A, B, {"kind": KIND_SKIP, "ch": "c", "upto": 2**32}, "")
    with pytest.raises(FrameError, match="upto"):
        encode_frame(d)


def test_decode_rejects_invalid_class_bits():
    d = Datagram(A, B, {"kind": KIND_DATA, "to": 0, "ch": "c", "seq": 0,
                        "ts": 0.0}, "p")
    buf = bytearray(encode_frame(d))
    buf[3] |= 0x0C  # delivery-class bits 3: reserved / invalid
    with pytest.raises(FrameError, match="delivery-class bits"):
        decode_frame(bytes(buf))


def test_decode_rejects_malformed_skip_frames():
    d = Datagram(A, B, {"kind": KIND_SKIP, "ch": "c1", "upto": 7}, "")
    buf = bytearray(encode_frame(d))
    buf[3] |= 0x01  # SKIP admits no flags
    with pytest.raises(FrameError):
        decode_frame(bytes(buf))
    with pytest.raises(FrameError):
        decode_frame(encode_frame(d)[:-2])  # truncated upto


def test_binary_frames_are_smaller_than_json():
    frames = [
        Datagram(A, B, {"kind": KIND_DATA, "to": 3, "ch": "c0",
                        "seq": 17, "ts": 12.625}, "x" * 200),
        Datagram(A, B, {"kind": KIND_ACK, "ch": "c", "cum": 9,
                        "ets": 0.125, "sack": [[11, 13]], "rwnd": 2048}, ""),
        Datagram(A, B, {"kind": KIND_DATA, "to": 1, "ch": "c", "seq": 5,
                        "ts": 2.0, "parts": [1, 2, 3]},
                 "", parts_payloads=("a" * 50, "b" * 50, "c" * 50)),
    ]
    for d in frames:
        assert len(encode_frame(d)) < len(encode_frame_json(d))


def test_encode_rejects_oversized_frame():
    d = Datagram(A, B, {"kind": KIND_PROBE, "ch": "c"},
                 "x" * (MAX_FRAME_BYTES + 1))
    with pytest.raises(FrameError):
        encode_frame(d)


def test_encode_rejects_batch_without_payloads():
    d = Datagram(A, B, {"kind": KIND_DATA, "to": 1, "ch": "c", "seq": 0,
                        "ts": 0.0, "parts": [1, 2]}, "")
    with pytest.raises(FrameError):
        encode_frame(d)


# -- decode validation -------------------------------------------------------


def test_decode_rejects_valid_json():
    """The original bug: a malformed-but-valid-JSON datagram sailed
    through decode and crashed in the endpoint. Now it is a FrameError
    at the decode boundary."""
    for doc in ({"h": "not a dict", "p": 3}, [1, 2, 3], "string", 42):
        with pytest.raises(FrameError):
            decode_frame(json.dumps(doc).encode())


def test_decode_rejects_garbage_and_truncation():
    good = encode_frame(Datagram(
        A, B, {"kind": KIND_DATA, "to": 3, "ch": "c", "seq": 1, "ts": 1.0},
        "payload"))
    with pytest.raises(FrameError):
        decode_frame(b"")
    with pytest.raises(FrameError):
        decode_frame(b"\x00" * 40)
    with pytest.raises(FrameError):
        decode_frame(good[:6])  # truncated mid-address
    with pytest.raises(FrameError):
        decode_frame(bytes([good[0] ^ 0xFF]) + good[1:])  # bad magic
    with pytest.raises(FrameError):
        decode_frame(good[:1] + b"\x7f" + good[2:])  # bad version


# -- error taxonomy ----------------------------------------------------------


def test_frame_error_taxonomy():
    assert issubclass(FrameError, WireFormatError)
    assert issubclass(WireFormatError, TransportError)
    assert issubclass(PayloadTooLarge, WireFormatError)
    # The one-release AddressError deprecation alias has expired: codec
    # failures are transport errors, not address errors.
    assert not issubclass(FrameError, AddressError)
    with pytest.raises(WireFormatError):
        decode_frame(b"junk")


# -- substrate scenarios -----------------------------------------------------


@pytest.fixture(params=["sim", "asyncio"])
def substrate(request):
    if request.param == "sim":
        sub = SimSubstrate(seed=7, latency=ConstantLatency(0.01))
    else:
        sub = AsyncioSubstrate(seed=7)
    yield sub
    sub.close()


def run_until(substrate, event, wall_timeout=30):
    if isinstance(substrate, AsyncioSubstrate):
        return substrate.run(event, wall_timeout=wall_timeout)
    return substrate.run(event)


def test_batch_filler_respects_frame_ceiling(substrate):
    """Regression: queued 20 KB payloads behind a closed window used to
    coalesce by count/batch_bytes alone — six of them made a ~120 KB
    frame the UDP encoder rejected. The filler now accounts wire bytes
    and splits; every frame stays under MAX_FRAME_BYTES and everything
    is delivered in order on both substrates."""
    payload = "y" * 20_000
    sender = Endpoint(substrate, substrate.datagrams, A, rto_initial=0.5,
                      cwnd_initial=len(payload) + 100,
                      batch_bytes=1 << 20)
    receiver = Endpoint(substrate, substrate.datagrams, B)
    got = []
    receiver.register_inbox(0, lambda p, src: got.append(p))
    oversize = []
    substrate.datagrams.wire_taps.append(
        lambda t, d: oversize.append(len(encode_frame(d)))
        if len(encode_frame(d)) > MAX_FRAME_BYTES else None)
    receipts = [sender.send(B.inbox(0), f"{i}:{payload}", "c")
                for i in range(8)]
    run_until(substrate, substrate.all_of([r.confirmed for r in receipts]))
    assert [p.split(":", 1)[0] for p in got] == [str(i) for i in range(8)]
    assert not oversize
    assert sender.stats.batches_sent >= 1


def test_single_oversized_payload_fails_typed(substrate):
    """A payload that cannot fit one frame even unbatched fails its
    receipt with PayloadTooLarge at send time — identically on both
    substrates — and the FIFO stream is not holed by it."""
    sender = Endpoint(substrate, substrate.datagrams, A, rto_initial=0.2)
    receiver = Endpoint(substrate, substrate.datagrams, B)
    got = []
    receiver.register_inbox(0, lambda p, src: got.append(p))

    r_big = sender.send(B.inbox(0), "z" * (MAX_FRAME_BYTES + 1), "c")
    assert r_big.is_failed
    exc = r_big.confirmed.value
    assert isinstance(exc, PayloadTooLarge)
    assert exc.size > exc.limit == MAX_FRAME_BYTES

    # The stream still works and skips no sequence number.
    r_ok = sender.send(B.inbox(0), "after", "c")
    run_until(substrate, r_ok.confirmed)
    assert got == ["after"]


def test_unreliable_oversized_payload_raises_typed(substrate):
    sender = Endpoint(substrate, substrate.datagrams, A)
    with pytest.raises(PayloadTooLarge):
        sender.send(B.inbox(0), "z" * (MAX_FRAME_BYTES + 1), "c",
                    delivery=UNRELIABLE)


def test_malformed_datagrams_dropped_and_counted(substrate):
    """Garbage bytes at the decode boundary are dropped with a counter
    (never an exception up the receive path) on both substrates."""
    receiver = Endpoint(substrate, substrate.datagrams, B)
    got = []
    receiver.register_inbox(0, lambda p, src: got.append(p))
    service = substrate.datagrams
    bad = [b"garbage", json.dumps({"h": {}, "p": 0}).encode(),
           encode_frame(Datagram(A, B, {"kind": KIND_DATA, "to": 0,
                                        "ch": "c", "seq": 0, "ts": 0.0},
                                 "ok"))[:-30]]
    if isinstance(substrate, AsyncioSubstrate):
        route = service.real_address(B)
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for frame in bad:
                tx.sendto(frame, route)
        finally:
            tx.close()
        done = substrate.event()
        substrate.call_later(0.3, lambda: done.succeed(None))
        substrate.run(done, wall_timeout=10)
    else:
        for frame in bad:
            service._deliver_bytes(frame)
    assert service.stats.bad_frames == len(bad)
    assert got == []


def test_sim_encoded_mode_round_trips_traffic():
    """The simulator's opt-in encoded mode routes every datagram through
    the binary codec and still delivers everything exactly once under
    faults."""
    sub = SimSubstrate(seed=3, latency=ConstantLatency(0.02),
                       faults=FaultPlan(drop_prob=0.2, duplicate_prob=0.1),
                       encoded=True)
    sender = Endpoint(sub, sub.datagrams, A, rto_initial=0.1, max_retries=80)
    receiver = Endpoint(sub, sub.datagrams, B, rto_initial=0.1)
    got = []
    receiver.register_inbox(0, lambda p, src: got.append(p))
    receipts = [sender.send(B.inbox(0), f"m{i}", "c") for i in range(30)]
    sub.run(sub.all_of([r.confirmed for r in receipts]))
    assert got == [f"m{i}" for i in range(30)]


def test_batches_cap_payload_count():
    """The BATCH_MAX_PAYLOADS cap still bounds coalescing."""
    k = Kernel(seed=0)
    net = DatagramNetwork(k, latency=ConstantLatency(0.02))
    ea = Endpoint(k, net, A, rto_initial=0.5, cwnd_initial=200,
                  batch_bytes=1 << 20)
    eb = Endpoint(k, net, B)
    got = []
    eb.register_inbox(0, lambda p, src: got.append(p))
    sizes = []
    net.wire_taps.append(
        lambda t, d: sizes.append(len(d.header["parts"]))
        if "parts" in d.header else None)
    for i in range(2 * BATCH_MAX_PAYLOADS + 10):
        ea.send(B.inbox(0), f"{i:04d}", "c")
    k.run()
    assert len(got) == 2 * BATCH_MAX_PAYLOADS + 10
    assert sizes and max(sizes) <= BATCH_MAX_PAYLOADS
