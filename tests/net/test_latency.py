"""Unit tests for latency models."""

import math
import random

import pytest

from repro.net import (
    ConstantLatency,
    GeoLatency,
    LogNormalLatency,
    PerLinkLatency,
    UniformLatency,
    WAN_SITES,
)
from repro.net.latency import great_circle_km


def rng():
    return random.Random(42)


def test_constant_latency():
    m = ConstantLatency(0.1)
    assert m.sample(rng(), "a", "b", 100) == 0.1
    with pytest.raises(ValueError):
        ConstantLatency(-1)


def test_uniform_latency_within_bounds():
    m = UniformLatency(0.01, 0.02)
    r = rng()
    for _ in range(100):
        assert 0.01 <= m.sample(r, "a", "b", 0) <= 0.02
    with pytest.raises(ValueError):
        UniformLatency(0.5, 0.1)


def test_lognormal_latency_positive_and_floored():
    m = LogNormalLatency(median=0.05, sigma=1.0, floor=0.002)
    r = rng()
    samples = [m.sample(r, "a", "b", 0) for _ in range(200)]
    assert all(s >= 0.002 for s in samples)
    # Median should be in the right ballpark.
    samples.sort()
    assert 0.02 < samples[100] < 0.15
    with pytest.raises(ValueError):
        LogNormalLatency(median=0)


def test_great_circle_sanity():
    # Pasadena -> Houston is roughly 2200 km.
    km = great_circle_km(WAN_SITES["caltech.edu"], WAN_SITES["rice.edu"])
    assert 2000 < km < 2500
    assert great_circle_km(WAN_SITES["caltech.edu"],
                           WAN_SITES["caltech.edu"]) == 0


def test_geo_latency_orders_by_distance():
    m = GeoLatency(jitter_median=0.0)  # deterministic
    r = rng()
    lan = m.sample(r, "caltech.edu", "caltech.edu", 100)
    near = m.sample(r, "caltech.edu", "rice.edu", 100)
    far = m.sample(r, "caltech.edu", "sydney.edu.au", 100)
    assert lan < near < far
    # Sydney is > 50ms away one-way at physical limits.
    assert far > 0.05


def test_geo_latency_suffix_host_matching():
    m = GeoLatency(jitter_median=0.0)
    direct = m.propagation("caltech.edu", "rice.edu")
    sub = m.propagation("cs.caltech.edu", "owlnet.rice.edu")
    assert direct == sub


def test_geo_latency_unknown_host():
    m = GeoLatency()
    with pytest.raises(KeyError):
        m.sample(rng(), "caltech.edu", "unknown.example", 0)


def test_geo_latency_charges_transmission_for_size():
    m = GeoLatency(jitter_median=0.0, bandwidth_bytes_per_s=1e6)
    r = rng()
    small = m.sample(r, "caltech.edu", "rice.edu", 100)
    big = m.sample(r, "caltech.edu", "rice.edu", 100_000)
    assert big - small == pytest.approx(99_900 / 1e6)


def test_geo_latency_memo_draws_the_same_delays_as_recomputing():
    """The per-host-pair distance memo changes no delay: every sample
    equals the unmemoised formula, jitter and size terms included."""
    m = GeoLatency()
    pairs = [("cs.caltech.edu", "owlnet.rice.edu"), ("mit.edu", "ethz.ch"),
             ("caltech.edu", "x.caltech.edu"), ("ethz.ch", "mit.edu")]
    r, ref = rng(), rng()
    for _ in range(3):
        for src, dst in pairs:
            for size in (64, 1500):
                a, b = m.site_of(src), m.site_of(dst)
                prop = m.lan_delay if a == b else (
                    m.lan_delay + m.routing_factor * great_circle_km(a, b)
                    / 2.0e5)
                jitter = m.jitter_median * math.exp(
                    ref.gauss(0.0, m.jitter_sigma))
                assert m.sample(r, src, dst, size) == (
                    prop + size / m.bandwidth + jitter)


def test_geo_latency_sites_are_frozen_at_construction():
    """The memo is keyed on host names only, so the site table it was
    computed from must not move underneath it."""
    mine = {"a.edu": (0.0, 0.0), "b.edu": (0.0, 90.0)}
    m = GeoLatency(mine, jitter_median=0.0)
    before = m.propagation("a.edu", "b.edu")
    mine["b.edu"] = (0.0, 1.0)          # the caller's dict is a copy
    assert m.propagation("a.edu", "b.edu") == before
    with pytest.raises(TypeError):      # ours cannot be edited
        m.sites["b.edu"] = (0.0, 1.0)
    assert m.site_of("b.edu") == (0.0, 90.0)
    # The scalar knobs are not memoised.
    m.routing_factor *= 2
    assert m.propagation("a.edu", "b.edu") == pytest.approx(
        2 * before - m.lan_delay)


def test_per_link_latency_overrides():
    default = ConstantLatency(0.5)
    fast = ConstantLatency(0.001)
    m = PerLinkLatency(default)
    m.set_link("a.edu", "b.edu", fast)
    r = rng()
    assert m.sample(r, "a.edu", "b.edu", 0) == 0.001
    assert m.sample(r, "b.edu", "a.edu", 0) == 0.001  # symmetric
    assert m.sample(r, "a.edu", "c.edu", 0) == 0.5


def test_per_link_latency_asymmetric():
    m = PerLinkLatency(ConstantLatency(0.5))
    m.set_link("a.edu", "b.edu", ConstantLatency(0.001), symmetric=False)
    r = rng()
    assert m.sample(r, "a.edu", "b.edu", 0) == 0.001
    assert m.sample(r, "b.edu", "a.edu", 0) == 0.5


def test_mean_estimate():
    assert ConstantLatency(0.2).mean_estimate("a", "b") == pytest.approx(0.2)
