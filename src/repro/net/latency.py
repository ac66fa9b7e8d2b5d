"""Link latency models.

The paper's requirements (§2.2, "Coping with a Varied Network
Environment"): "Communication delays can vary widely. One process in a
calendar application may be in Australia while two other processes are in
the same building in Pasadena." and (§3.2) "Message delays in channels
are arbitrary; the delay is independent of the delay experienced by other
messages on that channel, and it is independent of the delay on other
channels."

A latency model answers: given a datagram of ``size`` bytes from
``src_host`` to ``dst_host``, how long does the network hold it? Models
draw from the named random stream they are handed, so two links never
share a stream and runs are reproducible.

:class:`GeoLatency` is the model used by the WAN experiments: it places
hosts at real coordinates (Caltech/Pasadena, Rice/Houston, UT
Knoxville, plus far sites such as Sydney for the paper's Australia
example), charges great-circle propagation delay at 2/3 c times a
routing-inflation factor, a per-packet transmission time, and lognormal
queueing jitter — the standard first-order WAN model.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from random import Random
from types import MappingProxyType


class LatencyModel(ABC):
    """Strategy for sampling one-way datagram delays."""

    @abstractmethod
    def sample(self, rng: Random, src_host: str, dst_host: str,
               size: int) -> float:
        """One-way delay in seconds for a ``size``-byte datagram."""

    def mean_estimate(self, src_host: str, dst_host: str) -> float:
        """A rough expected delay, used to pick retransmission timeouts."""
        probe = Random(0)
        samples = [self.sample(probe, src_host, dst_host, 256)
                   for _ in range(32)]
        return sum(samples) / len(samples)


class ConstantLatency(LatencyModel):
    """Every datagram takes exactly ``delay`` seconds."""

    def __init__(self, delay: float = 0.05) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay

    def sample(self, rng: Random, src_host: str, dst_host: str,
               size: int) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not (0 <= low <= high):
            raise ValueError(f"invalid range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: Random, src_host: str, dst_host: str,
               size: int) -> float:
        return rng.uniform(self.low, self.high)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed delays: ``median * lognormal(0, sigma)`` plus a floor.

    A reasonable stand-in for Internet paths, where most packets are
    quick but a tail straggles.
    """

    def __init__(self, median: float = 0.05, sigma: float = 0.5,
                 floor: float = 0.001) -> None:
        if median <= 0 or sigma < 0 or floor < 0:
            raise ValueError("median must be > 0, sigma/floor >= 0")
        self.median = median
        self.sigma = sigma
        self.floor = floor

    def sample(self, rng: Random, src_host: str, dst_host: str,
               size: int) -> float:
        return self.floor + self.median * math.exp(rng.gauss(0.0, self.sigma))


#: Site coordinates (degrees lat, lon) for the hosts named by the paper's
#: examples, plus far sites for the heterogeneity experiments.
WAN_SITES: dict[str, tuple[float, float]] = {
    "caltech.edu": (34.1377, -118.1253),     # Pasadena, CA
    "rice.edu": (29.7174, -95.4018),         # Houston, TX
    "utk.edu": (35.9544, -83.9295),          # Knoxville, TN
    "mit.edu": (42.3601, -71.0942),          # Cambridge, MA
    "ethz.ch": (47.3763, 8.5477),            # Zurich
    "u-tokyo.ac.jp": (35.7128, 139.7621),    # Tokyo
    "sydney.edu.au": (-33.8888, 151.1872),   # Sydney (the paper's Australia)
}

_EARTH_RADIUS_KM = 6371.0
_FIBER_KM_PER_S = 2.0e5  # ~2/3 of c in glass


def great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance between two (lat, lon) points in km."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    s = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2 * _EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


class GeoLatency(LatencyModel):
    """Geography-driven WAN latency.

    delay = routing_factor * distance / (2/3 c)      (propagation)
          + size / bandwidth                          (transmission)
          + lognormal queueing jitter
    plus a LAN floor when the two hosts are co-located (same site), which
    models "two processes in the same building in Pasadena".

    ``sites`` is copied and frozen at construction: the distance between
    two hosts is a pure function of their names, looked up and computed
    once per host pair rather than once per datagram.
    """

    def __init__(self, sites: dict[str, tuple[float, float]] | None = None,
                 *, routing_factor: float = 1.6,
                 bandwidth_bytes_per_s: float = 1.25e6,
                 jitter_median: float = 0.004, jitter_sigma: float = 0.8,
                 lan_delay: float = 0.0005) -> None:
        self.sites = MappingProxyType(
            dict(WAN_SITES if sites is None else sites))
        #: (src_host, dst_host) -> great-circle km between their sites.
        self._km: dict[tuple[str, str], float] = {}
        self.routing_factor = routing_factor
        self.bandwidth = bandwidth_bytes_per_s
        self.jitter_median = jitter_median
        self.jitter_sigma = jitter_sigma
        self.lan_delay = lan_delay

    def site_of(self, host: str) -> tuple[float, float]:
        """Coordinates of ``host``; suffix-matches registered sites."""
        if host in self.sites:
            return self.sites[host]
        for site, coords in self.sites.items():
            if host.endswith("." + site) or host.endswith(site):
                return coords
        raise KeyError(f"no coordinates registered for host {host!r}")

    def propagation(self, src_host: str, dst_host: str) -> float:
        """Deterministic propagation component between two hosts."""
        pair = (src_host, dst_host)
        km = self._km.get(pair)
        if km is None:
            # Co-located hosts are 0.0 km apart: the LAN floor alone.
            km = self._km[pair] = great_circle_km(self.site_of(src_host),
                                                  self.site_of(dst_host))
        return self.lan_delay + self.routing_factor * km / _FIBER_KM_PER_S

    def sample(self, rng: Random, src_host: str, dst_host: str,
               size: int) -> float:
        jitter = self.jitter_median * math.exp(rng.gauss(0.0, self.jitter_sigma))
        return self.propagation(src_host, dst_host) + size / self.bandwidth + jitter


class PerLinkLatency(LatencyModel):
    """Composite: explicit per-(src, dst) overrides over a default model.

    Host pairs are directional; register with :meth:`set_link`.
    """

    def __init__(self, default: LatencyModel) -> None:
        self.default = default
        self._links: dict[tuple[str, str], LatencyModel] = {}

    def set_link(self, src_host: str, dst_host: str, model: LatencyModel,
                 *, symmetric: bool = True) -> None:
        self._links[(src_host, dst_host)] = model
        if symmetric:
            self._links[(dst_host, src_host)] = model

    def sample(self, rng: Random, src_host: str, dst_host: str,
               size: int) -> float:
        model = self._links.get((src_host, dst_host), self.default)
        return model.sample(rng, src_host, dst_host, size)
