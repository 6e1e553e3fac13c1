"""Channel latency models: LAN, Internet, and RF.

The paper's timing arithmetic (Sections V-D/E/F):

* **Speed of light** c = 3 x 10^5 km/s = 300 km/ms.
* **Optic fibre / LAN**: signals travel at 2/3 c = 200 km/ms, so a LAN
  round trip within 200 km is ~1 ms; Ethernet propagation delay is
  ~0.0256 ms worst case and "Ethernet has almost no delay at low
  network loads".  The paper budgets Delta-t_VP ~ 1 ms for the LAN leg
  (up to 3 ms with margin).
* **Internet**: effective speed ~ 4/9 c (Katz-Bassett et al.), so a
  3 ms RTT bounds the prover within 200 km.  Measured Australian RTTs
  (Table III) include a distance-independent base (ADSL last-mile +
  routing) of roughly 16-18 ms on top of the propagation term.

Each model maps a *distance* (plus message size and load) to a one-way
delay sample; round trips are two samples.  All randomness comes from
an injected :class:`~repro.crypto.rng.DeterministicRNG`, so experiments
are reproducible.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.util.validation import check_positive

#: c in km/ms (the paper's 300 km/ms).
SPEED_OF_LIGHT_KM_PER_MS = 300.0

#: Propagation speed in optic fibre (2/3 c = 200 km/ms).
FIBRE_SPEED_KM_PER_MS = SPEED_OF_LIGHT_KM_PER_MS * 2.0 / 3.0

#: Effective end-to-end Internet speed (4/9 c, Katz-Bassett et al.).
INTERNET_SPEED_KM_PER_MS = SPEED_OF_LIGHT_KM_PER_MS * 4.0 / 9.0

#: One jitter draw's 7 bytes as a word of a bulk read.
_WORD_MASK = (1 << 56) - 1


class LatencyModel(ABC):
    """Maps (distance, payload size) to one-way delay in milliseconds."""

    @abstractmethod
    def one_way_ms(
        self,
        distance_km: float,
        payload_bytes: int = 0,
        rng: DeterministicRNG | None = None,
    ) -> float:
        """Sample a one-way delay.  ``rng=None`` returns the deterministic
        mean (no jitter) -- used when a bench wants exact paper arithmetic."""

    def rtt_ms(
        self,
        distance_km: float,
        payload_bytes: int = 0,
        rng: DeterministicRNG | None = None,
    ) -> float:
        """Sample a round-trip time (two independent one-way samples)."""
        return self.one_way_ms(distance_km, payload_bytes, rng) + self.one_way_ms(
            distance_km, payload_bytes, rng
        )


@dataclass
class LANModel(LatencyModel):
    """Local-area network latency.

    ``delay = distance/speed + n_switches * switch_delay + serialisation
    + queueing_jitter``.

    Defaults reproduce Table II: any placement within 45 km of fibre
    plus a handful of switches stays well under 1 ms.

    A leg splits into two pieces, which is how the verifier's batch
    body times it: :meth:`fixed_ms` is everything but the jitter (it
    draws nothing, so a caller may compute it once per payload size),
    and :meth:`jitter_draws` takes many jitter samples from one read of
    the stream.  :meth:`one_way_ms` is ``fixed_ms`` plus one
    ``expovariate`` draw; ``n`` calls of it on one stream equal
    ``fixed_ms`` plus ``jitter_draws(rng, n)``, bit for bit.

    Attributes
    ----------
    propagation_speed_km_per_ms:
        2/3 c for fibre (default); set ~0.59 c for copper.
    switch_delay_ms:
        Per-hop store-and-forward delay (decent enterprise gear:
        a few microseconds to ~50 us).
    n_switches:
        Switch hops on the path.
    bandwidth_mbps:
        Link rate for the serialisation term (Gigabit Ethernet default).
    jitter_ms:
        Exponential-mean queueing jitter added when an RNG is supplied
        ("almost no delay at low network loads" -- keep small).
    """

    propagation_speed_km_per_ms: float = FIBRE_SPEED_KM_PER_MS
    switch_delay_ms: float = 0.01
    n_switches: int = 3
    bandwidth_mbps: float = 1000.0
    jitter_ms: float = 0.02

    def __post_init__(self) -> None:
        check_positive("propagation_speed_km_per_ms", self.propagation_speed_km_per_ms)
        check_positive("switch_delay_ms", self.switch_delay_ms, strict=False)
        check_positive("bandwidth_mbps", self.bandwidth_mbps)
        check_positive("jitter_ms", self.jitter_ms, strict=False)
        if self.n_switches < 0:
            raise ConfigurationError(
                f"n_switches must be >= 0, got {self.n_switches}"
            )

    def fixed_ms(self, distance_km: float, payload_bytes: int = 0) -> float:
        """The part of a leg that draws nothing: propagation, switching
        and serialisation."""
        if distance_km < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance_km}")
        propagation = distance_km / self.propagation_speed_km_per_ms
        switching = self.n_switches * self.switch_delay_ms
        serialisation = (payload_bytes * 8.0) / (self.bandwidth_mbps * 1000.0)
        return propagation + switching + serialisation

    def jitter_draws(self, rng: DeterministicRNG, n: int) -> list[float]:
        """``n`` queueing-jitter samples from one read of ``rng``.

        Each sample is the 53-bit uniform and exponential transform of
        :meth:`~repro.crypto.rng.DeterministicRNG.expovariate`, taken
        from 7 bytes of one ``random_bytes(7 * n)`` read, so the result
        and the stream's state afterwards equal ``n`` successive
        ``expovariate(1 / jitter_ms)`` calls.  The read is decoded as
        one integer whose 56-bit words are peeled off last word first.
        With no jitter configured it returns zeros and reads nothing.
        """
        if self.jitter_ms <= 0:
            return [0.0] * n
        rate = 1.0 / self.jitter_ms
        words = int.from_bytes(rng.random_bytes(7 * n), "big")
        log = math.log
        draws = [0.0] * n
        for i in range(n - 1, -1, -1):
            draws[i] = -log(1.0 - ((words & _WORD_MASK) >> 3) / 2**53) / rate
            words >>= 56
        return draws

    def one_way_ms(
        self,
        distance_km: float,
        payload_bytes: int = 0,
        rng: DeterministicRNG | None = None,
    ) -> float:
        delay_ms = self.fixed_ms(distance_km, payload_bytes)
        if rng is not None and self.jitter_ms > 0:
            delay_ms += rng.expovariate(1.0 / self.jitter_ms)
        return delay_ms


@dataclass
class InternetModel(LatencyModel):
    """Wide-area Internet latency.

    ``delay = base/2 + distance/(4/9 c) + per_hop * hops(distance)
    + serialisation + jitter``.

    ``base_rtt_ms`` is the distance-independent floor (last-mile access,
    host stacks); Table III's Brisbane ADSL2 vantage shows ~16-18 ms RTT
    even at 8 km, so the default base is 16 ms.  Hop count grows slowly
    with distance (long-haul paths traverse more routers).

    The defaults are calibrated so the modelled RTTs track Table III
    (18-82 ms over 8-3605 km); the calibration test in
    ``tests/netsim/test_latency.py`` asserts the fit.
    """

    base_rtt_ms: float = 16.0
    effective_speed_km_per_ms: float = INTERNET_SPEED_KM_PER_MS
    per_hop_ms: float = 0.35
    hops_base: int = 4
    hops_per_1000km: float = 3.0
    bandwidth_mbps: float = 20.0  # ADSL2-class access link
    jitter_fraction: float = 0.05

    def __post_init__(self) -> None:
        check_positive("base_rtt_ms", self.base_rtt_ms, strict=False)
        check_positive("effective_speed_km_per_ms", self.effective_speed_km_per_ms)
        check_positive("per_hop_ms", self.per_hop_ms, strict=False)
        check_positive("bandwidth_mbps", self.bandwidth_mbps)
        check_positive("jitter_fraction", self.jitter_fraction, strict=False)

    def hop_count(self, distance_km: float) -> int:
        """Router hops for a path of the given length."""
        if distance_km < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance_km}")
        return self.hops_base + int(self.hops_per_1000km * distance_km / 1000.0)

    def one_way_ms(
        self,
        distance_km: float,
        payload_bytes: int = 0,
        rng: DeterministicRNG | None = None,
    ) -> float:
        if distance_km < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance_km}")
        propagation = distance_km / self.effective_speed_km_per_ms
        routing = self.hop_count(distance_km) * self.per_hop_ms
        serialisation = (payload_bytes * 8.0) / (self.bandwidth_mbps * 1000.0)
        mean = self.base_rtt_ms / 2.0 + propagation + routing + serialisation
        if rng is None or self.jitter_fraction == 0.0:
            return mean
        jitter = rng.expovariate(1.0 / (self.jitter_fraction * mean))
        return mean + jitter


@dataclass
class RFChannelModel(LatencyModel):
    """Radio-frequency channel for classic distance bounding.

    "These protocols are based on the fact that the travel speed of
    radio waves is very similar to the speed of light."  Processing
    delay at the prover is the security-critical parameter: a 1 ms
    timing error corresponds to 150 km of distance error.
    """

    propagation_speed_km_per_ms: float = SPEED_OF_LIGHT_KM_PER_MS
    processing_delay_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        check_positive("propagation_speed_km_per_ms", self.propagation_speed_km_per_ms)
        check_positive("processing_delay_ms", self.processing_delay_ms, strict=False)
        check_positive("jitter_ms", self.jitter_ms, strict=False)

    def one_way_ms(
        self,
        distance_km: float,
        payload_bytes: int = 0,
        rng: DeterministicRNG | None = None,
    ) -> float:
        if distance_km < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance_km}")
        delay_ms = distance_km / self.propagation_speed_km_per_ms + self.processing_delay_ms
        if rng is not None and self.jitter_ms > 0:
            delay_ms += rng.expovariate(1.0 / self.jitter_ms)
        return delay_ms


def timing_error_to_distance_km(error_ms: float) -> float:
    """The paper's conversion: 1 ms of RTT error = 150 km of distance.

    ``distance = error * c / 2`` (divide by two for the round trip).
    """
    if error_ms < 0:
        raise ConfigurationError(f"error must be >= 0, got {error_ms}")
    return error_ms * SPEED_OF_LIGHT_KM_PER_MS / 2.0


def internet_distance_bound_km(rtt_ms: float) -> float:
    """Maximum prover distance for an observed Internet RTT.

    ``distance <= (4/9 c) * rtt / 2`` -- the paper's 3 ms -> 200 km and
    5.406 ms -> 360 km examples.
    """
    if rtt_ms < 0:
        raise ConfigurationError(f"rtt must be >= 0, got {rtt_ms}")
    return INTERNET_SPEED_KM_PER_MS * rtt_ms / 2.0
