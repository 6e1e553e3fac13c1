"""Provider misbehaviour strategies.

Each strategy implements ``handle_request(provider, file_id, index)``,
returns a :class:`~repro.storage.contract.ServeResult`, and is installed
with :meth:`~repro.cloud.provider.CloudProvider.set_strategy`.  The elapsed
time a strategy reports is what the verifier's clock will observe
provider-side, so the physics of each attack lives here:

* :class:`RelayAttack` -- Fig. 6: the local site P holds no data and
  forwards every request to a remote site P~ over the Internet; the
  round costs forward flight + remote disk + return flight.
* :class:`PrefetchRelayAttack` -- relay plus a RAM cache at the local
  site warmed with previously-seen segments; cache hits skip both the
  flight and the disk.
* :class:`CorruptionAttack` -- serves locally but a fraction of
  segments were corrupted/bit-rotted (detected by MAC checks, step 3).
* :class:`DeletionAttack` -- a fraction of segments were discarded to
  save space; requests for them are answered with a substituted
  segment (detected by MAC checks).
"""

from __future__ import annotations

from repro.cloud.provider import CloudProvider
from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import haversine_km
from repro.por.file_format import Segment
from repro.storage.cache import LRUCache
from repro.storage.contract import ServeResult
from repro.util.validation import check_probability


class RelayAttack:
    """Forward audits to a remote data centre (the Fig. 6 scenario).

    Parameters
    ----------
    front_name:
        The local site the verifier believes it is talking to (P).
    remote_name:
        Where the data actually lives (P~).

    Each forwarded request also pays ``forwarding_overhead_ms`` of local
    processing to turn it around.
    """

    forwarding_overhead_ms = 0.05

    def __init__(self, front_name: str, remote_name: str) -> None:
        self.front_name = front_name
        self.remote_name = remote_name
        #: Wire bytes moved remote -> front by forwarded requests.  The
        #: relay's Internet traffic is part of the attack's *cost* (the
        #: economics engine prices it via a CostModel), so it is
        #: metered here rather than assumed free.
        self.relayed_bytes = 0

    def handle_request(
        self, provider: CloudProvider, file_id: bytes, index: int
    ) -> ServeResult:
        """Forward the request to the remote site (paying flight + remote disk)."""
        front = provider.datacentre(self.front_name)
        remote = provider.datacentre(self.remote_name)
        distance_km = haversine_km(front.location, remote.location)
        flight_ms = provider.internet.rtt_ms(distance_km)
        remote_result = remote.lookup(file_id, index)
        self.relayed_bytes += len(remote_result.segment.wire_bytes())
        return ServeResult(
            segment=remote_result.segment,
            elapsed_ms=self.forwarding_overhead_ms
            + flight_ms
            + remote_result.elapsed_ms,
            served_by=f"{self.front_name}->{self.remote_name}",
        )


#: Serving one segment from the front site's RAM cache.
_CACHE_HIT_MS = 0.1


class PrefetchRelayAttack(RelayAttack):
    """Relay with a warm local RAM cache.

    The adversary caches every segment it relays (and can pre-warm the
    cache); a challenged index already in cache is served at RAM speed
    from the front site, defeating both the flight and the disk terms
    *for that round*.  GeoProof's defence is challenge unpredictability:
    with uniform random indices the expected hit rate is bounded by
    cache_size / file_size, so at least one of k rounds misses with
    probability 1 - hit_rate^k -- and the verdict gates on max RTT.
    """

    def __init__(
        self,
        front_name: str,
        remote_name: str,
        *,
        cache_bytes: int,
    ) -> None:
        super().__init__(front_name, remote_name)
        self.cache = LRUCache(cache_bytes)
        #: Wire bytes pulled remote -> front by :meth:`prewarm`.
        self.prewarmed_bytes = 0
        #: Accumulated prewarm bandwidth spend (0 until a cost model
        #: is passed to :meth:`prewarm`).
        self.prewarm_cost_usd = 0.0

    def prewarm(
        self,
        provider: CloudProvider,
        file_id: bytes,
        indices: list[int],
        *,
        cost_model=None,
    ) -> int:
        """Pull segments into the front cache before the audit.

        Warming is *metered*, not free: every segment is read through
        the remote site's :class:`~repro.storage.server.StorageServer`
        (whose spindle, when the server is bound to a requester clock,
        queues and counts those reads) and the wire bytes moved are
        accumulated in :attr:`prewarmed_bytes`.  ``cost_model`` -- any
        object with a ``bandwidth_usd(n_bytes)`` method, canonically a
        :class:`repro.economics.costs.CostModel` -- additionally prices
        the transfer into :attr:`prewarm_cost_usd`.  Returns the number
        of segments warmed.
        """
        remote = provider.datacentre(self.remote_name)
        warmed = 0
        moved = 0
        for index in indices:
            wire = remote.server.lookup(
                file_id, index, remote.name
            ).segment.wire_bytes()
            self.cache.put((file_id, index), wire)
            moved += len(wire)
            warmed += 1
        self.prewarmed_bytes += moved
        if cost_model is not None:
            self.prewarm_cost_usd += cost_model.bandwidth_usd(moved)
        return warmed

    def handle_request(
        self, provider: CloudProvider, file_id: bytes, index: int
    ) -> ServeResult:
        """Serve from the warm front cache when possible, else relay."""
        cached = self.cache.get((file_id, index))
        if cached is not None:
            segment = Segment.from_wire(cached)[0]
            return ServeResult(
                segment=segment,
                elapsed_ms=self.forwarding_overhead_ms + _CACHE_HIT_MS,
                served_by=f"{self.front_name} (cache)",
            )
        result = super().handle_request(provider, file_id, index)
        self.cache.put((file_id, index), result.segment.wire_bytes())
        return result


class PartialRelocationAttack:
    """Keep hot segments local, move the cold tail offshore.

    The economically-smart fraud: a provider saving money on storage
    keeps the fraction of segments it expects to be accessed (or
    challenged) on the contracted site and quietly relocates the rest.
    Requests for relocated segments are relayed.

    This is the strongest argument for GeoProof's *max*-RTT verdict:
    the mean round time barely moves when only a few challenged indices
    hit the relocated tail, but a single relayed round blows the max.
    A quantile/mean gate would need the challenge set to hit the tail
    many times; the max gate needs exactly one hit, so detection per
    audit is ``1 - (local_fraction)^k``.
    """

    def __init__(
        self,
        front_name: str,
        remote_name: str,
        local_fraction: float,
        rng: DeterministicRNG,
    ) -> None:
        check_probability("local_fraction", local_fraction)
        self.front_name = front_name
        self.remote_name = remote_name
        self.local_fraction = local_fraction
        self._rng = rng
        self._relay = RelayAttack(front_name, remote_name)
        self._local_sets: dict[bytes, set[int]] = {}

    def local_indices(self, provider: CloudProvider, file_id: bytes) -> set[int]:
        """The (lazily drawn) segments kept at the front site."""
        if file_id not in self._local_sets:
            remote = provider.datacentre(self.remote_name)
            n = remote.server.store.n_segments(file_id)
            n_local = round(self.local_fraction * n)
            self._local_sets[file_id] = set(
                self._rng.sample_indices(n, n_local)
            )
        return self._local_sets[file_id]

    def handle_request(
        self, provider: CloudProvider, file_id: bytes, index: int
    ) -> ServeResult:
        """Serve hot segments locally; relay the relocated cold tail."""
        front = provider.datacentre(self.front_name)
        if index in self.local_indices(provider, file_id):
            # Hot segment: the front kept a copy; serve at local disk
            # speed (the front's store may not hold the file container,
            # so read from the remote store but charge front disk time).
            remote = provider.datacentre(self.remote_name)
            segment = remote.server.store.get_segment(file_id, index)
            disk_ms = front.server.disk.lookup_ms(segment.size_bytes)
            return ServeResult(
                segment=segment,
                elapsed_ms=disk_ms,
                served_by=f"{self.front_name} (hot)",
            )
        return self._relay.handle_request(provider, file_id, index)


class CorruptionAttack:
    """Serve locally, but a fraction of segments are corrupted.

    ``corrupt_fraction`` of segment indices (chosen pseudorandomly at
    install time) have their payload bit-flipped; tags are left intact
    so step-3 MAC verification is what catches it -- the detection
    probability experiment (claim C2).
    """

    def __init__(
        self,
        datacentre_name: str,
        corrupt_fraction: float,
        rng: DeterministicRNG,
    ) -> None:
        check_probability("corrupt_fraction", corrupt_fraction)
        self.datacentre_name = datacentre_name
        self.corrupt_fraction = corrupt_fraction
        self._rng = rng
        self._corrupted: dict[bytes, set[int]] = {}

    def corrupted_indices(
        self, provider: CloudProvider, file_id: bytes
    ) -> set[int]:
        """The (lazily drawn) corrupted index set for a file."""
        if file_id not in self._corrupted:
            datacentre = provider.datacentre(self.datacentre_name)
            n = datacentre.server.store.n_segments(file_id)
            n_corrupt = round(self.corrupt_fraction * n)
            self._corrupted[file_id] = set(
                self._rng.sample_indices(n, n_corrupt)
            )
        return self._corrupted[file_id]

    def handle_request(
        self, provider: CloudProvider, file_id: bytes, index: int
    ) -> ServeResult:
        """Serve locally, corrupting payloads of the chosen index set."""
        datacentre = provider.datacentre(self.datacentre_name)
        result = datacentre.lookup(file_id, index)
        if index in self.corrupted_indices(provider, file_id):
            payload = bytearray(result.segment.payload)
            payload[0] ^= 0xFF  # single-byte rot: small but tag-fatal
            corrupted = Segment(
                index=result.segment.index,
                payload=bytes(payload),
                tag=result.segment.tag,
            )
            return ServeResult(
                segment=corrupted,
                elapsed_ms=result.elapsed_ms,
                served_by=result.served_by,
            )
        return result


class DeletionAttack:
    """A fraction of segments were deleted; substitutes are served.

    Models space-saving fraud: for deleted indices the provider returns
    the nearest surviving segment *re-labelled* with the requested
    index.  Tags bind position, so the MAC check catches the
    substitution.
    """

    def __init__(
        self,
        datacentre_name: str,
        delete_fraction: float,
        rng: DeterministicRNG,
    ) -> None:
        check_probability("delete_fraction", delete_fraction)
        self.datacentre_name = datacentre_name
        self.delete_fraction = delete_fraction
        self._rng = rng
        self._deleted: dict[bytes, set[int]] = {}

    def deleted_indices(self, provider: CloudProvider, file_id: bytes) -> set[int]:
        """The (lazily drawn) deleted index set for a file."""
        if file_id not in self._deleted:
            datacentre = provider.datacentre(self.datacentre_name)
            n = datacentre.server.store.n_segments(file_id)
            n_delete = round(self.delete_fraction * n)
            self._deleted[file_id] = set(self._rng.sample_indices(n, n_delete))
        return self._deleted[file_id]

    def handle_request(
        self, provider: CloudProvider, file_id: bytes, index: int
    ) -> ServeResult:
        """Serve locally, substituting for deleted indices."""
        datacentre = provider.datacentre(self.datacentre_name)
        deleted = self.deleted_indices(provider, file_id)
        if index not in deleted:
            return datacentre.lookup(file_id, index)
        n = datacentre.server.store.n_segments(file_id)
        substitute_index = next(
            i for i in range(n) if i not in deleted
        )
        result = datacentre.lookup(file_id, substitute_index)
        forged = Segment(
            index=index,
            payload=result.segment.payload,
            tag=result.segment.tag,
        )
        return ServeResult(
            segment=forged,
            elapsed_ms=result.elapsed_ms,
            served_by=result.served_by,
        )
