"""Elastic storage-provider registry with circuit-breaker health.

The daemon never talks to a storage backend directly: it asks the
registry, and the registry picks the first *admitted* backend along the
requested chain.  Health follows the classic circuit-breaker shape:

* ``K`` **consecutive** :class:`~repro.errors.StorageUnavailableError`
  failures mark a backend unhealthy (the circuit opens) and requests
  route straight to its fallback chain;
* after ``probe_delay_ms`` of wall time the next request is allowed
  through as a **half-open probe**: success re-admits the backend
  (circuit closes, failure count resets), failure re-opens a fresh
  back-off window.

Each chain is resolved once: the first serve along it (or a
:meth:`ProviderRegistry.chain` call) checks every name it lists and
caches its backends and their health records, and :meth:`add` drops
that cache.  A chain naming a backend never added raises
:class:`~repro.errors.ConfigurationError` on use and is not cached;
the daemon resolves every chain when it starts, so such a registry
fails there rather than on its first order.

A :class:`~repro.errors.BlockNotFoundError` is a *data* miss, not a
health signal: the chain falls through to a backend that holds the
file, and the failing backend's health is untouched.

The registry duck-types the provider side of the audit loop
(``handle_request(file_id, index)``), so a
:class:`~repro.cloud.verifier.VerifierDevice` can run its timed rounds
directly against ``registry`` and transparently inherit failover.

``now_fn`` injects the probe timer's clock; tests pass a fake to pin
the half-open schedule, the daemon uses the host monotonic clock (this
is real-time serving code -- see the SIM001 allowlist rationale in
``docs/INVARIANTS.md``).  Only the circuit reads it: a healthy backend
that serves costs no reading, a failure costs one (it stamps the
circuit's opening), and an open circuit costs one per request, which
a failed probe reuses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.errors import (
    BlockNotFoundError,
    ConfigurationError,
    StorageUnavailableError,
)
from repro.obs.metrics import MetricsRegistry
from repro.storage.contract import ServeResult, StorageProvider

#: Health states a backend moves through.
HEALTHY = "healthy"
UNHEALTHY = "unhealthy"


@dataclass(frozen=True, slots=True)
class BackendStatus:
    """Immutable snapshot of one backend's health for reporting."""

    name: str
    state: str
    consecutive_failures: int
    n_successes: int
    n_failures: int
    n_probes: int
    #: Wall timestamp (ms, registry clock) the circuit last opened.
    opened_at_ms: float


class _Health:
    """Mutable per-backend circuit state."""

    __slots__ = (
        "name",
        "state",
        "consecutive_failures",
        "n_successes",
        "n_failures",
        "n_probes",
        "opened_at_ms",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.n_successes = 0
        self.n_failures = 0
        self.n_probes = 0
        self.opened_at_ms = 0.0


#: One link of a resolved chain: a backend's name, the backend and its
#: circuit state.
_Link = tuple[str, StorageProvider, _Health]


def _monotonic_ms() -> float:
    return time.monotonic() * 1000.0


class ProviderRegistry:
    """Named storage backends + health tracking + failover chains."""

    def __init__(
        self,
        *,
        unhealthy_after: int = 3,
        probe_delay_ms: float = 1_000.0,
        now_fn: Callable[[], float] | None = None,
    ) -> None:
        if unhealthy_after < 1:
            raise ConfigurationError(
                f"unhealthy_after must be >= 1, got {unhealthy_after}"
            )
        if probe_delay_ms < 0:
            raise ConfigurationError(
                f"probe_delay_ms must be >= 0, got {probe_delay_ms}"
            )
        self.unhealthy_after = unhealthy_after
        self.probe_delay_ms = probe_delay_ms
        self._now = now_fn if now_fn is not None else _monotonic_ms
        self._backends: dict[str, StorageProvider] = {}
        self._fallbacks: dict[str, tuple[str, ...]] = {}
        self._health: dict[str, _Health] = {}
        #: Resolved chains: (name, backend, health) per link, in order.
        self._chains: dict[str, tuple[_Link, ...]] = {}
        self._primary: str | None = None
        #: The registry's own metrics: circuit transitions per backend.
        self.metrics = MetricsRegistry()
        self._transitions = self.metrics.counter(
            "repro_provider_circuit_transitions_total",
            "Circuit-breaker transitions per backend "
            "(open, reopen after a failed probe, close)",
            ("backend", "transition"),
        )
        obs.metrics().include(self.metrics)

    # -- registration ---------------------------------------------------

    def add(
        self,
        backend: StorageProvider,
        *,
        fallbacks: Sequence[str] = (),
    ) -> None:
        """Register a backend under its own name.

        ``fallbacks`` names the chain tried (in order) when this
        backend cannot serve; the names may refer to backends added
        later and are resolved on first use, once.  Adding a backend
        drops every resolved chain, so the next serve resolves its
        chain again.  The first backend added is the default primary.
        """
        name = backend.name
        if name in self._backends:
            raise ConfigurationError(f"duplicate backend {name!r}")
        if name in fallbacks:
            raise ConfigurationError(
                f"backend {name!r} cannot be its own fallback"
            )
        self._backends[name] = backend
        self._fallbacks[name] = tuple(fallbacks)
        self._health[name] = _Health(name)
        self._chains.clear()
        if self._primary is None:
            self._primary = name

    def set_primary(self, name: str) -> None:
        """Route :meth:`handle_request` through this backend's chain.

        Only picks the chain; resolving it stays with the first serve.
        """
        self.get(name)  # validates
        self._primary = name

    @property
    def primary(self) -> str:
        if self._primary is None:
            raise ConfigurationError("registry has no backends")
        return self._primary

    def get(self, name: str) -> StorageProvider:
        backend = self._backends.get(name)
        if backend is None:
            raise ConfigurationError(f"unknown backend {name!r}")
        return backend

    def names(self) -> list[str]:
        """All backend names, in registration order."""
        return list(self._backends)

    def chain(self, name: str) -> list[str]:
        """The serve order starting at ``name`` (itself, then fallbacks).

        Resolves the chain if no serve has yet, so a name that was
        never added raises :class:`~repro.errors.ConfigurationError`
        here.
        """
        return [link[0] for link in self._resolve(name)]

    def _resolve(self, name: str) -> tuple[_Link, ...]:
        """``name``'s chain as links, resolved and cached on first use."""
        links = self._chains.get(name)
        if links is None:
            self.get(name)
            names = [name]
            for fallback in self._fallbacks[name]:
                self.get(fallback)  # late-bound names must exist by now
                if fallback not in names:
                    names.append(fallback)
            links = tuple(
                (member, self._backends[member], self._health[member])
                for member in names
            )
            self._chains[name] = links
        return links

    # -- health ---------------------------------------------------------

    def status(self, name: str) -> BackendStatus:
        """A snapshot of one backend's circuit state."""
        self.get(name)
        health = self._health[name]
        return BackendStatus(
            name=name,
            state=health.state,
            consecutive_failures=health.consecutive_failures,
            n_successes=health.n_successes,
            n_failures=health.n_failures,
            n_probes=health.n_probes,
            opened_at_ms=health.opened_at_ms,
        )

    def is_healthy(self, name: str) -> bool:
        self.get(name)
        return self._health[name].state == HEALTHY

    def _record_failure(self, health: _Health, now_ms: float) -> None:
        health.n_failures += 1
        health.consecutive_failures += 1
        if (
            health.state == UNHEALTHY
            or health.consecutive_failures >= self.unhealthy_after
        ):
            # Open (or re-open after a failed probe) a fresh window.
            transition = "reopen" if health.state == UNHEALTHY else "open"
            health.state = UNHEALTHY
            health.opened_at_ms = now_ms
            self._transitions.labels(health.name, transition).inc()

    # -- serving --------------------------------------------------------

    def serve_via(
        self, name: str, file_id: bytes, index: int
    ) -> ServeResult:
        """Serve one segment along ``name``'s failover chain.

        Tries each admitted backend in chain order: a healthy one
        always, an unhealthy one only once its back-off window has
        elapsed (the half-open probe).  Unavailability feeds the
        circuit breaker and falls through; a data miss falls through
        without a health penalty.  Raises
        :class:`~repro.errors.StorageUnavailableError` when the whole
        chain is exhausted.

        The chain is the one resolved on first use (see :meth:`add`).
        ``now_fn`` is read only where the circuit needs it: once to
        admit an unhealthy backend, a reading its failed probe reuses,
        and once when a healthy backend fails.  A healthy backend that
        serves reads no clock.
        """
        links = self._chains.get(name) or self._resolve(name)
        reasons: list[str] = []
        for backend_name, backend, health in links:
            if health.state == HEALTHY:
                now_ms = None
            else:
                now_ms = self._now()
                if now_ms - health.opened_at_ms < self.probe_delay_ms:
                    reasons.append(f"{backend_name}: unhealthy, probe not due")
                    continue
                health.n_probes += 1
            try:
                result = backend.handle_request(file_id, index)
            except StorageUnavailableError as exc:
                self._record_failure(
                    health, self._now() if now_ms is None else now_ms
                )
                reasons.append(f"{backend_name}: {exc}")
                continue
            except BlockNotFoundError as exc:
                reasons.append(f"{backend_name}: {exc}")
                continue
            health.n_successes += 1
            health.consecutive_failures = 0
            if now_ms is not None:  # a probe served: the circuit closes
                health.state = HEALTHY
                self._transitions.labels(backend_name, "close").inc()
            return result
        raise StorageUnavailableError(
            f"no backend in the {name!r} chain could serve "
            f"segment {index} of {file_id!r}: " + "; ".join(reasons)
        )

    def handle_request(self, file_id: bytes, index: int) -> ServeResult:
        """Provider-shaped serve via the primary chain.

        This is what makes the registry itself usable as the
        ``provider`` argument of the audit loop.
        """
        return self.serve_via(self.primary, file_id, index)
