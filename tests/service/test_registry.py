"""Pinned circuit-breaker behaviour of the provider registry.

The clock is injected (``now_fn``) so the half-open probe schedule is
exact: K consecutive failures open the circuit, the fallback serves
while it is open, and after ``probe_delay_ms`` one probe is let
through -- success re-admits the backend, failure re-opens a fresh
back-off window.
"""

import pytest

from repro.errors import (
    BlockNotFoundError,
    ConfigurationError,
    StorageUnavailableError,
)
from repro.por.file_format import Segment
from repro.service import HEALTHY, UNHEALTHY, ProviderRegistry
from repro.storage.contract import ServeResult, StorageProvider

FILE = b"file-a"


class FakeClock:
    """Counts its reads; with ``step`` each read moves it on by that much."""

    def __init__(self, step: float = 0.0) -> None:
        self.now_ms = 0.0
        self.step = step
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        reading = self.now_ms
        self.now_ms += self.step
        return reading


class ScriptedBackend(StorageProvider):
    """Serves from RAM unless told to be down; counts every request."""

    def __init__(self, name: str, files=(FILE,)) -> None:
        super().__init__(name)
        self.down = False
        self.requests = 0
        self._files = set(files)

    def exists(self, file_id, index=None):
        return file_id in self._files

    def lookup(self, file_id, index):
        self.requests += 1
        if self.down:
            raise StorageUnavailableError(f"{self.name} is down")
        if file_id not in self._files:
            raise BlockNotFoundError(f"{self.name} does not hold {file_id!r}")
        segment = Segment(index=index, payload=b"\x00" * 4, tag=b"\x00" * 2)
        return ServeResult(
            segment=segment, elapsed_ms=0.0, served_by=self.name
        )

    def put_file(self, encoded):  # pragma: no cover - unused in tests
        raise NotImplementedError

    def delete_file(self, file_id):  # pragma: no cover - unused in tests
        raise NotImplementedError

    def file_ids(self):
        return sorted(self._files)


def build_registry(k=3, probe_delay_ms=1000.0):
    clock = FakeClock()
    registry = ProviderRegistry(
        unhealthy_after=k, probe_delay_ms=probe_delay_ms, now_fn=clock
    )
    primary = ScriptedBackend("primary")
    fallback = ScriptedBackend("fallback")
    registry.add(primary, fallbacks=("fallback",))
    registry.add(fallback)
    return registry, primary, fallback, clock


class TestRegistration:
    def test_first_added_is_primary(self):
        registry, *_ = build_registry()
        assert registry.primary == "primary"
        assert registry.names() == ["primary", "fallback"]

    def test_duplicate_name_rejected(self):
        registry, *_ = build_registry()
        with pytest.raises(ConfigurationError):
            registry.add(ScriptedBackend("primary"))

    def test_self_fallback_rejected(self):
        registry = ProviderRegistry()
        with pytest.raises(ConfigurationError):
            registry.add(ScriptedBackend("a"), fallbacks=("a",))

    def test_unknown_backend_rejected(self):
        registry, *_ = build_registry()
        with pytest.raises(ConfigurationError):
            registry.get("nope")
        with pytest.raises(ConfigurationError):
            registry.set_primary("nope")

    def test_empty_registry_has_no_primary(self):
        with pytest.raises(ConfigurationError):
            ProviderRegistry().primary

    def test_chain_dedupes_and_validates(self):
        registry, *_ = build_registry()
        assert registry.chain("primary") == ["primary", "fallback"]
        assert registry.chain("fallback") == ["fallback"]


class TestCircuitBreaker:
    def test_k_consecutive_failures_open_the_circuit(self):
        registry, primary, _, _ = build_registry(k=3)
        primary.down = True
        for n in range(3):
            assert registry.is_healthy("primary"), f"opened after {n} failures"
            registry.handle_request(FILE, 0)  # fallback serves
        assert not registry.is_healthy("primary")
        assert registry.status("primary").state == UNHEALTHY
        assert registry.status("primary").consecutive_failures == 3

    def test_success_resets_the_consecutive_count(self):
        registry, primary, _, _ = build_registry(k=3)
        primary.down = True
        registry.handle_request(FILE, 0)
        registry.handle_request(FILE, 0)
        primary.down = False
        registry.handle_request(FILE, 0)
        assert registry.status("primary").consecutive_failures == 0
        primary.down = True
        registry.handle_request(FILE, 0)
        registry.handle_request(FILE, 0)
        assert registry.is_healthy("primary")  # 2 < K after the reset

    def test_fallback_serves_while_circuit_open(self):
        registry, primary, fallback, _ = build_registry(k=1)
        primary.down = True
        result = registry.handle_request(FILE, 0)
        assert result.served_by == "fallback"
        assert not registry.is_healthy("primary")
        # While open (probe not due) the primary is not even asked.
        before = primary.requests
        for _ in range(5):
            assert registry.handle_request(FILE, 0).served_by == "fallback"
        assert primary.requests == before

    def test_half_open_probe_readmits_on_success(self):
        registry, primary, _, clock = build_registry(k=1, probe_delay_ms=500.0)
        primary.down = True
        registry.handle_request(FILE, 0)
        assert not registry.is_healthy("primary")
        primary.down = False
        clock.now_ms = 499.0  # probe not due yet
        assert registry.handle_request(FILE, 0).served_by == "fallback"
        clock.now_ms = 500.0  # due: one probe goes through
        result = registry.handle_request(FILE, 0)
        assert result.served_by == "primary"
        assert registry.is_healthy("primary")
        assert registry.status("primary").n_probes == 1
        assert registry.status("primary").consecutive_failures == 0

    def test_failed_probe_reopens_a_fresh_window(self):
        registry, primary, _, clock = build_registry(k=1, probe_delay_ms=500.0)
        primary.down = True
        registry.handle_request(FILE, 0)
        clock.now_ms = 500.0
        assert registry.handle_request(FILE, 0).served_by == "fallback"
        assert registry.status("primary").n_probes == 1
        assert registry.status("primary").opened_at_ms == 500.0
        # The fresh window starts at the failed probe, not the first open.
        clock.now_ms = 999.0
        before = primary.requests
        registry.handle_request(FILE, 0)
        assert primary.requests == before
        clock.now_ms = 1000.0
        primary.down = False
        assert registry.handle_request(FILE, 0).served_by == "primary"

    def test_block_not_found_is_not_a_health_signal(self):
        registry, primary, fallback, _ = build_registry(k=1)
        primary._files.clear()  # data miss, backend itself is fine
        for _ in range(5):
            assert registry.handle_request(FILE, 0).served_by == "fallback"
        assert registry.is_healthy("primary")
        assert registry.status("primary").n_failures == 0

    def test_exhausted_chain_raises_with_reasons(self):
        registry, primary, fallback, _ = build_registry(k=2)
        primary.down = True
        fallback.down = True
        with pytest.raises(StorageUnavailableError) as excinfo:
            registry.handle_request(FILE, 0)
        assert "primary" in str(excinfo.value)
        assert "fallback" in str(excinfo.value)

    def test_status_counts_successes_and_failures(self):
        registry, primary, _, _ = build_registry(k=3)
        registry.handle_request(FILE, 0)
        primary.down = True
        registry.handle_request(FILE, 0)
        status = registry.status("primary")
        assert status.n_successes == 1
        assert status.n_failures == 1
        assert status.state == HEALTHY


class TestAuditLoopCompatibility:
    def test_serve_via_secondary_chain(self):
        registry, primary, fallback, _ = build_registry()
        assert registry.serve_via("fallback", FILE, 0).served_by == "fallback"
        assert primary.requests == 0

    def test_handle_request_uses_primary_chain(self):
        registry, primary, _, _ = build_registry()
        registry.set_primary("fallback")
        assert registry.handle_request(FILE, 0).served_by == "fallback"


class TestClockReads:
    """Only the circuit reads ``now_fn``: failures and probes, never a
    healthy serve.  A stepping clock tells the readings apart."""

    @staticmethod
    def solo(clock):
        """One backend, no fallback: its circuit opens on one failure."""
        registry = ProviderRegistry(
            unhealthy_after=1, probe_delay_ms=500.0, now_fn=clock
        )
        backend = ScriptedBackend("solo")
        registry.add(backend)
        return registry, backend

    def test_healthy_serve_reads_no_clock(self):
        registry, _, _, clock = build_registry()
        for _ in range(3):
            assert registry.handle_request(FILE, 0).served_by == "primary"
        assert clock.reads == 0

    def test_failing_healthy_backend_reads_once(self):
        clock = FakeClock(step=1.0)
        clock.now_ms = 250.0
        registry, backend = self.solo(clock)
        backend.down = True
        with pytest.raises(StorageUnavailableError):
            registry.handle_request(FILE, 0)
        assert clock.reads == 1
        assert registry.status("solo").opened_at_ms == 250.0

    def test_failed_probe_reopens_at_its_admission_reading(self):
        clock = FakeClock(step=1.0)
        registry, backend = self.solo(clock)
        backend.down = True
        with pytest.raises(StorageUnavailableError):
            registry.handle_request(FILE, 0)  # opens at 0.0
        clock.now_ms, clock.reads = 600.0, 0
        with pytest.raises(StorageUnavailableError):
            registry.handle_request(FILE, 0)  # the due probe fails
        status = registry.status("solo")
        assert clock.reads == 1
        assert status.n_probes == 1
        assert status.opened_at_ms == 600.0

    def test_late_bound_fallback_serves_once_added(self):
        registry = ProviderRegistry(unhealthy_after=1, now_fn=FakeClock())
        primary = ScriptedBackend("primary")
        registry.add(primary, fallbacks=("late",))
        with pytest.raises(ConfigurationError, match="late"):
            registry.handle_request(FILE, 0)
        assert primary.requests == 0  # refused before any backend ran
        registry.add(ScriptedBackend("late"))
        assert registry.handle_request(FILE, 0).served_by == "primary"
        primary.down = True
        assert registry.handle_request(FILE, 0).served_by == "late"
        assert registry.chain("primary") == ["primary", "late"]
