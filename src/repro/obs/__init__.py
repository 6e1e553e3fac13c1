"""The observability plane: metrics registry + dual-clock tracing.

``repro.obs`` is the one instrumentation substrate every layer shares
-- fleet lanes, the netsim spindles, the TPA's verify flushes, the
service daemon, the provider registry.  It is dependency-free and
bounded in memory.

Every instrumented component counts into a small
:class:`MetricsRegistry` of its own, always on: those series are the
component's only copy of its numbers, and its reports
(``DispatchStats``, ``acceptance_rate()``, ``failures_by_reason()``,
``LaneStats``, ``SpindleStats``) read them back.  The process-global
registry is **off by default** and then holds nothing.  Enabling it
makes it include the registry of every component built afterwards and
sum them at exposition (the overhead is CI-gated <= 5% even with
tracing on -- see ``benchmarks/bench_fleet.py`` / ``bench_daemon.py``).

Typical use::

    from repro import obs

    obs.set_enabled(True)          # BEFORE building instrumented objects
    fleet = build_fleet(...)       # components register with the plane now
    fleet.run(...)
    print(obs.metrics().to_prometheus())
    obs.tracer().dump_jsonl("trace.jsonl")

A component registers with the global registry at construction, so
enable the plane *before* building the objects you want exposed.
Tests isolate themselves with :func:`use_registry`, which swaps a
fresh registry in for the duration of a ``with`` block.

Clock domains are strict: library spans read injected sim clocks
(:meth:`~repro.obs.tracing.Tracer.span`), wall time enters only via
:func:`repro.util.wallclock.wall_seconds`
(:meth:`~repro.obs.tracing.Tracer.wall_span`) -- SIM001 still bans any
other wall-clock read in ``src/``, including inside ``repro.obs``
itself (pinned by ``tests/lint/test_rules_sim.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    MetricsRegistry,
    iter_quantiles,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "iter_quantiles",
    "metrics",
    "set_enabled",
    "tracer",
    "use_registry",
]

#: Off by default: a disabled registry includes nothing.
_REGISTRY = MetricsRegistry(enabled=False)
_TRACER = Tracer(enabled=False)


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def set_enabled(enabled: bool) -> MetricsRegistry:
    """Switch the plane on or off; returns the (fresh) global registry.

    Either way the global registry is replaced by a fresh one.  An
    enabled one includes the registry of each component built after
    this call, so call it *before* building the fleet/daemon you want
    exposed.  The tracer keeps its ring across toggles.
    """
    global _REGISTRY
    _REGISTRY = MetricsRegistry(enabled=enabled)
    _TRACER.set_enabled(enabled)
    return _REGISTRY


@contextmanager
def use_registry(
    registry: MetricsRegistry, trace: Tracer | None = None
) -> Iterator[MetricsRegistry]:
    """Swap the global registry (and optionally tracer) for a block.

    Test isolation: each test builds its own registry, instruments its
    own components, and restores the previous plane on exit no matter
    what the body raised.
    """
    global _REGISTRY, _TRACER
    previous_registry, previous_tracer = _REGISTRY, _TRACER
    _REGISTRY = registry
    if trace is not None:
        _TRACER = trace
    try:
        yield registry
    finally:
        _REGISTRY, _TRACER = previous_registry, previous_tracer
