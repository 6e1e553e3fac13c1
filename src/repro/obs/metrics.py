"""Dependency-free metrics: counters, gauges, fixed-bucket histograms.

Every instrumented component owns one always-on
:class:`MetricsRegistry`, and its series *are* its counts: the
component reads its own reports back from them.  Families are created
idempotently by name (``registry.counter(...)`` twice returns the same
family; a second registration with another kind, other label names or
other buckets raises), children are created lazily per label tuple,
and every structure is bounded: histograms hold a fixed bucket vector
plus running count/sum/max, never the raw observations.

The process-global registry (:func:`repro.obs.metrics`) owns no
series of its own.  When enabled, :meth:`MetricsRegistry.include`
makes it keep the registry of every component built while it is on,
and it sums them by family name and label tuple at exposition time;
when disabled it ignores them and holds nothing.

Two export surfaces, both computed on demand and timestamp-free so the
same run always serializes to the same bytes:

* :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (``# HELP``/``# TYPE``, escaped label values,
  cumulative ``_bucket``/``_sum``/``_count`` per histogram);
* :meth:`MetricsRegistry.snapshot` -- a stable JSON-ready dict (sorted
  families, sorted series) written by ``--metrics-json`` and the
  benchmark ``METRICS_*.json`` artifacts.

Naming follows the UNT lint rules: any time- or distance-valued metric
carries its unit in the name (``..._ms``, ``..._seconds``), so the unit
travels with the series into dashboards the same way it travels with a
variable through the code.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Mapping, Sequence, Union

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
]


#: Default histogram upper bounds (generic latency-ish spread; callers
#: on a known scale should pass their own).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)
_LABEL_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


def _check_name(name: str, allowed: frozenset[str], kind: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= allowed:
        raise ConfigurationError(f"invalid {kind} name: {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Prometheus HELP escaping: backslash and newline only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value: integral floats as integers."""
    if value == int(value):
        return str(int(value))
    return repr(value)


class HistogramValue:
    """A fixed-bucket histogram: bounded memory for unbounded streams.

    Keeps one counter per bucket plus running ``count``/``sum``/``max``;
    the raw observations are never stored, so a daemon can observe
    millions of flushes in a few hundred bytes.  Quantiles are
    estimated by linear interpolation inside the bucket containing the
    target rank (the standard Prometheus ``histogram_quantile``
    estimator); the overflow bucket reports the exact observed max.
    """

    __slots__ = ("_upper_bounds", "_bucket_counts", "_count", "_sum", "_max")

    def __init__(
        self, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing: {bounds}"
            )
        self._upper_bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow (+Inf)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        sample = float(value)
        self._bucket_counts[bisect_left(self._upper_bounds, sample)] += 1
        self._count += 1
        self._sum += sample
        if sample > self._max:
            self._max = sample

    def _add(self, other: HistogramValue) -> None:
        """Fold another histogram over the same buckets into this one."""
        self._bucket_counts = [
            mine + theirs
            for mine, theirs in zip(self._bucket_counts, other._bucket_counts)
        ]
        self._count += other._count
        self._sum += other._sum
        self._max = max(self._max, other._max)

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        return self._sum

    @property
    def max_value(self) -> float:
        """Largest observed value (0.0 when empty)."""
        return self._max

    @property
    def mean(self) -> float:
        """Arithmetic mean of observations (0.0 when empty)."""
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def cumulative_buckets(self) -> Iterator[tuple[float, int]]:
        """Yield ``(le, cumulative_count)`` pairs, ending with +Inf."""
        running = 0
        for bound, bucket_count in zip(
            self._upper_bounds, self._bucket_counts
        ):
            running += bucket_count
            yield (bound, running)
        yield (float("inf"), self._count)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0.0 <= q <= 1.0``).

        Linear interpolation within the bucket holding the target
        rank; a rank landing in the overflow bucket returns the exact
        observed max.  Empty histograms return 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = max(1.0, q * self._count)
        running = 0
        lower = 0.0
        for bound, bucket_count in zip(
            self._upper_bounds, self._bucket_counts
        ):
            if bucket_count:
                if running + bucket_count >= rank:
                    fraction = (rank - running) / bucket_count
                    return min(
                        lower + (bound - lower) * fraction, self._max
                    )
                running += bucket_count
            lower = bound
        return self._max

    def to_dict(self) -> dict[str, object]:
        """Stable JSON-ready form; the +Inf bound serializes as "+Inf"."""
        buckets: list[list[object]] = []
        for bound, cumulative in self.cumulative_buckets():
            le: object = "+Inf" if bound == float("inf") else bound
            buckets.append([le, cumulative])
        return {
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
            "mean": self.mean,
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return (
            f"HistogramValue(count={self._count}, sum={self._sum!r}, "
            f"max={self._max!r})"
        )


class Counter:
    """One monotonically increasing series."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the series."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; inc({amount}) is not allowed"
            )
        self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge:
    """One series that can go up and down (sampled, not accumulated)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the current value upward."""
        self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """One histogram series (a labeled child wrapping a value)."""

    __slots__ = ("_value",)

    def __init__(self, buckets: Sequence[float]) -> None:
        self._value = HistogramValue(buckets)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._value.observe(value)

    @property
    def value(self) -> HistogramValue:
        """The underlying :class:`HistogramValue`."""
        return self._value


Child = Union[Counter, Gauge, Histogram]


def _shape(kind: str, labelnames: tuple[str, ...], buckets: object) -> str:
    text = f"{kind}{labelnames}"
    return text if buckets is None else f"{text} buckets {buckets}"


class _Family:
    """A named metric with zero or more labeled children."""

    __slots__ = ("name", "help_text", "kind", "labelnames", "_children", "_buckets")

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> None:
        _check_name(name, _NAME_OK, "metric")
        for labelname in labelnames:
            _check_name(labelname, _LABEL_OK, "label")
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._buckets = None if buckets is None else tuple(buckets)
        self._children: dict[tuple[str, ...], Child] = {}

    def require_shape(
        self,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None,
    ) -> None:
        """Refuse a family of this name with another kind, labels or buckets."""
        shape = (kind, tuple(labelnames), None if buckets is None else tuple(buckets))
        if shape != (self.kind, self.labelnames, self._buckets):
            raise ConfigurationError(
                f"metric {self.name} registered as {_shape(*shape)}; "
                f"existing family is "
                f"{_shape(self.kind, self.labelnames, self._buckets)}"
            )

    def _make_child(self) -> Child:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets or DEFAULT_BUCKETS)

    def labels(self, *labelvalues: str) -> Any:
        """The child for this label-value tuple, created on first use.

        Typed ``Any`` so call sites can annotate the bound child with
        its concrete class without casting through the union.
        """
        if len(labelvalues) != len(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames}, got {len(labelvalues)}"
            )
        key = tuple(str(value) for value in labelvalues)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    # Unlabeled convenience: family.inc() == family.labels().inc().

    def inc(self, amount: float = 1.0) -> None:
        child = self.labels()
        if isinstance(child, Histogram):
            raise ConfigurationError(f"{self.name} is a histogram")
        child.inc(amount)

    def set(self, value: float) -> None:
        child = self.labels()
        if not isinstance(child, Gauge):
            raise ConfigurationError(f"{self.name} is not a gauge")
        child.set(value)

    def observe(self, value: float) -> None:
        child = self.labels()
        if not isinstance(child, Histogram):
            raise ConfigurationError(f"{self.name} is not a histogram")
        child.observe(value)

    def items(self) -> Iterator[tuple[tuple[str, ...], Child]]:
        """Children in creation order."""
        return iter(self._children.items())

    def series(self) -> Iterator[tuple[tuple[str, ...], Child]]:
        """Children in sorted label order (stable exposition)."""
        for key in sorted(self._children):
            yield key, self._children[key]

    def _add(self, other: _Family) -> None:
        """Sum a same-shaped family into this one, series by series."""
        self.require_shape(other.kind, other.labelnames, other._buckets)
        for key, child in other._children.items():
            total = self._children.get(key)
            if total is None:
                total = self._children[key] = self._make_child()
            if isinstance(total, Histogram):
                total.value._add(child.value)
            else:
                total.inc(child.value)


class MetricsRegistry:
    """A component's metric families, or the plane that sums them."""

    __slots__ = ("_enabled", "_families", "_included", "__weakref__")

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._families: dict[str, _Family] = {}
        self._included: list[MetricsRegistry] = []

    @property
    def enabled(self) -> bool:
        """Whether this registry keeps the registries it is asked to include."""
        return self._enabled

    def include(self, other: MetricsRegistry) -> None:
        """Expose ``other``'s series beside this registry's own.

        ``other`` is a component's own registry.  An enabled registry
        keeps a reference to it (never to the component) and sums its
        families into every :meth:`snapshot` and :meth:`to_prometheus`;
        a disabled one ignores the call and so holds nothing.
        """
        if self._enabled:
            self._included.append(other)

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is not None:
            family.require_shape(kind, labelnames, buckets)
            return family
        family = _Family(name, help_text, kind, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
    ) -> _Family:
        """Get or create a counter family."""
        return self._family(name, help_text, "counter", labelnames)

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
    ) -> _Family:
        """Get or create a gauge family."""
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> _Family:
        """Get or create a histogram family."""
        return self._family(name, help_text, "histogram", labelnames, buckets)

    def _merged(self) -> dict[str, _Family]:
        """Own and included families, summed by name and label tuple.

        Raises :class:`~repro.errors.ConfigurationError` when two
        registries hold one name with another kind, label names or
        buckets.
        """
        merged: dict[str, _Family] = {}
        for registry in (self, *self._included):
            for name, family in registry._families.items():
                total = merged.get(name)
                if total is None:
                    total = merged[name] = _Family(
                        name, family.help_text, family.kind,
                        family.labelnames, family._buckets,
                    )
                total._add(family)
        return merged

    # -- exposition -----------------------------------------------------

    @staticmethod
    def _labels_text(
        labelnames: Sequence[str],
        labelvalues: Sequence[str],
        extra: Sequence[tuple[str, str]] = (),
    ) -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(labelnames, labelvalues)
        ]
        pairs.extend(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in extra
        )
        if not pairs:
            return ""
        return "{" + ",".join(pairs) + "}"

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every family."""
        lines: list[str] = []
        merged = self._merged()
        for name in sorted(merged):
            family = merged[name]
            lines.append(f"# HELP {name} {_escape_help(family.help_text)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for labelvalues, child in family.series():
                labels_text = self._labels_text(
                    family.labelnames, labelvalues
                )
                if isinstance(child, (Counter, Gauge)):
                    lines.append(
                        f"{name}{labels_text} {_format_value(child.value)}"
                    )
                    continue
                hist = child.value
                for bound, cumulative in hist.cumulative_buckets():
                    le = (
                        "+Inf"
                        if bound == float("inf")
                        else _format_value(bound)
                    )
                    bucket_labels = self._labels_text(
                        family.labelnames, labelvalues, extra=(("le", le),)
                    )
                    lines.append(
                        f"{name}_bucket{bucket_labels} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{labels_text} {_format_value(hist.sum)}"
                )
                lines.append(f"{name}_count{labels_text} {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, object]:
        """Stable JSON-ready snapshot (sorted, timestamp-free)."""
        families: list[dict[str, object]] = []
        merged = self._merged()
        for name in sorted(merged):
            family = merged[name]
            series: list[dict[str, object]] = []
            for labelvalues, child in family.series():
                labels: Mapping[str, str] = dict(
                    zip(family.labelnames, labelvalues)
                )
                if isinstance(child, (Counter, Gauge)):
                    series.append(
                        {"labels": labels, "value": child.value}
                    )
                else:
                    series.append(
                        {"labels": labels, "value": child.value.to_dict()}
                    )
            families.append(
                {
                    "name": name,
                    "type": family.kind,
                    "help": family.help_text,
                    "labelnames": list(family.labelnames),
                    "series": series,
                }
            )
        return {"enabled": self._enabled, "families": families}
