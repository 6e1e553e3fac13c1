"""The metrics registry: exposition invariants, bounded histograms.

The two export surfaces are contracts: Prometheus text must parse and
honour the histogram invariants (cumulative ``_bucket`` ending at
``+Inf == _count``), and :meth:`MetricsRegistry.snapshot` must be a
stable JSON round-trip.  An enabled registry sums the registries it
includes; a disabled one keeps and exposes nothing.
"""

import json
import math
import re

import pytest

from repro.errors import ConfigurationError
from repro.obs import HistogramValue, MetricsRegistry

def n_series(registry):
    """Labeled series across every family of a registry's snapshot."""
    return sum(len(f["series"]) for f in registry.snapshot()["families"])


#: ``name{labels} value`` -- every non-comment exposition line.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)$"
)


def parse_exposition(text):
    """Parse Prometheus text into (helps, types, samples) or fail."""
    helps, types, samples = {}, {}, []
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
        else:
            match = _SAMPLE_RE.match(line)
            assert match is not None, f"unparseable line: {line!r}"
            samples.append(
                (
                    match.group("name"),
                    match.group("labels") or "",
                    match.group("value"),
                )
            )
    return helps, types, samples


class TestHistogramValue:
    def test_count_sum_max_mean(self):
        hist = HistogramValue((1.0, 10.0))
        for value in (0.5, 2.0, 2.5, 20.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 25.0
        assert hist.max_value == 20.0
        assert hist.mean == 6.25

    def test_cumulative_buckets_end_at_inf_with_total_count(self):
        hist = HistogramValue((1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        buckets = list(hist.cumulative_buckets())
        assert buckets == [(1.0, 1), (10.0, 2), (math.inf, 3)]
        # Cumulative counts never decrease.
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)

    def test_boundary_value_lands_in_its_le_bucket(self):
        hist = HistogramValue((1.0, 10.0))
        hist.observe(1.0)  # le="1.0" is inclusive
        assert list(hist.cumulative_buckets())[0] == (1.0, 1)

    def test_quantiles_interpolate_and_clamp_to_max(self):
        hist = HistogramValue((1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 3.5):
            hist.observe(value)
        assert 0.0 < hist.quantile(0.5) <= 2.0
        # The top quantile cannot exceed the observed max, even though
        # the containing bucket's upper bound is higher.
        assert hist.quantile(0.99) <= hist.max_value

    def test_overflow_quantile_reports_exact_max(self):
        hist = HistogramValue((1.0,))
        hist.observe(123.0)
        assert hist.quantile(0.99) == 123.0

    def test_empty_histogram_is_all_zero(self):
        hist = HistogramValue()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0

    def test_to_dict_spells_the_last_bound_plus_inf(self):
        hist = HistogramValue((1.0,))
        hist.observe(2.0)
        data = hist.to_dict()
        assert data["buckets"][-1] == ["+Inf", 1]
        # The dict is JSON-clean (no float("inf") leaking through).
        assert json.loads(json.dumps(data)) == data

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            HistogramValue(())
        with pytest.raises(ConfigurationError):
            HistogramValue((1.0, 1.0))
        with pytest.raises(ConfigurationError):
            HistogramValue((2.0, 1.0))

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            HistogramValue().quantile(1.5)


class TestRegistry:
    def test_families_are_idempotent_by_name(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_things_total", "things")
        second = registry.counter("repro_things_total", "things")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", "things")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_things_total", "things")

    def test_labelnames_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", "things", ("site",))
        with pytest.raises(ConfigurationError):
            registry.counter("repro_things_total", "things", ("lane",))

    def test_buckets_mismatch_rejected(self):
        registry = MetricsRegistry()
        family = registry.histogram("repro_c_ms", "c", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError, match="buckets"):
            registry.histogram("repro_c_ms", "c", buckets=(10.0, 20.0, 30.0))
        # Equal bounds spelled as ints are the same buckets.
        assert registry.histogram("repro_c_ms", "c", buckets=(1, 2)) is family

    def test_label_arity_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_things_total", "things", ("site",))
        with pytest.raises(ConfigurationError):
            family.labels("a", "b")

    def test_bad_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad name", "nope")
        with pytest.raises(ConfigurationError):
            registry.counter("9leading", "nope")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", "nope", ("bad-label",))

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_things_total", "things")
        with pytest.raises(ConfigurationError):
            family.inc(-1.0)

    def test_series_count_counts_children(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_things_total", "things", ("s",))
        family.labels("a").inc()
        family.labels("b").inc()
        family.labels("a").inc()  # same child, no new series
        assert n_series(registry) == 2


class TestPrometheusExposition:
    def test_every_line_parses_with_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a counter", ("site",)).labels(
            "bne"
        ).inc(3)
        registry.gauge("repro_b", "a gauge").set(1.5)
        registry.histogram(
            "repro_c_ms", "a histogram", buckets=(1.0, 10.0)
        ).observe(2.0)
        helps, types, samples = parse_exposition(registry.to_prometheus())
        assert helps == {
            "repro_a_total": "a counter",
            "repro_b": "a gauge",
            "repro_c_ms": "a histogram",
        }
        assert types == {
            "repro_a_total": "counter",
            "repro_b": "gauge",
            "repro_c_ms": "histogram",
        }
        names = [name for name, _, _ in samples]
        assert "repro_a_total" in names
        assert "repro_b" in names

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a", ("site",)).labels(
            'b\n"x\\'
        ).inc()
        text = registry.to_prometheus()
        assert 'site="b\\n\\"x\\\\"' in text
        # Still one physical line per sample: the newline was escaped.
        _, _, samples = parse_exposition(text)
        assert len(samples) == 1

    def test_histogram_bucket_sum_count_invariants(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "repro_c_ms", "c", ("lane",), buckets=(1.0, 10.0)
        )
        for value in (0.5, 5.0, 50.0):
            family.labels("hot").observe(value)
        _, _, samples = parse_exposition(registry.to_prometheus())
        buckets = [s for s in samples if s[0] == "repro_c_ms_bucket"]
        assert [s[2] for s in buckets] == ["1", "2", "3"]
        assert 'le="+Inf"' in buckets[-1][1]
        (count,) = [s for s in samples if s[0] == "repro_c_ms_count"]
        assert count[2] == "3"  # +Inf bucket == _count
        (total,) = [s for s in samples if s[0] == "repro_c_ms_sum"]
        assert float(total[2]) == 55.5

    def test_empty_registry_emits_nothing(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestSnapshot:
    def test_json_round_trip_is_lossless_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a", ("site",)).labels("x").inc(2)
        registry.histogram("repro_c_ms", "c").observe(3.0)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap
        # Snapshots are deterministic: same registry, same bytes.
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            registry.snapshot(), sort_keys=True
        )

    def test_families_and_series_sorted(self):
        registry = MetricsRegistry()
        registry.counter("repro_z_total", "z")
        registry.counter("repro_a_total", "a", ("s",)).labels("b").inc()
        registry.counter("repro_a_total", "a", ("s",)).labels("a").inc()
        snap = registry.snapshot()
        assert [f["name"] for f in snap["families"]] == [
            "repro_a_total",
            "repro_z_total",
        ]
        assert [
            s["labels"]["s"] for s in snap["families"][0]["series"]
        ] == ["a", "b"]


def component(total=0.0, *, site="a", waits=(), buckets=(1.0, 10.0)):
    """A component-style registry: one counter and one histogram."""
    registry = MetricsRegistry()
    registry.counter("repro_a_total", "a", ("site",)).labels(site).inc(total)
    hist = registry.histogram("repro_c_ms", "c", ("site",), buckets=buckets)
    for value in waits:
        hist.labels(site).observe(value)
    return registry


def series(registry, name):
    for family in registry.snapshot()["families"]:
        if family["name"] == name:
            return {
                tuple(item["labels"].values()): item["value"]
                for item in family["series"]
            }
    return None


class TestIncludedRegistries:
    def test_counters_and_gauges_sum_per_label_tuple(self):
        plane = MetricsRegistry()
        plane.include(component(2.0, site="a"))
        plane.include(component(3.0, site="a"))
        plane.include(component(5.0, site="b"))
        gauges = [MetricsRegistry(), MetricsRegistry()]
        for registry, value in zip(gauges, (1.5, -0.5)):
            registry.gauge("repro_b", "b").set(value)
            plane.include(registry)
        assert series(plane, "repro_a_total") == {("a",): 5.0, ("b",): 5.0}
        assert series(plane, "repro_b") == {(): 1.0}
        assert n_series(plane) == 3

    def test_histograms_add_buckets_counts_sums_and_take_max(self):
        plane = MetricsRegistry()
        plane.include(component(waits=(0.5, 5.0)))
        plane.include(component(waits=(50.0, 2.0)))
        reference = HistogramValue((1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 2.0):
            reference.observe(value)
        assert series(plane, "repro_c_ms") == {("a",): reference.to_dict()}
        _, _, samples = parse_exposition(plane.to_prometheus())
        assert [s[2] for s in samples if s[0] == "repro_c_ms_bucket"] == [
            "1", "3", "4"
        ]

    def test_own_families_merge_with_included_ones(self):
        plane = MetricsRegistry()
        plane.counter("repro_a_total", "a", ("site",)).labels("a").inc()
        plane.include(component(2.0))
        assert series(plane, "repro_a_total") == {("a",): 3.0}

    def test_included_registry_is_read_live(self):
        plane = MetricsRegistry()
        own = component(1.0)
        plane.include(own)
        own.counter("repro_a_total", "a", ("site",)).labels("a").inc()
        assert series(plane, "repro_a_total") == {("a",): 2.0}

    @pytest.mark.parametrize(
        "other",
        [
            lambda r: r.gauge("repro_a_total", "a", ("site",)),
            lambda r: r.counter("repro_a_total", "a", ("lane",)),
            lambda r: r.histogram(
                "repro_c_ms", "c", ("site",), buckets=(1.0, 5.0)
            ),
        ],
        ids=["kind", "labelnames", "buckets"],
    )
    def test_mismatched_shapes_fail_closed(self, other):
        plane = MetricsRegistry()
        plane.include(component(1.0))
        clash = MetricsRegistry()
        other(clash)
        plane.include(clash)
        with pytest.raises(ConfigurationError):
            plane.snapshot()
        with pytest.raises(ConfigurationError):
            plane.to_prometheus()

    def test_disabled_registry_ignores_include_and_exposes_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.include(component(4.0, waits=(1.0,)))
        assert n_series(registry) == 0
        assert registry.to_prometheus() == ""
        assert registry.snapshot() == {"enabled": False, "families": []}
