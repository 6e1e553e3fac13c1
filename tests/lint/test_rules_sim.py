"""SIM rules: wall clocks and unseeded randomness."""

import pytest

from tests.lint.conftest import SCRIPT, SRC, rule_ids_of

pytestmark = pytest.mark.lint


class TestSIM001WallClock:
    def test_time_time_in_src_flagged(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\nstamp = time.time()\n"}
        )
        assert rule_ids_of(report) == ["SIM001"]
        assert "SimClock" in report.findings[0].message

    def test_perf_counter_in_src_flagged(self, lint_tree):
        report = lint_tree(
            {SRC: "import time\nt0 = time.perf_counter()\n"}
        )
        assert rule_ids_of(report) == ["SIM001"]

    def test_datetime_now_in_src_flagged(self, lint_tree):
        report = lint_tree(
            {SRC: "import datetime\nwhen = datetime.datetime.now()\n"}
        )
        assert rule_ids_of(report) == ["SIM001"]

    def test_wall_clock_in_benchmark_allowed(self, lint_tree):
        report = lint_tree(
            {SCRIPT: "import time\nt0 = time.perf_counter()\n"}
        )
        assert report.findings == []

    def test_injected_clock_in_src_allowed(self, lint_tree):
        report = lint_tree(
            {SRC: "def tick(clock):\n    return clock.now_ms()\n"}
        )
        assert report.findings == []

    def test_service_package_allowlisted(self, lint_tree):
        # repro.service is deployment code: latency stamps and health
        # probes legitimately read the host clock (docs/INVARIANTS.md).
        report = lint_tree(
            {
                "src/repro/service/daemon.py": (
                    "import time\nnow_ms = time.monotonic() * 1000.0\n"
                )
            }
        )
        assert report.findings == []

    def test_allowlist_does_not_leak_to_sibling_packages(self, lint_tree):
        # The exemption is the exact package, not a name prefix.
        report = lint_tree(
            {
                "src/repro/servicex/mod.py": (
                    "import time\nstamp = time.monotonic()\n"
                )
            }
        )
        assert rule_ids_of(report) == ["SIM001"]

    def test_obs_package_not_allowlisted(self, lint_tree):
        # The observability plane is NOT exempt: its wall domain must
        # funnel through util/wallclock.wall_seconds(), the tree's one
        # pragma'd read.  A raw time.time() in repro.obs still fails.
        report = lint_tree(
            {
                "src/repro/obs/metrics.py": (
                    "import time\nstamp = time.time()\n"
                )
            }
        )
        assert rule_ids_of(report) == ["SIM001"]

    def test_obs_wall_clock_via_shim_allowed(self, lint_tree):
        # ...while the sanctioned spelling (importing the shim) is
        # clean: SIM001 matches direct time.*/datetime.* calls only.
        report = lint_tree(
            {
                "src/repro/obs/tracing.py": (
                    "from repro.util.wallclock import wall_seconds\n"
                    "start_s = wall_seconds()\n"
                )
            }
        )
        assert report.findings == []


class TestSIM002Randomness:
    def test_import_random_in_src_flagged(self, lint_tree):
        report = lint_tree({SRC: "import random\n"})
        assert rule_ids_of(report) == ["SIM002"]

    def test_from_random_import_in_src_flagged(self, lint_tree):
        report = lint_tree({SRC: "from random import choice\n"})
        assert rule_ids_of(report) == ["SIM002"]

    def test_seeded_random_in_src_still_flagged(self, lint_tree):
        # Even seeded, random.Random bypasses the PRF streams in src.
        report = lint_tree(
            {SRC: "import random  # repro: lint-ok[SIM002] -- fixture\n"
                  "rng = random.Random(42)\n"}
        )
        assert rule_ids_of(report) == ["SIM002"]

    def test_global_random_fn_in_benchmark_flagged(self, lint_tree):
        report = lint_tree(
            {SCRIPT: "import random\nx = random.random()\n"}
        )
        assert rule_ids_of(report) == ["SIM002"]
        assert "global" in report.findings[0].message

    def test_unseeded_random_in_benchmark_flagged(self, lint_tree):
        report = lint_tree(
            {SCRIPT: "import random\nrng = random.Random()\n"}
        )
        assert rule_ids_of(report) == ["SIM002"]
        assert "unseeded" in report.findings[0].message

    def test_seeded_random_in_benchmark_allowed(self, lint_tree):
        report = lint_tree(
            {SCRIPT: "import random\nrng = random.Random(42)\n"}
        )
        assert report.findings == []
