"""The repo benchmark's traced run still finds every entry point it wraps.

``perfbench/tracing.py`` patches layer entry points in ``src/`` by
attribute name, so renaming or removing one breaks the traced
benchmark run.  This test installs every patch and takes them all off
again, so the rename fails on every push instead of in the full lane.
It loads the benchmark module from its file and changes nothing under
``perfbench/``.
"""

import importlib.util
import pathlib

from repro.fleet.strategies import RiskWeightedStrategy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists_and_is_restored():
    tracing = load_tracing()
    # Record each patch as it is made, so a target missing halfway
    # through install() still gets the earlier patches taken off.
    made = []
    make_patch = tracing._patch

    def recording_patch(owner, attr, wrap):
        made.append(make_patch(owner, attr, wrap))
        return made[-1]

    tracing._patch = recording_patch
    try:
        patches = tracing.install(
            tracing.SpanStore(), fleet_strategy=RiskWeightedStrategy()
        )
        assert patches == made
    finally:
        tracing.uninstall(made)
        first_original = {}
        for owner, attr, original in made:
            first_original.setdefault((owner, attr), original)
        for (owner, attr), original in first_original.items():
            assert getattr(owner, attr) == original, f"{owner}.{attr}"
    # Some targets are wrapped twice (AuditDispatcher.process_batch).
    assert len(first_original) < len(made)
