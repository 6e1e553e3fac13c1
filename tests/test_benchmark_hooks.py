"""The repo benchmark still builds and traces against ``src/``.

``perfbench/tracing.py`` patches layer entry points in ``src/`` by
attribute name, and ``perfbench/deploy.py`` builds every workload's
deployment through the public API by keyword.  Renaming or removing
either kind of name breaks the benchmark run, so these tests install
every patch and take them all off again, build each deployment and
replay the committed fleet reference: the rename then fails on every
push instead of in the full lane.  They load the benchmark modules
from their files and change nothing under ``perfbench/``.
"""

import ast
import importlib.util
import inspect
import json
import pathlib
import sys

import pytest

from repro.fleet.strategies import RiskWeightedStrategy
from repro.service import AuditDaemon

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _from_perfbench(module) -> bool:
    path = getattr(module, "__file__", None)
    return path is not None and pathlib.Path(path).parent == PERFBENCH


@pytest.fixture
def deploy():
    """``perfbench/deploy.py``, with ``perfbench/`` on ``sys.path``.

    ``deploy`` imports its sibling ``load`` by bare name.  The path
    entry and every module loaded from ``perfbench/`` go again after
    the test.
    """
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_deploy", PERFBENCH / "deploy.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name, module in list(sys.modules.items()):
            if _from_perfbench(module):
                del sys.modules[name]


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


def test_every_deployment_builds(deploy):
    light = deploy.light_session(0)
    backend = deploy.light_onboard(light, 0)
    assert sorted(backend.file_ids()) == sorted(
        deploy.light_file_id(i) for i in range(deploy.LIGHT_FILES)
    )
    deep = deploy.deep_session(0)
    assert deep.sla.min_rounds == deploy.DEEP_KS[0]


def test_the_daemon_keywords_perfbench_passes_bind():
    """``program.py`` builds its ``AuditDaemon`` by keyword; every one
    must still bind, or each daemon workload fails to start."""
    tree = ast.parse((PERFBENCH / "program.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "AuditDaemon"
    ]
    assert len(calls) == 1
    keywords = {kw.arg: None for kw in calls[0].keywords}
    assert None not in keywords  # no **kwargs to hide a name behind
    inspect.signature(AuditDaemon).bind(**keywords)


@pytest.mark.parametrize("seed", [0, 1])
def test_fleet_replays_the_committed_reference(deploy, seed):
    # Seed 1 is the seed every fleet-campaign measurement runs.
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    fleet = deploy.build_fleet(seed, strategy=RiskWeightedStrategy())
    report = fleet.run(hours=deploy.FLEET_HOURS)
    assert deploy.fleet_digest(report.to_dict()) == reference["fleet"][str(seed)]
