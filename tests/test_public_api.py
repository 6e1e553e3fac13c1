"""Public-API hygiene: exports resolve, everything public is documented,
and a cold import pays only for what the process runs."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import repro

PUBLIC_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cloud",
    "repro.core",
    "repro.crypto",
    "repro.distbound",
    "repro.economics",
    "repro.erasure",
    "repro.fleet",
    "repro.geo",
    "repro.geoloc",
    "repro.gf",
    "repro.netsim",
    "repro.obs",
    "repro.por",
    "repro.storage",
    "repro.util",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("package_name", PUBLIC_PACKAGES)
    def test_package_all_resolves(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert getattr(package, name, None) is not None, (
                f"{package_name}.{name}"
            )

    def test_lazy_core_exports(self):
        import repro.core as core

        assert core.GeoProofSession is not None
        assert core.DynamicGeoProofSession is not None
        with pytest.raises(AttributeError):
            core.does_not_exist


class TestDocumentation:
    @pytest.mark.parametrize("package_name", PUBLIC_PACKAGES)
    def test_package_docstrings(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__) > 40, package_name

    def test_public_classes_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, undocumented

    def test_public_class_methods_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if not inspect.isclass(obj):
                continue
            for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(f"{name}.{method_name}")
        assert not undocumented, undocumented

    def test_version_string(self):
        assert repro.__version__ == "1.0.0"


# Run in a fresh interpreter: counts calls of the Schnorr group search
# while importing the daemon and fleet entry points, then checks that
# networkx arrives only with the first topology build.
_COLD_IMPORT_PROBE = """
import json
import sys

group_searches = 0


def count_group_searches(frame, event, arg):
    global group_searches
    if event == "call" and frame.f_code.co_name == "_generate_group":
        group_searches += 1


sys.setprofile(count_group_searches)
import repro
import repro.fleet.demo
import repro.service
sys.setprofile(None)
networkx_after_import = "networkx" in sys.modules

from repro.netsim.topology import NetworkTopology

NetworkTopology()
print(json.dumps({
    "group_searches": group_searches,
    "networkx_after_import": networkx_after_import,
    "networkx_after_topology": "networkx" in sys.modules,
}))
"""


class TestColdImport:
    def test_import_searches_no_group_and_loads_no_networkx(self):
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=src_dir),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == {
            "group_searches": 0,
            "networkx_after_import": False,
            "networkx_after_topology": True,
        }
