"""Setuptools packaging for the repro package.  All metadata lives in
this file; there is no pyproject.toml."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # networkx backs repro.netsim.topology (traceroute and the
    # geolocation baselines).  It is imported on the first topology
    # build, so the daemon, fleet and audit paths never load it.
    install_requires=["networkx"],
    # numpy unlocks the vectorized GF(256)/Reed-Solomon data plane
    # (repro.gf.gf256_vec).  Absence is detected at import
    # (repro.gf.HAS_NUMPY) and every caller falls back to the
    # byte-identical scalar path.
    # The dev extra pulls the static-analysis toolchain the CI
    # static-analysis lane runs (repro lint itself is stdlib-only).
    extras_require={"fast": ["numpy"], "dev": ["mypy", "pytest"]},
)
