"""Committed reference results of the program, one entry per seed.

The run-time checks compare a run with the same code's scalar oracle
and with earlier runs of the seed.  Those would pass a change that
alters the scalar path and the batched path together, or one that
changes the fleet report for good.  ``reference.json`` pins what the
program produced when the benchmark was written, for seeds 0-63:

- ``deep_oracle``: SHA-256 over the verdict digests of the first
  ``ORACLE_ORDERS`` scalar audits of the audit-deep order stream;
- ``fleet``: the fleet report digest (wall-clock fields removed).

A seed outside the table is checked against this tree's own scalar
path and runs only.  Regenerating the table is a change to the
benchmark, never part of a change to the program::

    python3 perfbench/reference.py 0 63
"""

from __future__ import annotations

import hashlib
import json
import os
import multiprocessing
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PATH = os.path.join(HERE, "reference.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: Scalar audits of audit-deep pinned per seed.
ORACLE_ORDERS = 1_000


def load() -> dict:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


def oracle_digest(digests: list[bytes]) -> str:
    """One hex digest over the first ``ORACLE_ORDERS`` verdict digests."""
    return hashlib.sha256(b"".join(digests[:ORACLE_ORDERS])).hexdigest()


def _compute(task: tuple[str, int]) -> tuple[str, int, str]:
    import deploy

    kind, seed = task
    if kind == "deep_oracle":
        digests = deploy.deep_oracle(
            seed, ORACLE_ORDERS, deploy.scratch_dir(ROOT, "oracle")
        )
        return kind, seed, oracle_digest(digests)
    from repro.fleet.strategies import RiskWeightedStrategy

    fleet = deploy.build_fleet(seed, strategy=RiskWeightedStrategy())
    report = fleet.run(hours=deploy.FLEET_HOURS)
    return kind, seed, deploy.fleet_digest(report.to_dict())


def main(argv=None) -> int:
    first, last = map(int, (argv or sys.argv[1:]))
    tasks = [
        (kind, seed)
        for seed in range(first, last + 1)
        for kind in ("deep_oracle", "fleet")
    ]
    table: dict = {"oracle_orders": ORACLE_ORDERS, "deep_oracle": {}, "fleet": {}}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for kind, seed, digest in pool.imap_unordered(_compute, tasks):
            table[kind][str(seed)] = digest
            print(kind, seed, digest[:16], flush=True)
    for kind in ("deep_oracle", "fleet"):
        table[kind] = dict(sorted(table[kind].items(), key=lambda kv: int(kv[0])))
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
