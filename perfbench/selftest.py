"""Self-test of the benchmark at tiny sizes.

Run with ``python3 perfbench/run.py --self-test``.  Two parts:

1. The checkers catch planted failures: a tampered verdict, a missing
   reply, a duplicate reply, an error reply, a late reply and an
   unsolicited reply are each counted as failed; so are a scalar oracle
   that differs from the committed reference, a fleet report that
   differs from the others or from the reference, and a violator that
   went undetected.
2. Every workload runs end to end for one second, untraced and traced,
   passes its own checks, and prints every named metric with its unit.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import reference
import run
from load import ACCEPTED, ERROR, REJECTED


def _checker_cases() -> list[str]:
    problems = []

    def expect(label: str, got: int, want: int) -> None:
        status = "ok" if got == want else "FAIL"
        print(f"  {status}: {label}: {got} failed (want {want})")
        if got != want:
            problems.append(label)

    oracle = [bytes([i]) * 8 for i in range(6)]
    clean = [(i + 1, ACCEPTED, oracle[i], 1.0) for i in range(6)]
    match = checks.matches_oracle(oracle)
    expect("clean run", checks.check_replies(6, clean, match)[0], 0)

    tampered = list(clean)
    tampered[2] = (3, ACCEPTED, b"\xff" * 8, 1.0)
    expect("tampered verdict", checks.check_replies(6, tampered, match)[0], 1)
    expect("missing reply", checks.check_replies(6, clean[:-1], match)[0], 1)
    duplicate = clean + [clean[4]]
    expect("duplicate reply", checks.check_replies(6, duplicate, match)[0], 1)
    errored = list(clean)
    errored[0] = (1, ERROR, b"", 1.0)
    expect("error reply", checks.check_replies(6, errored, match)[0], 1)
    unsolicited = clean + [(99, ACCEPTED, oracle[0], 1.0)]
    expect("unsolicited reply", checks.check_replies(6, unsolicited, match)[0], 1)
    due = [0.0] * 6
    late = list(clean)
    late[5] = (6, ACCEPTED, oracle[5], 5.0)
    expect(
        "late reply",
        checks.check_replies(6, late, match, due_s=due, latency_limit_s=2.0)[0],
        1,
    )
    rejected = list(clean)
    rejected[1] = (2, REJECTED, oracle[1], 1.0)
    expect(
        "rejected honest audit",
        checks.check_replies(6, rejected, checks.accepted)[0],
        1,
    )

    pinned = reference.oracle_digest(oracle)
    expect(
        "scalar oracle as pinned",
        6 * (not checks.oracle_as_pinned(oracle, pinned)),
        0,
    )
    expect(
        "scalar oracle changed",
        6 * (not checks.oracle_as_pinned([b"\xff" * 8] + oracle[1:], pinned)),
        6,
    )

    campaign = {"digest": "abc", "violator_detected": True, "n_audits": 10}
    expect("fleet clean", checks.check_fleet([campaign, campaign], "abc")[0], 0)
    expect(
        "fleet report differs from reference",
        checks.check_fleet([campaign, campaign], "abd")[0],
        20,
    )
    expect(
        "fleet report differs",
        checks.check_fleet([campaign, dict(campaign, digest="abd")], None)[0],
        10,
    )
    expect(
        "fleet violator missed",
        checks.check_fleet([dict(campaign, violator_detected=False)], None)[0],
        10,
    )
    return problems


def _workload_cases() -> list[str]:
    problems = []
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [
                    sys.executable, os.path.join(run.HERE, "run.py"),
                    "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace),
                ],
                capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                print(f"  FAIL: {label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                problems.append(label)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = run.PER_LAYER if trace else run.END_TO_END
            missing = [
                name for name, unit in names.items()
                if result["metrics"].get(name, {}).get("unit") != unit
            ]
            bad = []
            if not result["correct"] or result["failed"]:
                bad.append(f"correct={result['correct']} failed={result['failed']}")
            if result["attempted"] < 1:
                bad.append("nothing attempted")
            if missing:
                bad.append(f"missing metrics {missing}")
            print(
                f"  {'FAIL' if bad else 'ok'}: {label}: "
                f"{result['attempted']} attempted, "
                f"{len(result['metrics'])} metrics {' '.join(bad)}"
            )
            if bad:
                problems.append(label)
    return problems


def main() -> int:
    print("checkers against planted failures:")
    problems = _checker_cases()
    print("every workload end to end at one second:")
    problems += _workload_cases()
    print("self-test " + ("FAILED: " + ", ".join(problems) if problems else "passed"))
    return 1 if problems else 0
