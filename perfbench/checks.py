"""Correctness checks whose failures count into ``failed``.

Pure functions over what a run recorded, so the self-test can plant a
tampered verdict, a missing reply, a duplicate reply or a changed
reference result and watch the checker count it.
"""

from __future__ import annotations

from collections import Counter

from load import ACCEPTED, ERROR
from reference import oracle_digest


def check_replies(
    n_sent: int,
    replies,
    verdict_ok,
    *,
    due_s=None,
    latency_limit_s: float | None = None,
) -> tuple[int, Counter]:
    """Count failed orders; returns ``(n_failed, reasons)``.

    ``replies`` holds ``(order_id, code, digest, received_s)`` as the
    generator records them; order id ``i + 1`` is the stream's i-th
    order.  An order fails when it gets no reply, more than one, an
    error reply, a verdict ``verdict_ok(position, code, digest)``
    rejects, or (when it had a due time) a reply later than
    ``latency_limit_s`` after it was due.  Replies for ids never sent
    count as failures of their own.
    """
    reasons: Counter = Counter()
    first_reply: dict[int, tuple[int, bytes, float]] = {}
    failed: set[int] = set()
    for order_id, code, digest, received_s in replies:
        position = order_id - 1
        if not 0 <= position < n_sent:
            reasons["unsolicited"] += 1
            continue
        if position in first_reply:
            reasons["duplicate"] += 1
            failed.add(position)
            continue
        first_reply[position] = (code, digest, received_s)
    for position in range(n_sent):
        entry = first_reply.get(position)
        if entry is None:
            reasons["missing"] += 1
            failed.add(position)
            continue
        code, digest, received_s = entry
        if code == ERROR:
            reasons["error"] += 1
            failed.add(position)
            continue
        if not verdict_ok(position, code, digest):
            reasons["verdict"] += 1
            failed.add(position)
            continue
        due = due_s[position] if due_s is not None else None
        if (
            due is not None
            and latency_limit_s is not None
            and received_s - due > latency_limit_s
        ):
            reasons["late"] += 1
            failed.add(position)
    return len(failed) + reasons["unsolicited"], reasons


def accepted(_position: int, code: int, _digest: bytes) -> bool:
    """audit-light: every honest audit is accepted."""
    return code == ACCEPTED


def matches_oracle(oracle: list[bytes]):
    """audit-deep: every verdict equals the scalar oracle's."""

    def check(position: int, _code: int, digest: bytes) -> bool:
        return position < len(oracle) and digest == oracle[position]

    return check


def oracle_as_pinned(oracle: list[bytes], expected: str | None) -> bool:
    """audit-deep: the scalar oracle still gives the committed verdicts.

    ``expected`` is the seed's entry in ``reference.json`` (None when
    the seed has none, which passes).
    """
    return expected is None or oracle_digest(oracle) == expected


def check_fleet(results: list[dict], expected_digest: str | None) -> tuple[int, Counter]:
    """fleet-campaign: reports agree with each other and the expected one.

    Every campaign of a seed must produce the same report digest (wall
    clock fields removed) and detect the violator.  ``expected_digest``
    is the seed's committed reference, else an earlier run's digest,
    else None.  A failing campaign fails all of its audits.
    """
    reasons: Counter = Counter()
    reference = expected_digest or (results[0]["digest"] if results else None)
    n_failed = 0
    for result in results:
        bad = False
        if result["digest"] != reference:
            reasons["report_differs"] += 1
            bad = True
        if not result["violator_detected"]:
            reasons["violator_missed"] += 1
            bad = True
        if bad:
            n_failed += result["n_audits"]
    return n_failed, reasons
