"""CPU-speed probe: a fixed unit of work that does not use the program.

The benchmark host is a shared virtual machine. Its CPU speed drifts by
up to 1.8x over tens of seconds, which is longer than one run, so runs
made at different moments disagree by more than any medians inside a
run can fix. The program process therefore times this probe right
before and after each measured stretch, on its own CPU. The rate and
CPU-time metrics are scaled by ``probe_s / REFERENCE_S``: they read as
if the host ran at the reference speed. Latencies that include
deliberate waiting (the dispatcher's flush deadline) are not scaled.

The probe mixes the kinds of work the program does: interpreter
dispatch and dict updates, SHA-256 over short buffers, and modular
exponentiation on 1024-bit integers. It never imports ``repro``, so a
change to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import time

#: Probe time on the reference host (a 2-vCPU Xeon VM, mid-range of
#: its drift); only a unit, so it never changes once chosen.
REFERENCE_S = 0.012

_MODULUS = (1 << 1024) - 105
_BLOB = bytes(range(256)) * 4


def _unit() -> None:
    table = {}
    x = 1
    for i in range(2_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = i
    digest = hashlib.sha256()
    for _ in range(200):
        digest.update(_BLOB)
        digest.copy().digest()
    for base in range(3, 6):
        pow(base, _MODULUS - 2, _MODULUS)


def cpu_probe() -> float:
    """Seconds for one probe unit; the best of three tries."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _unit()
        best = min(best, time.perf_counter() - started)
    return best
