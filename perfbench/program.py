"""The program side of the benchmark: one child process per deployment.

``run.py`` starts this file as a separate process so the program under
test never shares an interpreter with the load generator.  It speaks
JSON lines: one ``ready`` line on stdout once set-up is done, then
answers commands read from stdin.

Daemon role (audit-light, audit-deep)::

    python3 perfbench/program.py daemon --workload W --seed N
        [--trace-onboard] --root DIR

builds the deployment, onboards the files, starts an ``AuditDaemon`` on an OS-chosen port and prints
``{"event": "ready", "port": ...}``.  Commands: ``probe`` (time the
CPU-speed probe), ``snap`` (CPU time and layer accumulators), ``trace``
(wrap every layer from now on), ``stop`` (drain, stop, report peak
RSS and write any spans).

Fleet role (fleet-campaign)::

    python3 perfbench/program.py fleet --seed N [--trace] --root DIR

builds the demo fleet, prints ``ready``, runs the campaign and prints
one ``done`` line with the report digest and timings.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import deploy  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
from repro.service import AuditDaemon  # noqa: E402


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_probe(spent: list[float]) -> float:
    """Run the CPU probe; append the wall time it took to ``spent``.

    The ``ready`` line carries the sum as ``probe_wall_s``, and the
    runner takes it out of set-up time: the benchmark's own probes are
    not the program's set-up.
    """
    started = time.perf_counter()
    probe_s = probe.cpu_probe()
    spent.append(time.perf_counter() - started)
    return probe_s


def onboard(args, session, store: tracing.SpanStore) -> tuple[object, dict]:
    """Run the onboarding phase; returns the backend and its timings."""
    patches = []
    if args.trace_onboard:
        patches = tracing.install(store)
    before = store.snapshot()
    spent: list[float] = []
    probe0 = timed_probe(spent)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if args.workload == "audit-light":
        backend = deploy.light_onboard(session, args.seed)
        kb = deploy.LIGHT_FILES * deploy.LIGHT_FILE_BYTES / 1000.0
    else:
        disk_root = deploy.scratch_dir(args.root, "ondisk")
        backend = deploy.deep_onboard(session, args.seed, disk_root)
        kb = deploy.DEEP_FILES * deploy.DEEP_FILE_BYTES / 1000.0
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    tracing.uninstall(patches)
    probe1 = timed_probe(spent)
    return backend, {
        "probe_wall_s": sum(spent),
        "setup_probe_s": probe0,
        "onboard_probe_s": (probe0 + probe1) / 2,
        "onboard_s": wall,
        "onboard_cpu_s": cpu,
        "onboard_kb": kb,
        "onboard_trace": tracing.delta(before, store.snapshot()),
    }


async def serve(args) -> None:
    store = tracing.SpanStore()
    if args.workload == "audit-light":
        session = deploy.light_session(args.seed)
    else:
        session = deploy.deep_session(args.seed)
    backend, info = onboard(args, session, store)
    disk_root = backend.get("disk").root if args.workload == "audit-deep" else None
    daemon = AuditDaemon(
        tpa=session.tpa,
        verifier=session.verifier,
        provider=backend,
        flush_batch=deploy.FLUSH_BATCH,
        flush_ms=deploy.FLUSH_MS,
    )
    await daemon.start()
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    transport, _ = await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    emit({"event": "ready", "port": daemon.port, **info})
    patches: list = []
    try:
        while True:
            line = (await commands.readline()).decode().strip()
            if line == "snap":
                emit({
                    "event": "snap",
                    "cpu_s": time.process_time(),
                    "trace": store.snapshot(),
                    "n_queue_waits": len(store.queue_waits),
                })
            elif line == "probe":
                emit({"event": "probe", "probe_s": probe.cpu_probe()})
            elif line == "trace":
                patches = tracing.install(store)
                emit({"event": "tracing"})
            elif line in ("stop", ""):
                break
    finally:
        await daemon.stop()
        transport.close()
        tracing.uninstall(patches)
    spans_path = None
    if len(store.start):
        spans_path = os.path.join(
            args.root, ".perfbench",
            f"spans-{args.workload}-{args.seed}.jsonl",
        )
        store.write(spans_path)
    if disk_root is not None:
        shutil.rmtree(disk_root, ignore_errors=True)
    emit({
        "event": "stopped",
        "rss_mb": peak_rss_mb(),
        "stats": daemon.stats_payload(),
        "queue_waits_ms": list(store.queue_waits),
        "spans_path": spans_path,
        "n_spans": len(store.start),
    })


def run_fleet(args) -> None:
    from repro.fleet.strategies import RiskWeightedStrategy

    store = tracing.SpanStore()
    strategy = RiskWeightedStrategy()
    patches = []
    if args.trace:
        patches = tracing.install(store, fleet_strategy=strategy)
    before_build = store.snapshot()
    spent: list[float] = []
    probe0 = timed_probe(spent)
    build_cpu0 = time.process_time()
    build_wall0 = time.perf_counter()
    fleet = deploy.build_fleet(args.seed, strategy=strategy)
    build_wall = time.perf_counter() - build_wall0
    build_cpu = time.process_time() - build_cpu0
    after_build = store.snapshot()
    probe1 = timed_probe(spent)
    emit({"event": "ready", "probe_wall_s": sum(spent)})
    # Wall time of each lane batch (dispatch to flushed verdicts): the
    # fleet's per-audit latency, timed in untraced runs too.
    from repro.netsim.lanes import Lane

    batch_ms: list[float] = []
    run_batch = Lane._run

    def timed_batch(*a, **k):
        started = time.perf_counter()
        try:
            return run_batch(*a, **k)
        finally:
            batch_ms.append((time.perf_counter() - started) * 1000.0)

    Lane._run = timed_batch
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    report = fleet.run(hours=deploy.FLEET_HOURS)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    Lane._run = run_batch
    probe2 = probe.cpu_probe()
    tracing.uninstall(patches)
    payload = report.to_dict()
    violator = f"provider-{deploy.FLEET_KWARGS['n_providers']}"
    emit({
        "event": "done",
        "run_s": wall,
        "run_cpu_s": cpu,
        "build_s": build_wall,
        "build_cpu_s": build_cpu,
        "build_kb": fleet.n_files * deploy.FLEET_FILE_BYTES / 1000.0,
        "build_probe_s": (probe0 + probe1) / 2,
        "run_probe_s": (probe1 + probe2) / 2,
        "n_audits": report.n_audits,
        "n_batches": report.n_batches,
        "spindle_wait_ms": report.total_spindle_wait_ms,
        "digest": deploy.fleet_digest(payload),
        "violator_detected": any(
            v["provider"] == violator for v in payload["violations"]
        ),
        "build_trace": tracing.delta(before_build, after_build),
        "run_trace": tracing.delta(after_build, store.snapshot()),
        "rss_mb": peak_rss_mb(),
        "batch_ms": batch_ms,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("daemon", "fleet"))
    parser.add_argument("--workload", default="fleet-campaign")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-onboard", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if args.role == "daemon":
        asyncio.run(serve(args))
    else:
        run_fleet(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
