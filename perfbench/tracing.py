"""Span recording around the program's layer entry points.

The traced run wraps public entry points of each layer from here, the
benchmark's own code; ``src/`` carries no benchmark hooks.  A span is
(name, start, end, parent, audit id); spans live in flat arrays while
the run lasts and are written out once at the end.  A layer's self
time is its span time minus the time of its direct child spans, and is
accumulated as spans close so a snapshot costs nothing.  The process
CPU time spent inside outermost spans is accumulated too, so the CPU
time under no span is measured rather than inferred from self times.

Each wrapped entry point belongs to one layer and may also count work
units (frames, lookups, signatures, kB ...) from its arguments or
result, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict

_now = time.perf_counter
_cpu = time.process_time


class SpanStore:
    """In-memory span arrays plus running per-layer accumulators."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.audit = array("q")
        # Stack of [span index, child seconds] for the open spans.
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, float] = defaultdict(float)
        # Process CPU seconds inside outermost spans.
        self.span_cpu_s = 0.0
        # Dispatcher queue waits (ms) and the current flush's start.
        self.queue_waits = array("d")
        self.batch_started = 0.0

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self._name_ids[name] = name_id
            self.names.append(name)
        return name_id

    def span(self, layer: str, fn, *, units=None, audit=None):
        """Wrap ``fn`` so each call records one ``layer`` span.

        ``units(args, kwargs, result)`` returns a dict of counters to
        add; ``audit(args, result)`` returns the audit id the span
        belongs to (0 when the call serves a whole batch).
        """
        name_id = self._name_id(layer)
        stack = self._stack
        store = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(store.start)
            outermost = not stack
            store.name.append(name_id)
            store.parent.append(-1 if outermost else stack[-1][0])
            store.audit.append(0)
            store.end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            if outermost:
                cpu_started = _cpu()
            started = _now()
            store.start.append(started)
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = _now()
                if outermost:
                    store.span_cpu_s += _cpu() - cpu_started
                stack.pop()
                store.end[index] = ended
                elapsed = ended - started
                store.self_s[layer] += elapsed - frame[1]
                store.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if units is not None:
                for key, value in units(args, kwargs, result).items():
                    store.units[key] += value
            if audit is not None:
                store.audit[index] = audit(args, result)
            return result

        return wrapper

    def count(self, key: str, fn, *, units=None):
        """Wrap ``fn`` to count calls (and units) without a span."""
        store = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            store.calls[key] += 1
            if units is not None:
                for name, value in units(args, kwargs, result).items():
                    store.units[name] += value
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "units": dict(self.units),
            "span_cpu_s": self.span_cpu_s,
            "n_spans": len(self.start),
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, audit)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                handle.write(
                    f"[{self.name[i]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.audit[i]}]\n"
                )


def delta(before: dict, after: dict) -> dict:
    """Accumulator growth between two snapshots."""
    out = {}
    for key in ("self_s", "calls", "units"):
        out[key] = {
            name: value - before[key].get(name, 0)
            for name, value in after[key].items()
        }
    out["span_cpu_s"] = after["span_cpu_s"] - before["span_cpu_s"]
    return out


def _patch(owner, attr: str, wrap) -> tuple:
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    return owner, attr, original


def _len_arg(position: int, key: str):
    return lambda args, kwargs, result: {key: len(args[position])}


def install(store: SpanStore, *, fleet_strategy=None) -> list[tuple]:
    """Wrap every layer's entry points; returns the patches made.

    Module-level functions are patched where the caller looks them up
    (e.g. ``repro.cloud.tpa.verify_transcripts``), methods on their
    classes.
    """
    import repro.cloud.tpa as tpa_mod
    import repro.cloud.verifier as verifier_mod
    import repro.core.session as session_mod
    import repro.core.verification as verification_mod
    import repro.crypto.schnorr as schnorr_mod
    import repro.por.setup as setup_mod
    import repro.service.dispatch as dispatch_mod
    import repro.service.server as server_mod
    from repro.cloud.provider import CloudProvider
    from repro.cloud.tpa import ThirdPartyAuditor
    from repro.cloud.verifier import VerifierDevice
    from repro.crypto.prp import BlockPermutation
    from repro.erasure.striping import BlockStriper
    from repro.fleet.fleet import AuditFleet
    from repro.netsim.events import EventScheduler
    from repro.netsim.lanes import Lane
    from repro.service.dispatch import AuditDispatcher
    from repro.service.framing import FrameParser
    from repro.service.registry import ProviderRegistry
    from repro.service.wire import ErrorReply, VerdictReply
    from repro.storage.contract import StorageProvider

    s = store.span
    patches = []

    def add(owner, attr, wrap):
        patches.append(_patch(owner, attr, wrap))

    # service.framing: frames parsed per socket read, frames encoded.
    add(FrameParser, "feed", lambda fn: s(
        "framing", fn,
        units=lambda a, k, r: {"framing.frames": len(r), "server.reads": 1},
    ))
    for module in (dispatch_mod, server_mod):
        add(module, "encode_frame", lambda fn: s(
            "framing", fn,
            units=lambda a, k, r: {"framing.frames": 1},
        ))
    # service.wire: order decode, reply encode.
    add(server_mod, "decode_request", lambda fn: s(
        "wire", fn,
        units=lambda a, k, r: {"wire.decoded": 1},
        audit=lambda a, r: r.order_id,
    ))
    for reply_cls in (VerdictReply, ErrorReply):
        add(reply_cls, "to_wire", lambda fn: s(
            "wire", fn, audit=lambda a, r: a[0].order_id,
        ))
    # service.dispatch: the synchronous core and reply grouping.
    add(AuditDispatcher, "process_batch", lambda fn: s(
        "dispatch", fn,
        units=lambda a, k, r: {
            "dispatch.orders": len(a[1]),
            "dispatch.flushes": 1,
            "dispatch.errors": sum(isinstance(x, ErrorReply) for x in r),
        },
    ))

    def deliver_units(args, kwargs, result):
        # Queue wait: chunk read -> start of the flush that served it.
        started = store.batch_started
        waits = store.queue_waits
        for entry in args[1]:
            if entry.received_s > 0.0:
                waits.append((started - entry.received_s) * 1000.0)
        return {}

    add(AuditDispatcher, "_deliver", lambda fn: s(
        "dispatch", fn, units=deliver_units,
    ))

    def mark_batch(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            store.batch_started = _now()
            return fn(*args, **kwargs)

        return wrapper

    # Outside the process_batch span: remembers when the flush began.
    add(AuditDispatcher, "process_batch", mark_batch)

    # service.registry and the storage backends.
    add(ProviderRegistry, "handle_request", lambda fn: s(
        "registry", fn, units=lambda a, k, r: {"registry.lookups": 1},
    ))
    storage_units = lambda a, k, r: {  # noqa: E731
        "storage.lookups": 1, "storage.sim_ms": r.elapsed_ms,
    }
    add(StorageProvider, "handle_request", lambda fn: s(
        "storage", fn, units=storage_units,
    ))
    add(CloudProvider, "handle_request", lambda fn: s(
        "storage", fn, units=storage_units,
    ))
    # cloud.tpa
    for attr in ("audit", "audit_deferred", "flush_verdicts"):
        add(ThirdPartyAuditor, attr, lambda fn: s("tpa", fn))
    add(ThirdPartyAuditor, "audit_deferred_many", lambda fn: s(
        "tpa", fn, units=lambda a, k, r: {"dispatch.runs": 1},
    ))
    # cloud.verifier
    add(VerifierDevice, "run_audits", lambda fn: s(
        "verifier", fn,
        units=lambda a, k, r: {
            "verifier.audits": len(a[1]),
            "verifier.rounds": sum(req.k for req in a[1]),
        },
    ))
    add(VerifierDevice, "run_audit", lambda fn: s(
        "verifier", fn,
        units=lambda a, k, r: {"verifier.audits": 1, "verifier.rounds": a[1].k},
    ))
    add(verifier_mod, "schnorr_sign_many", lambda fn: s(
        "schnorr_sign", fn, units=_len_arg(1, "schnorr.signs"),
    ))
    add(verifier_mod, "schnorr_sign", lambda fn: s(
        "schnorr_sign", fn, units=lambda a, k, r: {"schnorr.signs": 1},
    ))
    # core.verification and its crypto children.
    for attr in ("verify_transcripts", "verify_transcript"):
        add(tpa_mod, attr, lambda fn: s("verification", fn))
    add(verification_mod, "mac_verify_many", lambda fn: s(
        "mac_verify", fn, units=_len_arg(1, "mac.verifies"),
    ))
    add(verification_mod, "mac_verify", lambda fn: s(
        "mac_verify", fn, units=lambda a, k, r: {"mac.verifies": 1},
    ))
    add(verification_mod, "schnorr_verify_many", lambda fn: s(
        "schnorr_verify", fn,
        units=lambda a, k, r: {
            "schnorr.verifies": len(a[1]),
            "schnorr.verify_batches": 1 if a[1] else 0,
        },
    ))
    add(verification_mod, "schnorr_verify", lambda fn: s(
        "schnorr_verify", fn, units=lambda a, k, r: {"schnorr.verifies": 1},
    ))
    add(schnorr_mod, "_verify_bisect", lambda fn: store.count(
        "schnorr.bisect_calls", fn,
    ))
    # Onboarding: the Juels-Kaliski setup pipeline.
    add(session_mod, "setup_file", lambda fn: s(
        "setup", fn,
        units=lambda a, k, r: {"setup.kb": len(a[0]) / 1000.0},
    ))
    add(BlockStriper, "encode_blocks", lambda fn: s(
        "erasure", fn,
        units=lambda a, k, r: {"erasure.kb": sum(map(len, a[1])) / 1000.0},
    ))
    add(setup_mod, "aes_ctr_encrypt", lambda fn: s(
        "aes", fn, units=lambda a, k, r: {"aes.kb": len(a[2]) / 1000.0},
    ))
    add(BlockPermutation, "permute_list", lambda fn: s(
        "prp", fn, units=_len_arg(1, "prp.blocks"),
    ))
    add(setup_mod, "mac_tag_many", lambda fn: s(
        "mac_tag", fn, units=_len_arg(1, "mac.tags"),
    ))
    # fleet engine, strategies, netsim.
    add(AuditFleet, "run", lambda fn: s("fleet", fn))
    add(Lane, "_run", lambda fn: s(
        "fleet", fn, units=lambda a, k, r: {"fleet.batches": 1},
    ))
    add(EventScheduler, "run_until", lambda fn: s(
        "netsim", fn, units=lambda a, k, r: {"netsim.events": r},
    ))
    if fleet_strategy is not None:
        add(type(fleet_strategy), "rank_lane", lambda fn: s(
            "strategy", fn, units=lambda a, k, r: {"strategy.ranks": 1},
        ))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
