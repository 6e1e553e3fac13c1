"""GeoProof as a service: the asyncio TPA daemon and its provider plane.

The library's audit flow is a synchronous call chain (TPA -> verifier
-> provider).  This package wraps it in the deployment shape the paper
describes -- a third-party auditor *service* that many tenants query
concurrently:

* :mod:`repro.service.framing` -- length-prefixed frames over TCP,
  with a streaming parser that fails closed on malformed input;
* :mod:`repro.service.wire` -- the request/reply envelope carried in
  frame bodies (audit orders in, verdicts or errors out);
* :mod:`repro.service.registry` -- the elastic
  :class:`~repro.storage.contract.StorageProvider` registry with
  circuit-breaker health tracking and failover chains;
* :mod:`repro.service.dispatch` -- the pipelined audit plane: a shared
  queue of in-flight orders; whenever the dispatcher is idle it
  flushes what is queued, up to B orders, through the TPA's batched
  protocol + verify path (group commit, no deadline);
* :mod:`repro.service.server` / :mod:`repro.service.client` -- the
  asyncio daemon and a pipelining tenant client.

Unlike the simulation packages, this package legitimately reads the
host's wall clock (per-chunk latency stamps and health probe timers
are real-time concerns); see the SIM001 allowlist note in
``docs/INVARIANTS.md``.
"""

from repro.service.client import (
    AuditClient,
    AuditServiceError,
    fetch_daemon_stats,
    run_audit_client,
)
from repro.service.dispatch import AuditDispatcher, DispatchStats
from repro.service.framing import FrameParser, MAX_FRAME_BYTES, encode_frame
from repro.service.registry import (
    HEALTHY,
    UNHEALTHY,
    BackendStatus,
    ProviderRegistry,
)
from repro.service.server import AuditDaemon
from repro.service.wire import (
    OP_AUDIT,
    OP_ERROR,
    OP_STATS,
    OP_STATS_REPLY,
    OP_VERDICT,
    AuditOrder,
    ErrorReply,
    StatsReply,
    StatsRequest,
    VerdictReply,
    decode_reply,
    decode_request,
)

__all__ = [
    "AuditClient",
    "AuditDaemon",
    "AuditDispatcher",
    "AuditOrder",
    "AuditServiceError",
    "BackendStatus",
    "DispatchStats",
    "ErrorReply",
    "FrameParser",
    "HEALTHY",
    "MAX_FRAME_BYTES",
    "OP_AUDIT",
    "OP_ERROR",
    "OP_STATS",
    "OP_STATS_REPLY",
    "OP_VERDICT",
    "ProviderRegistry",
    "StatsReply",
    "StatsRequest",
    "UNHEALTHY",
    "VerdictReply",
    "decode_reply",
    "decode_request",
    "encode_frame",
    "fetch_daemon_stats",
    "run_audit_client",
]
