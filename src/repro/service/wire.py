"""The audit service's request/reply envelope.

Frame bodies are one opcode byte followed by a canonical encoding
built from :mod:`repro.util.serialization` primitives.  Five messages
cross the wire:

* :class:`AuditOrder` (client -> daemon, :data:`OP_AUDIT`): "audit
  file F with k rounds" plus a client-chosen correlation id.  ``k=0``
  means the file's SLA default.  The daemon draws the nonce and runs
  the protocol -- tenants never influence challenge derivation.
* :class:`StatsRequest` (client -> daemon, :data:`OP_STATS`): ask for
  the daemon's live observability counters.  Answered directly from
  the reader task (it never enters the dispatch queue), so a stats
  probe works even when the audit plane is saturated.
* :class:`VerdictReply` (daemon -> client, :data:`OP_VERDICT`): the
  full :class:`~repro.core.verification.GeoProofVerdict` for one
  order.
* :class:`StatsReply` (daemon -> client, :data:`OP_STATS_REPLY`): a
  JSON stats payload (orders served, queue depth, flush-size
  histogram, latency quantiles -- see
  :meth:`~repro.service.server.AuditDaemon.stats_payload`).
* :class:`ErrorReply` (daemon -> client, :data:`OP_ERROR`): the order
  was not serviceable (unknown file, invalid k, backend exhausted).

Decoding fails closed: unknown opcodes, truncated bodies and trailing
bytes (:func:`~repro.core.messages.decode_exact`) all raise
:class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.messages import decode_exact
from repro.core.verification import GeoProofVerdict
from repro.errors import ProtocolError
from repro.storage.contract import MAX_FILE_ID_BYTES
from repro.util.serialization import (
    decode_length_prefixed,
    decode_uint,
    encode_length_prefixed,
    encode_uint,
)

OP_AUDIT = 0x01
OP_STATS = 0x02
OP_VERDICT = 0x81
OP_ERROR = 0x82
OP_STATS_REPLY = 0x83


@dataclass(frozen=True, slots=True)
class AuditOrder:
    """One tenant order: audit ``file_id`` with ``k`` rounds (0 = SLA).

    A file id longer than the storage contract's
    :data:`~repro.storage.contract.MAX_FILE_ID_BYTES` is refused here:
    no backend stores one, and a refusal that quoted it could outgrow a
    reply frame.
    """

    order_id: int
    file_id: bytes
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.order_id < 1 << 64:
            raise ProtocolError(f"order id out of range: {self.order_id}")
        if self.k < 0:
            raise ProtocolError(f"k must be >= 0, got {self.k}")
        if not 0 < len(self.file_id) <= MAX_FILE_ID_BYTES:
            raise ProtocolError(
                f"file id must be 1..{MAX_FILE_ID_BYTES} bytes, "
                f"got {len(self.file_id)}"
            )

    def to_wire(self) -> bytes:
        return bytes([OP_AUDIT]) + (
            encode_uint(self.order_id)
            + encode_length_prefixed(self.file_id)
            + encode_uint(self.k)
        )

    @classmethod
    def from_body(cls, data: bytes, offset: int = 0) -> tuple["AuditOrder", int]:
        order_id, offset = decode_uint(data, offset)
        file_id, offset = decode_length_prefixed(data, offset)
        k, offset = decode_uint(data, offset)
        return cls(order_id=order_id, file_id=file_id, k=k), offset


@dataclass(frozen=True, slots=True)
class StatsRequest:
    """Ask the daemon for its live stats (correlation id like an order)."""

    order_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.order_id < 1 << 64:
            raise ProtocolError(f"order id out of range: {self.order_id}")

    def to_wire(self) -> bytes:
        return bytes([OP_STATS]) + encode_uint(self.order_id)

    @classmethod
    def from_body(
        cls, data: bytes, offset: int = 0
    ) -> tuple["StatsRequest", int]:
        order_id, offset = decode_uint(data, offset)
        return cls(order_id=order_id), offset


@dataclass(frozen=True, slots=True)
class StatsReply:
    """The daemon's live counters as a JSON object payload."""

    order_id: int
    payload: dict

    def to_wire(self) -> bytes:
        raw = json.dumps(self.payload, sort_keys=True).encode("utf-8")
        return (
            bytes([OP_STATS_REPLY])
            + encode_uint(self.order_id)
            + encode_length_prefixed(raw)
        )

    @classmethod
    def from_body(
        cls, data: bytes, offset: int = 0
    ) -> tuple["StatsReply", int]:
        order_id, offset = decode_uint(data, offset)
        raw, offset = decode_length_prefixed(data, offset)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError("stats reply is not valid JSON") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("stats reply payload must be an object")
        return cls(order_id=order_id, payload=payload), offset


@dataclass(frozen=True, slots=True)
class VerdictReply:
    """The daemon's answer to one order: the full verdict."""

    order_id: int
    verdict: GeoProofVerdict

    def to_wire(self) -> bytes:
        return (
            bytes([OP_VERDICT])
            + encode_uint(self.order_id)
            + self.verdict.to_wire()
        )

    @classmethod
    def from_body(
        cls, data: bytes, offset: int = 0
    ) -> tuple["VerdictReply", int]:
        order_id, offset = decode_uint(data, offset)
        verdict, offset = GeoProofVerdict.from_wire(data, offset)
        return cls(order_id=order_id, verdict=verdict), offset


@dataclass(frozen=True, slots=True)
class ErrorReply:
    """The daemon could not service an order (or parse a frame)."""

    order_id: int  # 0 when the failure is not attributable to an order
    message: str

    def to_wire(self) -> bytes:
        return (
            bytes([OP_ERROR])
            + encode_uint(self.order_id)
            + encode_length_prefixed(self.message.encode("utf-8"))
        )

    @classmethod
    def from_body(
        cls, data: bytes, offset: int = 0
    ) -> tuple["ErrorReply", int]:
        order_id, offset = decode_uint(data, offset)
        raw, offset = decode_length_prefixed(data, offset)
        try:
            message = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("error reply is not valid UTF-8") from exc
        return cls(order_id=order_id, message=message), offset


def decode_request(body: bytes) -> AuditOrder | StatsRequest:
    """Decode one client->daemon frame body, failing closed."""
    if not body:
        raise ProtocolError("empty frame body")
    opcode = body[0]
    if opcode == OP_AUDIT:
        return decode_exact(AuditOrder.from_body, body[1:])
    if opcode == OP_STATS:
        return decode_exact(StatsRequest.from_body, body[1:])
    raise ProtocolError(f"unknown request opcode {opcode:#x}")


def decode_reply(body: bytes) -> VerdictReply | ErrorReply | StatsReply:
    """Decode one daemon->client frame body, failing closed."""
    if not body:
        raise ProtocolError("empty frame body")
    opcode = body[0]
    if opcode == OP_VERDICT:
        return decode_exact(VerdictReply.from_body, body[1:])
    if opcode == OP_ERROR:
        return decode_exact(ErrorReply.from_body, body[1:])
    if opcode == OP_STATS_REPLY:
        return decode_exact(StatsReply.from_body, body[1:])
    raise ProtocolError(f"unknown reply opcode {opcode:#x}")
