"""The load generator: closed-loop and open-loop audit traffic.

The generator speaks the daemon's wire protocol directly through the
program's public ``repro.service.framing`` and ``repro.service.wire``
modules rather than through ``AuditClient``: it must timestamp every
reply frame as it is parsed and see duplicate or unsolicited replies,
which ``AuditClient`` drops by design.

Order ids are the order's position in the run's stream plus one, so a
reply maps straight back to the plan entry and, for audit-deep, to the
oracle verdict at the same position.  Replies are kept as tuples of
plain numbers and bytes, which the garbage collector stops tracking,
so a long run does not make the generator's collections slower.
"""

from __future__ import annotations

import asyncio
import hashlib
import time

from repro.service.framing import FrameParser, encode_frame
from repro.service.wire import AuditOrder, ErrorReply, decode_reply

_now = time.perf_counter

#: Reply codes kept per reply frame.
ACCEPTED, REJECTED, ERROR = 0, 1, 2


def verdict_digest(verdict) -> bytes:
    """Eight bytes identifying one verdict (its canonical wire form)."""
    return hashlib.sha256(verdict.to_wire()).digest()[:8]


class Stream:
    """Every order sent in a run, and every reply frame received."""

    def __init__(self, order_of) -> None:
        self.order_of = order_of  # position -> (file_id, k)
        self.sent_s: list[float] = []
        self.due_s: list[float | None] = []
        # (order id, reply code, verdict digest, received at)
        self.replies: list[tuple[int, int, bytes, float]] = []

    def take(self, n: int) -> list[tuple[int, bytes, int]]:
        start = len(self.sent_s)
        self.sent_s.extend([0.0] * n)
        self.due_s.extend([None] * n)
        return [(i + 1, *self.order_of(i)) for i in range(start, start + n)]


class Connection:
    """One tenant socket: batched order writes, a reply read loop."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.outstanding = 0
        self.wakeup = asyncio.Event()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task | None = None

    async def open(self, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self._task = asyncio.create_task(self._read_loop())

    async def send(self, orders, due_s: list[float] | None = None) -> None:
        frames = b"".join(
            encode_frame(AuditOrder(order_id, file_id, k).to_wire())
            for order_id, file_id, k in orders
        )
        stream = self.stream
        sent = _now()
        for position, (order_id, _file_id, _k) in enumerate(orders):
            stream.sent_s[order_id - 1] = sent
            if due_s is not None:
                stream.due_s[order_id - 1] = due_s[position]
        self.outstanding += len(orders)
        self._writer.write(frames)
        await self._writer.drain()

    async def _read_loop(self) -> None:
        parser = FrameParser()
        replies = self.stream.replies
        while True:
            chunk = await self._reader.read(1 << 16)
            if not chunk:
                return
            received = _now()
            for body in parser.feed(chunk):
                reply = decode_reply(body)
                if isinstance(reply, ErrorReply):
                    replies.append((reply.order_id, ERROR, b"", received))
                else:
                    verdict = reply.verdict
                    replies.append((
                        reply.order_id,
                        ACCEPTED if verdict.accepted else REJECTED,
                        verdict_digest(verdict),
                        received,
                    ))
                self.outstanding -= 1
            self.wakeup.set()

    async def wait_reply(self, timeout_s: float) -> bool:
        """Wait for a reply chunk not yet waited for; False on timeout."""
        try:
            await asyncio.wait_for(self.wakeup.wait(), max(timeout_s, 0.0))
        except asyncio.TimeoutError:
            return False
        self.wakeup.clear()
        return True

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        if self._task is not None:
            await self._task


async def drain(connections: list[Connection], timeout_s: float) -> None:
    """Wait until every sent order has a reply (or the timeout passes)."""
    deadline = _now() + timeout_s
    for connection in connections:
        while connection.outstanding > 0 and _now() < deadline:
            await connection.wait_reply(deadline - _now())


async def closed_loop(
    stream: Stream, connections: list[Connection], window: int, seconds: float
) -> dict:
    """Keep ``window`` orders outstanding per connection for ``seconds``.

    ``audits_per_s`` counts only replies that arrived inside the
    window; the drain afterwards never inflates it.
    """
    first = len(stream.sent_s)
    first_reply = len(stream.replies)
    start = _now()
    end = start + seconds

    async def pump(connection: Connection) -> None:
        while True:
            n = window - connection.outstanding
            if n > 0:
                await connection.send(stream.take(n))
            if not await connection.wait_reply(end - _now()):
                return
            if _now() >= end:
                return

    await asyncio.gather(*(pump(c) for c in connections))
    arrivals = [t for _id, _c, _d, t in stream.replies[first_reply:] if t <= end]
    # Rate up to the last reply inside the window, so the figure keeps
    # the clock's resolution rather than a count over a fixed span.
    elapsed = (arrivals[-1] - start) if arrivals else seconds
    await drain(connections, 30.0)
    return {
        "first": first,
        "last": len(stream.sent_s),
        "audits_per_s": len(arrivals) / elapsed,
    }


async def open_loop(
    stream: Stream, connections: list[Connection], rate: float, seconds: float
) -> dict:
    """Send orders on a fixed schedule of ``rate`` per second.

    Each order is due at ``start + i / rate``; every order due by the
    time the generator wakes goes out in one write, connections taking
    turns.  How late each write left is the generator's lateness.

    The generator polls (``sleep(0)``) instead of sleeping in the
    selector: on a virtual machine an idle CPU is halted and may take
    milliseconds to wake, which would show up as lateness.  The
    generator has a CPU of its own, so polling costs the program
    nothing.
    """
    first = len(stream.sent_s)
    n_total = int(rate * seconds)
    start = _now() + 0.002
    turn = 0
    i = 0
    while i < n_total:
        due = start + i / rate
        now = _now()
        while now < due:
            await asyncio.sleep(0)
            now = _now()
        j = i + 1
        while j < n_total and start + j / rate <= now:
            j += 1
        orders = stream.take(j - i)
        due_s = [start + m / rate for m in range(i, j)]
        await connections[turn % len(connections)].send(orders, due_s)
        turn += 1
        i = j
    await drain(connections, 30.0)
    last = len(stream.sent_s)
    late_ms = [
        (stream.sent_s[m] - stream.due_s[m]) * 1000.0 for m in range(first, last)
    ]
    return {"first": first, "last": last, "late_ms": late_ms}
