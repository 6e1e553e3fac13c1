"""Length-prefixed framing for the audit service's TCP streams.

A frame is a 4-byte big-endian body length followed by the body (the
same prefix convention as
:func:`repro.util.serialization.encode_length_prefixed`).  The
:class:`FrameParser` is a push parser: feed it whatever the socket
yields and take every completed frame -- partial frames simply wait
for more bytes, so a reader task can never block inside the parser.

Failing closed at this layer means bounding the declared body length:
a garbage prefix decoding to gigabytes must not make the reader buffer
until the host dies, so anything above :data:`MAX_FRAME_BYTES` raises
:class:`FrameTooLargeError` immediately and the connection is dropped.
The error carries the whole frames the same chunk completed ahead of
the bad prefix, so a reader answers those whichever way TCP split the
stream.
"""

from __future__ import annotations

import struct

from repro.errors import ProtocolError

_LEN = struct.Struct(">I")

#: Upper bound on one frame body.  Audit orders are tens of bytes and
#: verdict replies under a kilobyte; anything near this bound is a
#: corrupt or hostile stream.
MAX_FRAME_BYTES = 1 << 20


class FrameTooLargeError(ProtocolError):
    """A declared frame body longer than :data:`MAX_FRAME_BYTES`.

    ``frames`` holds the frames the failing
    :meth:`FrameParser.feed` call completed ahead of the bad prefix.
    """

    def __init__(self, message: str, *, frames: list[bytes]) -> None:
        super().__init__(message)
        self.frames = frames


def encode_frame(body: bytes) -> bytes:
    """Wrap one message body in a length prefix."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(body)) + body


class FrameParser:
    """Incremental frame splitter over an arbitrary chunking of bytes."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb a chunk; return every frame completed by it.

        Raises :class:`FrameTooLargeError` as soon as a declared length
        exceeds :data:`MAX_FRAME_BYTES` -- without waiting for the
        (unbounded) body to arrive.  The error carries the frames
        completed ahead of the bad prefix, which stays first in the
        buffer, so every later call raises too.
        """
        self._buffer.extend(data)
        frames: list[bytes] = []
        buffer = self._buffer
        offset = 0
        while len(buffer) - offset >= 4:
            (length,) = _LEN.unpack_from(buffer, offset)
            if length > MAX_FRAME_BYTES:
                del buffer[:offset]
                raise FrameTooLargeError(
                    f"declared frame body of {length} bytes exceeds "
                    f"{MAX_FRAME_BYTES}",
                    frames=frames,
                )
            if len(buffer) - offset - 4 < length:
                break
            frames.append(bytes(buffer[offset + 4 : offset + 4 + length]))
            offset += 4 + length
        if offset:
            del buffer[:offset]
        return frames
