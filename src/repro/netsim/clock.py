"""A monotonic simulated clock.

All timing in the reproduction is *simulated*: protocol components call
``clock.advance(delay_ms)`` as work happens, and the verifier reads
``clock.now_ms()`` around each distance-bounding round exactly the way
the paper's verifier starts/stops its timing clock.  Using simulated
rather than wall-clock time makes every experiment deterministic and
lets a laptop reproduce millisecond-scale claims exactly.

Every entry point takes only finite, non-negative steps.  A provider's
reply feeds its ``elapsed_ms`` straight into :meth:`SimClock.advance`,
so a NaN or infinite step must fail there: once the clock read NaN,
every later round's RTT would be NaN too, and ``max()`` over a
transcript keeps a finite first round over later NaNs.
"""

from __future__ import annotations

import math

from repro.errors import ClockError

_INF = math.inf


class SimClock:
    """Simulated time in milliseconds since simulation start."""

    def __init__(self, start_ms: float = 0.0) -> None:
        if not 0.0 <= start_ms < _INF:
            raise ClockError(f"start time must be finite and >= 0, got {start_ms}")
        self._now_ms = float(start_ms)

    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Move time forward by ``delta_ms``; returns the new time.

        Negative and non-finite advances raise -- simulated time is
        monotonic and finite.
        """
        if not 0.0 <= delta_ms < _INF:
            raise ClockError(f"cannot advance clock by {delta_ms} ms")
        self._now_ms += delta_ms
        return self._now_ms

    def advance_to(self, timestamp_ms: float) -> float:
        """Jump forward to an absolute time (used by the event loop)."""
        if not self._now_ms <= timestamp_ms < _INF:
            raise ClockError(
                f"cannot move clock from {self._now_ms} to {timestamp_ms}"
            )
        self._now_ms = timestamp_ms
        return self._now_ms
