"""Deterministic random number generation (HMAC-DRBG style).

Simulations must be reproducible: the same seed must produce the same
file contents, challenge indices, network jitter and adversary
behaviour.  :class:`DeterministicRNG` is a small HMAC-DRBG built on the
library PRF, exposing the handful of sampling primitives the rest of
the code needs.  It intentionally mirrors a subset of
:class:`random.Random`'s API so call sites read naturally.
"""

from __future__ import annotations

import hmac
import math
from typing import Sequence

from repro.crypto.prf import prf, prf_base, prf_many
from repro.errors import ConfigurationError

#: The PRF message of a stream's block 0: ``b"drbg-gen"``, the PRF's
#: separator byte and ``uint64(0)``.
_BLOCK_0 = b"drbg-gen\x00" + (0).to_bytes(8, "big")


class DeterministicRNG:
    """A seeded, forkable deterministic RNG.

    Parameters
    ----------
    seed:
        Bytes, string or int; hashed into the initial state.

    ``fork(label)`` derives an independent child stream, which lets each
    simulated component own its own RNG without cross-contamination
    (adding a component never perturbs another component's draws).
    """

    def __init__(self, seed: bytes | str | int) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes((max(seed.bit_length(), 1) + 7) // 8, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        elif not isinstance(seed, bytes):
            raise ConfigurationError(
                f"seed must be bytes/str/int, got {type(seed).__name__}"
            )
        self._key = prf(b"drbg-init", b"seed", seed)
        self._counter = 0
        self._buffer = b""
        self._gen_base = None

    def fork(self, label: str) -> "DeterministicRNG":
        """Derive an independent child RNG bound to ``label``."""
        child = object.__new__(DeterministicRNG)
        child._key = prf(self._key, b"drbg-fork", label.encode("utf-8"))
        child._counter = 0
        child._buffer = b""
        child._gen_base = None
        return child

    def fork_many(self, labels: Sequence[str]) -> list["DeterministicRNG"]:
        """Derive one child per label, sharing the PRF key schedule.

        Forking is stateless with respect to the parent (a child's key
        depends only on the parent key and the label), so deriving a
        whole batch through one :func:`~repro.crypto.prf.prf_many`
        sweep yields children byte-identical to per-label
        :meth:`fork` calls, in label order -- this is how the batch
        audit plane derives every session's challenge and jitter
        streams in one pass.
        """
        children: list[DeterministicRNG] = []
        for key in prf_many(
            self._key,
            b"drbg-fork",
            [label.encode("utf-8") for label in labels],
        ):
            child = object.__new__(DeterministicRNG)
            child._key = key
            child._counter = 0
            child._buffer = b""
            child._gen_base = None
            children.append(child)
        return children

    # -- raw output -----------------------------------------------------

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` pseudorandom bytes.

        Output block *i* is ``prf(key, b"drbg-gen", uint64(i))``.  A
        fresh stream whose first refill needs one block makes it with
        one one-shot HMAC; every audit forks fresh challenge and jitter
        streams, and a light audit's never refill again.  Any other
        refill primes the HMAC base once per stream and then pays only
        the message compressions.  Both ways are byte-identical to
        per-block :func:`prf`.
        """
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        buffer = self._buffer
        if len(buffer) < n:
            counter = self._counter
            n_blocks = (n - len(buffer) + 31) // 32
            if counter == 0 and n_blocks == 1:
                buffer += hmac.digest(self._key, _BLOCK_0, "sha256")
                self._counter = 1
            else:
                base = self._gen_base
                if base is None:
                    base = self._gen_base = prf_base(self._key, b"drbg-gen")
                parts = [buffer]
                for _ in range(n_blocks):
                    block = base.copy()
                    block.update(counter.to_bytes(8, "big"))
                    parts.append(block.digest())
                    counter += 1
                self._counter = counter
                buffer = b"".join(parts)
        out, self._buffer = buffer[:n], buffer[n:]
        return out

    def randbits(self, bits: int) -> int:
        """Return an integer with ``bits`` uniform random bits."""
        if bits <= 0:
            raise ConfigurationError(f"bits must be positive, got {bits}")
        n_bytes = (bits + 7) // 8
        # Fast path: serve straight from the buffer (the common case on
        # audit hot loops); identical bytes to random_bytes(n_bytes).
        buffer = self._buffer
        if len(buffer) >= n_bytes:
            chunk = buffer[:n_bytes]
            self._buffer = buffer[n_bytes:]
        else:
            chunk = self.random_bytes(n_bytes)
        return int.from_bytes(chunk, "big") >> (8 * n_bytes - bits)

    # -- integer sampling ------------------------------------------------

    def randrange(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)`` (rejection sampling)."""
        if upper <= 0:
            raise ConfigurationError(f"upper must be positive, got {upper}")
        if upper == 1:
            return 0
        bits = upper.bit_length()
        while True:
            candidate = self.randbits(bits)
            if candidate < upper:
                return candidate

    def sample_indices(self, population: int, k: int) -> list[int]:
        """Sample ``k`` distinct indices from ``[0, population)``.

        This is how challenges are drawn: "a random set of indexes
        c = {c1, ..., ck} subset of {1, ..., n}".  Uses a partial
        Fisher-Yates over a sparse dict, so it is O(k) in space even
        for huge populations.
        """
        if not 0 <= k <= population:
            raise ConfigurationError(
                f"cannot sample {k} from population {population}"
            )
        swapped: dict[int, int] = {}
        out: list[int] = []
        from_bytes = int.from_bytes
        # The buffer is read by offset and cut once at the end.
        buffer, offset = self._buffer, 0
        for i in range(k):
            # Inlined randrange(population - i): identical byte
            # consumption and rejection pattern, without the two
            # method calls per draw (challenge derivation is on the
            # audit hot path).
            upper = population - i
            if upper == 1:
                j = i
            else:
                bits = upper.bit_length()
                n_bytes = (bits + 7) >> 3
                shift = (n_bytes << 3) - bits
                while True:
                    end = offset + n_bytes
                    if end <= len(buffer):
                        chunk = buffer[offset:end]
                        offset = end
                    else:
                        self._buffer = buffer[offset:]
                        chunk = self.random_bytes(n_bytes)
                        buffer, offset = self._buffer, 0
                    candidate = from_bytes(chunk, "big") >> shift
                    if candidate < upper:
                        j = i + candidate
                        break
            out.append(swapped.get(j, j))
            swapped[j] = swapped.get(i, i)
        self._buffer = buffer[offset:]
        return out

    # -- continuous sampling ----------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        if high < low:
            raise ConfigurationError(f"empty range [{low}, {high})")
        return low + (high - low) * (self.randbits(53) / (1 << 53))

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (mean ``1/rate``).

        Network queueing delays and Poisson arrivals use this.
        """
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        u = self.uniform(0.0, 1.0)
        # u == 0 would give log(0); nudge into (0, 1].
        return -math.log(1.0 - u) / rate
