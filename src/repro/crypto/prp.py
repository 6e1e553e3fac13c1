"""Pseudorandom permutations over arbitrary integer domains.

Step 4 of the Juels-Kaliski setup reorders the encrypted file's blocks
with a pseudorandom permutation (the paper cites Luby-Rackoff [28]).
A block cipher permutes ``[0, 2^128)``, but a file has an arbitrary
number of blocks ``n``; the standard fix is *cycle walking*: build a
Feistel permutation over the smallest balanced power-of-two domain
covering ``n`` and repeatedly apply it until the output lands in
``[0, n)``.  Because the Feistel network is a bijection on the covering
domain, the walk terminates and the restriction to ``[0, n)`` is itself
a bijection.

Four Feistel rounds with independent PRF round functions give a strong
PRP (Luby-Rackoff); we use six for margin, which is cheap here.

Performance notes
-----------------
The POR setup only ever needs the *whole* permutation (it shuffles
every block of a file), so the hot entry points are the batch ones:
:meth:`FeistelPRP.forward_many`, :meth:`BlockPermutation.forward_many`
and :meth:`BlockPermutation.permutation_table`.  Two observations make
batching fast without changing a single output bit relative to the
scalar path:

* **Round tables.**  A Feistel round function only sees one *half* of
  the domain: for a covering domain of ``4n`` values it has just
  ``~2*sqrt(n)`` possible inputs (128 for a 10k-block file).  The batch
  engine evaluates each round for every *distinct* half-value once --
  via :func:`~repro.crypto.prf.prf_many`, which runs the HMAC key
  schedule once per round rather than once per value -- and, when the
  frontier is dense in a small half-domain, materialises the full
  per-round table and caches it.  Scalar evaluation computed one HMAC
  per value per round: ``6 * walk * n`` digests; the batch path pays
  ``6 * min(distinct, 2^half_bits)`` digests and table lookups for the
  rest.

* **Cycle walking as a shrinking frontier.**  Rather than walking each
  index to completion, the batch path applies the Feistel network to
  *all* live values per sweep; outputs that land inside ``[0, n)`` are
  done, the rest form the next (geometrically shrinking, < 3/4 ratio)
  frontier.  Every sweep reuses the cached round tables, so the walk
  tail costs list traversals, not digests.

:meth:`BlockPermutation.permute_list` / ``unpermute_list`` build (and
cache) the full permutation array through this engine; the scalar
``forward``/``inverse`` remain available and consult the cached table
when one exists.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar, cast

from repro.crypto.prf import DIGEST_SIZE, prf, prf_many, prf_stream
from repro.errors import ConfigurationError
from repro.util.bitops import ceil_div

T = TypeVar("T")

_ROUND_LABEL = b"feistel-round"

#: Largest half-domain (``2^half_bits``) for which a round's full
#: lookup table may be materialised (64k entries ~= 0.5 MB of ints).
_FULL_ROUND_TABLE_MAX = 1 << 16

#: Build the full round table once the frontier covers at least
#: ``1/_TABLE_DENSITY`` of a (cacheable) half-domain; sparser frontiers
#: get a per-call dict of exactly the needed values.
_TABLE_DENSITY = 4


class FeistelPRP:
    """A keyed Feistel permutation over ``[0, 2^(2*half_bits))``.

    Parameters
    ----------
    key:
        PRF key.
    half_bits:
        Width of each Feistel half in bits (>= 1).

    It runs six rounds, above the four Luby-Rackoff security needs.
    """

    def __init__(self, key: bytes, half_bits: int) -> None:
        if half_bits < 1:
            raise ConfigurationError(f"half_bits must be >= 1, got {half_bits}")
        self._key = key
        self._half_bits = half_bits
        self._rounds = 6
        self._mask = (1 << half_bits) - 1
        self._half_bytes = ceil_div(half_bits, 8)
        self._half_size = 1 << half_bits
        #: round index -> full lookup table (lazily built by batch calls).
        self._round_tables: dict[int, list[int]] = {}

    @property
    def domain_size(self) -> int:
        """Size of the permuted domain, ``2^(2 * half_bits)``."""
        return 1 << (2 * self._half_bits)

    # -- round function -----------------------------------------------------

    def _round_outputs(self, round_index: int, values: Sequence[int]) -> list[int]:
        """The PRF round function on each value, one key schedule total."""
        half_bytes = self._half_bytes
        mask = self._mask
        prefix = round_index.to_bytes(2, "big")
        if half_bytes <= DIGEST_SIZE:
            digests = prf_many(
                self._key,
                _ROUND_LABEL,
                (prefix + v.to_bytes(half_bytes, "big") for v in values),
            )
            return [
                int.from_bytes(d[:half_bytes], "big") & mask for d in digests
            ]
        # half_bits > 256: one digest cannot cover the half, so expand in
        # counter mode; slicing a single digest would zero the mask's top
        # bits and weaken the round function.
        return [
            int.from_bytes(
                prf_stream(
                    self._key,
                    _ROUND_LABEL,
                    prefix + v.to_bytes(half_bytes, "big"),
                    half_bytes,
                ),
                "big",
            )
            & mask
            for v in values
        ]

    def _round_function(self, round_index: int, value: int) -> int:
        table = self._round_tables.get(round_index)
        if table is not None:
            return table[value]
        if self._half_bytes <= DIGEST_SIZE:
            digest = prf(
                self._key,
                _ROUND_LABEL,
                round_index.to_bytes(2, "big")
                + value.to_bytes(self._half_bytes, "big"),
            )
            return int.from_bytes(digest[: self._half_bytes], "big") & self._mask
        return self._round_outputs(round_index, (value,))[0]

    def _round_lookup(
        self, round_index: int, needed: Sequence[int]
    ) -> Callable[[int], int]:
        """A ``value -> F_r(value)`` lookup covering all of ``needed``."""
        table = self._round_tables.get(round_index)
        if table is not None:
            return table.__getitem__
        distinct = sorted(set(needed))
        if (
            self._half_size <= _FULL_ROUND_TABLE_MAX
            and len(distinct) * _TABLE_DENSITY >= self._half_size
        ):
            table = self._round_outputs(round_index, range(self._half_size))
            self._round_tables[round_index] = table
            return table.__getitem__
        return dict(zip(distinct, self._round_outputs(round_index, distinct))).__getitem__

    # -- scalar API ---------------------------------------------------------

    def forward(self, value: int) -> int:
        """Apply the permutation."""
        self._check_domain(value)
        left = value >> self._half_bits
        right = value & self._mask
        for r in range(self._rounds):
            left, right = right, left ^ self._round_function(r, right)
        return (left << self._half_bits) | right

    def inverse(self, value: int) -> int:
        """Apply the inverse permutation."""
        self._check_domain(value)
        left = value >> self._half_bits
        right = value & self._mask
        for r in range(self._rounds - 1, -1, -1):
            left, right = right ^ self._round_function(r, left), left
        return (left << self._half_bits) | right

    # -- batch API ----------------------------------------------------------

    def forward_many(self, values: Sequence[int]) -> list[int]:
        """Apply the permutation to every value in one round-major pass.

        Byte-identical to ``[self.forward(v) for v in values]`` but
        evaluates each round's PRF once per *distinct* half-value.
        """
        if not values:
            return []
        self._check_domain(min(values))
        self._check_domain(max(values))
        half_bits = self._half_bits
        mask = self._mask
        lefts = [v >> half_bits for v in values]
        rights = [v & mask for v in values]
        for r in range(self._rounds):
            lookup = self._round_lookup(r, rights)
            lefts, rights = rights, [
                left ^ lookup(right) for left, right in zip(lefts, rights)
            ]
        return [
            (left << half_bits) | right for left, right in zip(lefts, rights)
        ]

    def inverse_many(self, values: Sequence[int]) -> list[int]:
        """Batch counterpart of :meth:`inverse`; see :meth:`forward_many`."""
        if not values:
            return []
        self._check_domain(min(values))
        self._check_domain(max(values))
        half_bits = self._half_bits
        mask = self._mask
        lefts = [v >> half_bits for v in values]
        rights = [v & mask for v in values]
        for r in range(self._rounds - 1, -1, -1):
            lookup = self._round_lookup(r, lefts)
            lefts, rights = [
                right ^ lookup(left) for left, right in zip(lefts, rights)
            ], lefts
        return [
            (left << half_bits) | right for left, right in zip(lefts, rights)
        ]

    def _check_domain(self, value: int) -> None:
        if not 0 <= value < self.domain_size:
            raise ConfigurationError(
                f"value {value} outside PRP domain [0, {self.domain_size})"
            )


class BlockPermutation:
    """A keyed pseudorandom permutation over ``[0, n)`` for arbitrary n.

    Combines :class:`FeistelPRP` on the covering power-of-four domain
    with cycle walking.  The expected number of walk steps is bounded by
    ``domain_size / n < 4``.

    This is the object the POR setup uses to shuffle block positions:
    ``permuted_position = perm.forward(original_position)``.  Callers
    that need many positions should use :meth:`forward_many` /
    :meth:`permutation_table`, which run the walk as a shrinking
    frontier over batch Feistel sweeps (see the module docstring).
    """

    def __init__(self, key: bytes, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"permutation size must be >= 1, got {n}")
        self._n = n
        half_bits = max(1, ceil_div(max(n - 1, 1).bit_length(), 2))
        while (1 << (2 * half_bits)) < n:
            half_bits += 1
        self._prp = FeistelPRP(key, half_bits)
        self._table: tuple[int, ...] | None = None
        self._inverse_table: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        """The domain size ``n``."""
        return self._n

    # -- scalar API ---------------------------------------------------------

    def forward(self, index: int) -> int:
        """Map ``index`` to its permuted position (cycle walking)."""
        self._check(index)
        if self._n == 1:
            return 0
        if self._table is not None:
            return self._table[index]
        value = self._prp.forward(index)
        while value >= self._n:
            value = self._prp.forward(value)
        return value

    def inverse(self, index: int) -> int:
        """Invert :meth:`forward`."""
        self._check(index)
        if self._n == 1:
            return 0
        if self._inverse_table is not None:
            return self._inverse_table[index]
        value = self._prp.inverse(index)
        while value >= self._n:
            value = self._prp.inverse(value)
        return value

    # -- batch API ----------------------------------------------------------

    def forward_many(self, indices: Sequence[int]) -> list[int]:
        """Map every index to its permuted position in batch.

        Agrees exactly with ``[self.forward(i) for i in indices]``.
        """
        if not indices:
            return []
        self._check(min(indices))
        self._check(max(indices))
        if self._n == 1:
            return [0] * len(indices)
        if self._table is not None:
            table = self._table
            return [table[i] for i in indices]
        return self._walk_many(indices, self._prp.forward_many)

    def inverse_many(self, indices: Sequence[int]) -> list[int]:
        """Batch counterpart of :meth:`inverse`."""
        if not indices:
            return []
        self._check(min(indices))
        self._check(max(indices))
        if self._n == 1:
            return [0] * len(indices)
        if self._inverse_table is not None:
            table = self._inverse_table
            return [table[i] for i in indices]
        return self._walk_many(indices, self._prp.inverse_many)

    def _walk_many(
        self,
        indices: Sequence[int],
        step_many: Callable[[list[int]], list[int]],
    ) -> list[int]:
        """Cycle-walk all indices at once, frontier shrinking per sweep."""
        n = self._n
        out = [0] * len(indices)
        pending_slots = range(len(indices))
        values = step_many(list(indices))
        while True:
            next_slots: list[int] = []
            next_values: list[int] = []
            for slot, value in zip(pending_slots, values):
                if value < n:
                    out[slot] = value
                else:
                    next_slots.append(slot)
                    next_values.append(value)
            if not next_slots:
                return out
            pending_slots = next_slots
            values = step_many(next_values)

    def permutation_table(self) -> tuple[int, ...]:
        """The full ``index -> forward(index)`` array, built once.

        The table (and its inverse) is cached on the instance, so the
        scalar :meth:`forward`/:meth:`inverse` and all list operations
        become O(1) lookups after the first call.
        """
        if self._table is None:
            table = tuple(self._walk_many(range(self._n), self._prp.forward_many)) \
                if self._n > 1 else (0,)
            inverse = [0] * self._n
            for index, position in enumerate(table):
                inverse[position] = index
            self._table = table
            self._inverse_table = tuple(inverse)
        return self._table

    # -- list operations -----------------------------------------------------

    def permute_list(self, items: list[T]) -> list[T]:
        """Return a new list with ``items`` rearranged by the permutation.

        Element at original position *i* moves to position
        ``forward(i)`` in the output.
        """
        if len(items) != self._n:
            raise ConfigurationError(
                f"list length {len(items)} != permutation size {self._n}"
            )
        table = self.permutation_table()
        out: list[T | None] = [None] * self._n
        for position, item in zip(table, items):
            out[position] = item
        return cast("list[T]", out)

    def unpermute_list(self, items: list[T]) -> list[T]:
        """Invert :meth:`permute_list`."""
        if len(items) != self._n:
            raise ConfigurationError(
                f"list length {len(items)} != permutation size {self._n}"
            )
        self.permutation_table()
        out: list[T | None] = [None] * self._n
        for position, item in zip(self._inverse_table, items):
            out[position] = item
        return cast("list[T]", out)

    def _check(self, index: int) -> None:
        if not 0 <= index < self._n:
            raise ConfigurationError(
                f"index {index} outside permutation domain [0, {self._n})"
            )
