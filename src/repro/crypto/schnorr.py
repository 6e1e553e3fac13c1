"""Schnorr signatures over a Schnorr group, with a batch verification plane.

The GeoProof verifier device "has a private key which it uses to sign
the transcript of the distance bounding protocol" before sending it to
the TPA.  The paper does not fix a signature scheme; we implement
Schnorr signatures over a Schnorr group (prime-order subgroup of
``Z_p^*``), which is EUF-CMA secure under discrete log in the random
oracle model and implementable with integer arithmetic alone.

Signatures are the commitment form ``(R, s)`` with ``R = g^k`` and
``s = k + x*e mod q`` where ``e = H(R, m)``.  Verification checks
``g^s == R * y^e``.  Unlike the challenge form ``(e, s)``, this
equation is *linear in the exponents*, which is what makes
random-linear-combination batch verification possible: a batch of n
signatures collapses to one equation

    g^(sum z_i s_i)  ==  prod R_i^(z_i) * y^(sum z_i e_i)   (mod p)

with small random ``z_i``.  A signer cannot anticipate the ``z_i``, so
an invalid signature survives the combined check with probability
~2^-64; on failure the batch bisects to identify the exact culprits
(see ``schnorr_verify_many``).

Two precomputation strategies back the hot paths:

* **fixed-base windowed tables** (cached per group for ``g`` and per
  public key for ``y``): ``base^(d * 2^(w*i))`` for every window
  digit, so an exponentiation is ~q_bits/w modular multiplies and
  zero squarings.  The per-group generator table uses 8-bit windows
  (the group is a process-wide singleton, so the bigger build
  amortizes); per-key tables stay at 4 bits.  Signing uses the ``g``
  table, and every *exact* check ``g^s * y^(q-e) == R`` -- a single
  verify, a bisection leaf, any batch of at most
  ``_EXACT_BATCH_MAX`` -- goes through both tables (~96 multiplies on
  ``DEFAULT_GROUP``).  The two aggregated exponents of a larger batch
  use them too.
* **digit-bucketed multi-exponentiation** for the ``prod R_i^(z_i)``
  term of a batch: bases are bucketed by digit of their exponent, so
  the per-signature cost is a handful of multiplies regardless of
  batch size (4-bit digits normally, 8-bit once the batch is large
  enough to amortize the bigger bucket combine).

Both kernels reduce every product with a **one-fold special-form
reduction** (Menezes, van Oorschot & Vanstone, *Handbook of Applied
Cryptography*, 14.3.4).  ``_generate_group`` takes ``p = q*m + 1``
just above ``2^(p_bits-1)``, so ``p = 2^n + c`` with ``c`` about the
size of ``q``.  Splitting a product ``x = hi*2^n + lo`` and using
``2^n = -c (mod p)`` gives ``x = lo - hi*c (mod p)``; the kernels
compute ``((x & lo_mask) - (x >> n) * c) % p``.  That is an exact
congruence for every modulus ``p >= 2`` (Python's ``%`` returns a value
in ``[0, p)`` for any sign), so every value and signature is the same
as with a plain ``x % p``.  The gain is in the division: after the fold,
``% p`` divides an ``n + |c|``-bit number (a ``|c|``-bit quotient)
instead of a ``2n``-bit one.  On ``DEFAULT_GROUP`` (``n`` = 1023, ``c``
265 bits) a product with its reduction falls from ~2.6 to ~1.8 us; on
``TEST_GROUP`` (511, 166) from ~0.8 to ~0.65 us.  When ``c`` is nearly
``n`` bits the shift and extra multiply cost more than they save (a
256-bit group with a 165-bit ``c``: ~0.28 -> ~0.39 us), but the kernels
keep one expression for every modulus.

The default parameters are a 1024-bit prime with a 256-bit subgroup,
generated once and embedded below (DSA-style (p, q, g) triple).  A
small insecure parameter set is provided for fast tests.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.errors import ConfigurationError

# Window width (bits) for fixed-base tables and the multi-exponentiation
# digit buckets.  4 bits = base-16 digits: 15 precomputed multiples per
# table row, ~exp_bits/4 multiplies per exponentiation.
_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1

# Wider window for the per-*group* generator table: 255 multiples per
# row halves the multiplies per exponentiation (~exp_bits/8), at a
# one-time table build cost that only pays off for state shared across
# a whole process (the group is a module singleton; a per-key table
# would pay the build for every key it meets).
_WIDE_WINDOW_BITS = 8

# Batch size at which the multi-exponentiation switches to 8-bit digit
# buckets: the per-base cost halves, but the fixed bucket-combine cost
# grows 16x, so small batches (and bisection leaves) stay on 4-bit
# windows.
_MULTI_EXP_WIDE_THRESHOLD = 512

# Size of the random-linear-combination batch randomizers.  An invalid
# signature passes the combined check only if it lands in the kernel of
# a random functional over Z_q, i.e. with probability ~2^-64.  The
# randomizers MUST be unpredictable to the signer -- OS entropy, never
# a seeded simulation stream (see docs/INVARIANTS.md, CRY002).
_RANDOMIZER_BITS = 64

# Largest batch that skips the random-linear-combination check and
# verifies signature by signature through the fixed-base tables.  On
# DEFAULT_GROUP (2-vCPU Xeon host) 4 signatures cost ~450-525 us each
# through the tables against ~575 us each for the combined check; from
# 5 up the combined check is cheaper.
_EXACT_BATCH_MAX = 4


class _FixedBaseTable:
    """Windowed precomputation for powers of one fixed base mod p.

    ``rows[i][d] == base^(d << (w*i)) mod p`` for digits ``d`` in
    ``1..2^w - 1``; ``pow(e)`` multiplies one row entry per nonzero
    base-``2^w`` digit of ``e`` -- no squarings at all.  Rows extend
    lazily if an exponent outgrows the initial allocation.
    """

    __slots__ = (
        "_p", "_n", "_c", "_lo", "_rows", "_next_base", "_window_bits",
        "_window_mask",
    )

    def __init__(
        self,
        base: int,
        p: int,
        exp_bits: int,
        window_bits: int = _WINDOW_BITS,
    ) -> None:
        self._p = p
        # The fold's constants, p = 2^n + c (module docstring, and pow).
        self._n = n = p.bit_length() - 1
        self._c = p - (1 << n)
        self._lo = (1 << n) - 1
        self._rows: list[list[int]] = []
        self._next_base = base % p
        self._window_bits = window_bits
        self._window_mask = (1 << window_bits) - 1
        self._extend_to((exp_bits + window_bits - 1) // window_bits)

    def _extend_to(self, n_rows: int) -> None:
        p, n, c, lo = self._p, self._n, self._c, self._lo
        while len(self._rows) < n_rows:
            b = self._next_base
            row = [1, b]
            acc = b
            for _ in range(self._window_mask - 1):
                x = acc * b
                acc = ((x & lo) - (x >> n) * c) % p
                row.append(acc)
            self._rows.append(row)
            # base for the next row: b^(2^w) via w squarings.
            for _ in range(self._window_bits):
                x = b * b
                b = ((x & lo) - (x >> n) * c) % p
            self._next_base = b

    def pow(self, exponent: int) -> int:
        """Return ``base^exponent mod p`` (exponent must be >= 0)."""
        p, n, c, lo = self._p, self._n, self._c, self._lo
        rows = self._rows
        window_bits = self._window_bits
        mask = self._window_mask
        needed = (exponent.bit_length() + window_bits - 1) // window_bits
        if needed > len(rows):
            self._extend_to(needed)
        acc = 1
        i = 0
        while exponent:
            d = exponent & mask
            if d:
                # x = hi*2^n + lo = lo - hi*c (mod p): fold hi once, so
                # % p divides an (n + |c|)-bit number, not a 2n-bit one.
                x = acc * rows[i][d]
                acc = ((x & lo) - (x >> n) * c) % p
            exponent >>= window_bits
            i += 1
        return acc


# ---------------------------------------------------------------------------
# Group parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchnorrGroup:
    """A Schnorr group: prime modulus p, prime subgroup order q, generator g.

    ``g`` generates the order-``q`` subgroup of ``Z_p^*``; valid
    parameters satisfy ``q | p - 1`` and ``g^q = 1 (mod p)``.
    """

    p: int
    q: int
    g: int

    def validate(self) -> None:
        """Check the structural relations (not primality, which is assumed)."""
        if (self.p - 1) % self.q != 0:
            raise ConfigurationError("q must divide p - 1")
        if pow(self.g, self.q, self.p) != 1:
            raise ConfigurationError("g must have order q")
        if self.g in (0, 1) or not 1 < self.g < self.p:
            raise ConfigurationError("g out of range")

    @cached_property
    def _g_table(self) -> _FixedBaseTable:
        # cached_property writes the instance __dict__ directly, which
        # bypasses the frozen __setattr__; the table is derived state,
        # not a field, so eq/hash are unaffected.  Wide windows: groups
        # are module singletons, so the bigger build cost is paid once
        # per process and every signature saves half its multiplies.
        return _FixedBaseTable(
            self.g, self.p, self.q.bit_length(), _WIDE_WINDOW_BITS
        )


def _generate_group(p_bits: int, q_bits: int, seed: int) -> SchnorrGroup:
    """Deterministically generate a (p, q, g) triple (DSA-style).

    Not FIPS 186 verifiable generation -- just a reproducible search for
    a prime q, then a prime p = q*m + 1, then g = h^((p-1)/q), with
    40-round Miller-Rabin on both primes.  Nothing runs it at import:
    it is the reference the embedded ``TEST_GROUP``/``DEFAULT_GROUP``
    literals are tested against, and benchmarks call it for groups of
    other sizes.
    """

    def is_probable_prime(n: int, rounds: int = 40) -> bool:
        if n < 2:
            return False
        for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            if n % small == 0:
                return n == small
        d, r = n - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        rng = _DetRand(seed ^ n)
        for _ in range(rounds):
            a = rng.randrange(2, n - 1)
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(r - 1):
                x = pow(x, 2, n)
                if x == n - 1:
                    break
            else:
                return False
        return True

    class _DetRand:
        def __init__(self, s: int) -> None:
            n_bytes = max(1, (s.bit_length() + 7) // 8)
            self._state = hashlib.sha256(s.to_bytes(n_bytes, "big")).digest()

        def randrange(self, low: int, high: int) -> int:
            span = high - low
            self._state = hashlib.sha256(self._state).digest()
            return low + int.from_bytes(self._state, "big") % span

        def randbits(self, bits: int) -> int:
            out = 0
            while out.bit_length() < bits:
                self._state = hashlib.sha256(self._state).digest()
                out = (out << 256) | int.from_bytes(self._state, "big")
            return out >> (out.bit_length() - bits) | (1 << (bits - 1))

    rng = _DetRand(seed)
    q = rng.randbits(q_bits) | 1
    while not is_probable_prime(q):
        q += 2
    # Search p = q * m + 1 with the right size.
    m = (1 << (p_bits - 1)) // q
    while True:
        p = q * m + 1
        if p.bit_length() == p_bits and is_probable_prime(p):
            break
        m += 1
    h = 2
    while True:
        g = pow(h, (p - 1) // q, p)
        if g > 1:
            break
        h += 1
    group = SchnorrGroup(p=p, q=q, g=g)
    group.validate()
    return group


# The two groups are domain parameters: generated once, embedded as
# literals, and only structurally validated at import (primality was
# decided by the search that produced them).
# tests/crypto/test_schnorr.py::TestGroupParameters pins each literal
# to the ``_generate_group`` call it reproduces.

# A small (insecure!) group for unit tests -- fast key generation and
# signing.  ``_generate_group(p_bits=512, q_bits=160, seed=0x47656F)``.
TEST_GROUP = SchnorrGroup(
    p=int(
        "8000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000022827E25C9C08D4E30F328CC90E1206263F12565F9",
        16,
    ),
    q=0x99B977BCEB6A86DD14B02F22A145BEE28FF9B475,
    g=int(
        "32615C3859592CFA626DA671DE2D78A431778A05F4365C2F516F1289B6995C83"
        "4147B8341AB0BEC78FBF98F4502FA170DD325174A5408E3A95FDD96C9B8FF551",
        16,
    ),
)
TEST_GROUP.validate()

# Default group for examples/benchmarks: moderate size keeps pure-Python
# modexp affordable while being structurally identical to production
# parameters.
# ``_generate_group(p_bits=1024, q_bits=256, seed=0x47656F50726F6F66)``.
DEFAULT_GROUP = SchnorrGroup(
    p=int(
        "8000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000000000000000000000018A"
        "7A111D6142B79E9CA1709FF1FF57DEC08A13E5C3C6006B79FBAFB56E0395A78D",
        16,
    ),
    q=0xAF05A099CEF60B770E90CA5B46BCC9DBA938C3355DE83CC62CCCC38860792F51,
    g=int(
        "46C895C0422145A60D67653CB3F9AFA3F755CF5BFC22007C48385675D111D413"
        "EB97EBD6DBAC83BAF52AC6298A42CDAA6ECC92FDC14E35766F85315D8DB061A6"
        "37F422B2AC11ABC34EC413485EEACDFAEA0BF422B43EC804353C56BB6EB1C99F"
        "6248D7811B244E51F969374115D1D0C4C1A62E6C346E59591A21D6ADA956D859",
        16,
    ),
)
DEFAULT_GROUP.validate()


# ---------------------------------------------------------------------------
# Keys and signatures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchnorrPublicKey:
    """Public key ``y = g^x mod p`` with its group."""

    group: SchnorrGroup
    y: int

    @cached_property
    def _y_table(self) -> _FixedBaseTable:
        group = self.group
        return _FixedBaseTable(self.y, group.p, group.q.bit_length())


@dataclass(frozen=True)
class SchnorrPrivateKey:
    """Private exponent ``x`` in ``[1, q)`` with its group."""

    group: SchnorrGroup
    x: int

    def public_key(self) -> SchnorrPublicKey:
        """Derive the matching public key."""
        return SchnorrPublicKey(self.group, pow(self.group.g, self.x, self.group.p))


@dataclass(frozen=True)
class SchnorrKeyPair:
    """A private/public key pair."""

    private: SchnorrPrivateKey
    public: SchnorrPublicKey

    @classmethod
    def generate(
        cls,
        group: SchnorrGroup = DEFAULT_GROUP,
        *,
        seed: bytes | None = None,
    ) -> "SchnorrKeyPair":
        """Generate a key pair.

        With ``seed`` the private key is derived deterministically
        (useful for reproducible simulations); otherwise it uses the
        OS CSPRNG.
        """
        if seed is not None:
            digest = hashlib.sha256(b"schnorr-keygen" + seed).digest()
            x = 1 + int.from_bytes(digest, "big") % (group.q - 1)
        else:
            x = 1 + secrets.randbelow(group.q - 1)
        private = SchnorrPrivateKey(group, x)
        return cls(private=private, public=private.public_key())


def _challenge_hash(group: SchnorrGroup, commitment: int, message: bytes) -> int:
    digest = hashlib.sha256(
        b"schnorr-sign"
        + group.p.to_bytes((group.p.bit_length() + 7) // 8, "big")
        + commitment.to_bytes((group.p.bit_length() + 7) // 8, "big")
        + message
    ).digest()
    return int.from_bytes(digest, "big") % group.q


def _nonce(private: SchnorrPrivateKey, message: bytes) -> int:
    """Deterministic per-message nonce (RFC 6979 style)."""
    group = private.group
    nonce_digest = hashlib.sha256(
        b"schnorr-nonce"
        + private.x.to_bytes((group.q.bit_length() + 7) // 8, "big")
        + message
    ).digest()
    return 1 + int.from_bytes(nonce_digest, "big") % (group.q - 1)


def schnorr_sign(private: SchnorrPrivateKey, message: bytes) -> tuple[int, int]:
    """Sign ``message``; returns the commitment pair ``(R, s)``.

    Uses deterministic nonces (RFC 6979 style: the nonce is a hash of
    the key and message) so repeated signing never reuses a nonce.
    The commitment ``R = g^k`` comes from the group's cached
    fixed-base table.
    """
    group = private.group
    k = _nonce(private, message)
    commitment = group._g_table.pow(k)
    e = _challenge_hash(group, commitment, message)
    s = (k + private.x * e) % group.q
    return commitment, s


def schnorr_sign_many(
    private: SchnorrPrivateKey, messages: Sequence[bytes]
) -> list[tuple[int, int]]:
    """Sign every message with :func:`schnorr_sign`, in order."""
    return [schnorr_sign(private, message) for message in messages]


def _holds_exactly(
    public: SchnorrPublicKey, commitment: int, s: int, e: int
) -> bool:
    """The exact check ``g^s * y^(q-e) == R`` through the cached tables.

    ``g^s * y^(-e) = g^(k + xe) * g^(-xe) = g^k = R`` for a valid
    signature.  Both powers come from fixed-base tables (no squarings),
    so the first check under a key also builds that key's ``y`` table.
    """
    group = public.group
    return (
        group._g_table.pow(s) * public._y_table.pow(group.q - e) % group.p
        == commitment
    )


def _structurally_valid(group: SchnorrGroup, signature: tuple[int, int]) -> bool:
    """Unpack/range checks shared by single and batch verify; never raises."""
    try:
        commitment, s = signature
    except (TypeError, ValueError):
        return False
    if not isinstance(commitment, int) or not isinstance(s, int):
        return False
    return 0 < commitment < group.p and 0 <= s < group.q


def schnorr_verify(
    public: SchnorrPublicKey, message: bytes, signature: tuple[int, int]
) -> bool:
    """Verify a Schnorr signature; returns True/False (never raises)."""
    if not _structurally_valid(public.group, signature):
        return False
    commitment, s = signature
    group = public.group
    e = _challenge_hash(group, commitment, message)
    return _holds_exactly(public, commitment, s, e)


def _multi_exp(p: int, bases: Sequence[int], exponents: Sequence[int]) -> int:
    """``prod bases[i]^exponents[i] mod p`` for small exponents.

    Digit-bucketed interleaving: each base is multiplied into the
    bucket of its exponent's digits, then buckets combine with the
    sum-of-powers trick and one shared squaring chain.  Cost is
    ~(exp_bits/w) multiplies per base plus a fixed combine that grows
    with ``2^w`` -- hence 4-bit digits for small batches and 8-bit
    digits past ``_MULTI_EXP_WIDE_THRESHOLD`` bases.
    """
    if not bases:
        return 1
    # Wider digits once the batch is big enough to amortize the larger
    # fixed combine (the result is the same product either way).
    if len(bases) >= _MULTI_EXP_WIDE_THRESHOLD:
        window_bits = _WIDE_WINDOW_BITS
    else:
        window_bits = _WINDOW_BITS
    mask = (1 << window_bits) - 1
    n_windows = (
        max(e.bit_length() for e in exponents) + window_bits - 1
    ) // window_bits
    if n_windows == 0:
        return 1
    # The same one-fold reduction as _FixedBaseTable (module docstring).
    n = p.bit_length() - 1
    c = p - (1 << n)
    lo = (1 << n) - 1
    buckets = [[1] * (mask + 1) for _ in range(n_windows)]
    for base, exponent in zip(bases, exponents):
        w = 0
        while exponent:
            d = exponent & mask
            if d:
                row = buckets[w]
                x = row[d] * base
                row[d] = ((x & lo) - (x >> n) * c) % p
            exponent >>= window_bits
            w += 1
    acc = 1
    for w in range(n_windows - 1, -1, -1):
        if w != n_windows - 1:
            for _ in range(window_bits):
                x = acc * acc
                acc = ((x & lo) - (x >> n) * c) % p
        # window value = prod_d buckets[w][d]^d via running suffix products.
        row = buckets[w]
        running = 1
        window_val = 1
        for d in range(mask, 0, -1):
            bucket = row[d]
            if bucket != 1:
                x = running * bucket
                running = ((x & lo) - (x >> n) * c) % p
            if running != 1:
                x = window_val * running
                window_val = ((x & lo) - (x >> n) * c) % p
        if window_val != 1:
            x = acc * window_val
            acc = ((x & lo) - (x >> n) * c) % p
    return acc


def _batch_holds(
    public: SchnorrPublicKey, items: Sequence[tuple[int, int, int, int]]
) -> bool:
    """Random-linear-combination check over ``(index, R, s, e)`` items.

    Draws fresh randomizers from OS entropy on every call -- a repeated
    check over the same items uses new ``z_i``, so an adversary cannot
    precompute a batch that survives retries.
    """
    group = public.group
    p, q = group.p, group.q
    a = 0
    b = 0
    commitments: list[int] = []
    randomizers: list[int] = []
    for _, commitment, s, e in items:
        z = secrets.randbits(_RANDOMIZER_BITS) | 1
        a += z * s
        b += z * e
        commitments.append(commitment)
        randomizers.append(z)
    lhs = group._g_table.pow(a % q)
    rhs = public._y_table.pow(b % q) * _multi_exp(p, commitments, randomizers) % p
    return lhs == rhs


def _verify_bisect(
    public: SchnorrPublicKey,
    items: Sequence[tuple[int, int, int, int]],
    results: list[bool],
) -> None:
    """Recursively isolate invalid signatures; exact checks at the leaves.

    A leaf is any run of at most ``_EXACT_BATCH_MAX`` items: each one
    is checked exactly, since that is cheaper than a combined check
    over so few.
    """
    if len(items) <= _EXACT_BATCH_MAX:
        for index, commitment, s, e in items:
            results[index] = _holds_exactly(public, commitment, s, e)
        return
    if _batch_holds(public, items):
        for index, _, _, _ in items:
            results[index] = True
        return
    mid = len(items) // 2
    _verify_bisect(public, items[:mid], results)
    _verify_bisect(public, items[mid:], results)


def schnorr_verify_many(
    public: SchnorrPublicKey,
    messages: Sequence[bytes],
    signatures: Sequence[tuple[int, int]],
) -> list[bool]:
    """Batch-verify signatures; returns one verdict per input position.

    Semantics are exactly those of calling :func:`schnorr_verify` per
    pair: malformed or out-of-range signatures are False.  A batch of
    at most ``_EXACT_BATCH_MAX`` is checked signature by signature;
    a larger one runs the combined random-linear-combination check,
    and when that fails, bisection narrows down to the exact culprits
    (checked individually at the leaves).  The only difference is
    probabilistic: an *invalid* signature can survive the combined
    check with probability ~2^-64 per randomizer draw.  Valid
    signatures are never rejected.
    """
    if len(messages) != len(signatures):
        raise ConfigurationError(
            "schnorr_verify_many: %d messages vs %d signatures"
            % (len(messages), len(signatures))
        )
    group = public.group
    results = [False] * len(signatures)
    items: list[tuple[int, int, int, int]] = []
    for index, (message, signature) in enumerate(zip(messages, signatures)):
        if not _structurally_valid(group, signature):
            continue
        commitment, s = signature
        e = _challenge_hash(group, commitment, message)
        items.append((index, commitment, s, e))
    if items:
        _verify_bisect(public, items, results)
    return results
