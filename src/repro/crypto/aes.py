"""AES (FIPS-197) with CTR mode, scalar and numpy-batched.

The POR setup phase encrypts the error-corrected file with a symmetric
cipher; the paper fixes the block size to 128 bits "as it is the size of
an AES block".  This is a from-scratch implementation of the AES block
cipher for 128/192/256-bit keys plus counter mode, which is what a real
deployment would use for bulk file encryption (no padding, seekable).

CTR mode has two paths that produce the same bytes:

* **Scalar** -- :func:`_ctr_keystream` runs :meth:`AES.encrypt_block`,
  a table-driven byte-oriented round loop, once per 16-byte counter
  block.  It is the fallback when numpy is absent and the reference
  the test suite pins to the FIPS-197 and SP 800-38A vectors.
* **Vectorized** -- :func:`_ctr_xor_vec` builds every counter block of
  one call as a ``(n_blocks, 16)`` uint8 array and runs each round as a
  few whole-array gathers and XORs.  :func:`aes_ctr_encrypt` takes it
  whenever :data:`repro.gf.gf256_vec.HAS_NUMPY` is set, so the setup
  pipeline's step 3 and :func:`~repro.por.setup.extract_file`'s decrypt
  encrypt a whole file in one batch.

Neither path is constant time or meant to resist side channels; the
reproduction needs functional correctness, not a hardened cipher.
"""

from __future__ import annotations

from typing import Any

from repro.errors import InvalidKeyError
from repro.gf import gf256_vec
from repro.util.bitops import xor_bytes

# ---------------------------------------------------------------------------
# S-box generation.  Rather than hard-coding the 256-entry table we derive
# it from the definition (multiplicative inverse in GF(2^8) followed by the
# affine transform), which both documents the construction and guards
# against transcription errors.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses via exponentiation: a^254 = a^(-1) in GF(2^8).
    def inv(a: int) -> int:
        if a == 0:
            return 0
        result, base, exp = 1, a, 254
        while exp:
            if exp & 1:
                result = _gf_mul(result, base)
            base = _gf_mul(base, base)
            exp >>= 1
        return result

    sbox = bytearray(256)
    for value in range(256):
        x = inv(value)
        y = x
        for _ in range(4):
            x = ((x << 1) | (x >> 7)) & 0xFF
            y ^= x
        sbox[value] = y ^ 0x63
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
_MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
_MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
_MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
_MUL14 = bytes(_gf_mul(x, 14) for x in range(256))


class AES:
    """The AES block cipher.

    Parameters
    ----------
    key:
        16, 24 or 32 bytes (AES-128/192/256).

    The instance exposes :meth:`encrypt_block` / :meth:`decrypt_block`
    on exactly 16 bytes.  Use :func:`aes_ctr_encrypt` for bulk data.
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise InvalidKeyError(
                f"AES key must be 16/24/32 bytes, got {len(key)}"
            )
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    # -- key schedule -------------------------------------------------

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        words: list[list[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self._rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([w ^ t for w, t in zip(words[i - nk], temp)])
        # Group into round keys of 16 bytes, column-major state layout.
        round_keys = []
        for r in range(self._rounds + 1):
            rk: list[int] = []
            for c in range(4):
                rk.extend(words[4 * r + c])
            round_keys.append(rk)
        return round_keys

    # -- round functions ----------------------------------------------

    @staticmethod
    def _add_round_key(state: list[int], rk: list[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # state is column-major: state[4*c + r] is row r, column c.
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[4 * c + r] = row[c]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> None:
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[4 * c + r] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[4 * c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[4 * c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[4 * c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    # -- public block API ----------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != 16:
            raise InvalidKeyError(
                f"AES block must be 16 bytes, got {len(plaintext)}"
            )
        state = list(plaintext)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, self._rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != 16:
            raise InvalidKeyError(
                f"AES block must be 16 bytes, got {len(ciphertext)}"
            )
        state = list(ciphertext)
        self._add_round_key(state, self._round_keys[self._rounds])
        for r in range(self._rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[r])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)


def _ctr_keystream(aes: AES, nonce: bytes, n_bytes: int) -> bytes:
    """Generate ``n_bytes`` of CTR keystream for a 16-byte initial counter."""
    out = bytearray()
    counter = int.from_bytes(nonce, "big")
    while len(out) < n_bytes:
        out.extend(aes.encrypt_block(counter.to_bytes(16, "big")))
        counter = (counter + 1) % (1 << 128)
    return bytes(out[:n_bytes])


#: ShiftRows as a column permutation of the flat column-major state:
#: output byte ``4c + r`` comes from input byte ``4((c + r) % 4) + r``.
_SHIFT_ROWS = [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]


def _ctr_xor_vec(aes: AES, nonce: bytes, plaintext: bytes) -> bytes:
    """CTR-encrypt ``plaintext`` with every counter block in one numpy batch.

    The same rounds as :meth:`AES.encrypt_block`, each lifted to a
    ``(n_blocks, 16)`` uint8 state: SubBytes is one S-box gather,
    ShiftRows one column permutation, MixColumns the xtime identity
    ``a_i ^ t ^ 2(a_i ^ a_{i+1})`` with ``t`` the column's XOR, and
    AddRoundKey a broadcast XOR.
    """
    import numpy as np

    n_blocks = -(-len(plaintext) // 16)
    # The 128-bit counter as two big-endian uint64 halves: the low half
    # wraps mod 2^64 and carries into the high half, which wraps too.
    lo0 = np.uint64(int.from_bytes(nonce[8:], "big"))
    lo = lo0 + np.arange(n_blocks, dtype=np.uint64)
    counters = np.empty((n_blocks, 2), dtype=">u8")
    counters[:, 0] = np.uint64(int.from_bytes(nonce[:8], "big")) + (lo < lo0)
    counters[:, 1] = lo
    round_keys = np.array(aes._round_keys, dtype=np.uint8)
    state: Any = counters.view(np.uint8) ^ round_keys[0]
    sbox = np.frombuffer(_SBOX, dtype=np.uint8)
    mul2 = np.frombuffer(_MUL2, dtype=np.uint8)
    for r in range(1, aes._rounds + 1):
        state = sbox[state][:, _SHIFT_ROWS]
        if r < aes._rounds:
            cols = state.reshape(n_blocks, 4, 4)
            t = np.bitwise_xor.reduce(cols, axis=2, keepdims=True)
            cols = cols ^ t ^ mul2[cols ^ np.roll(cols, -1, axis=2)]
            state = cols.reshape(n_blocks, 16)
        state = state ^ round_keys[r]
    keystream = state.reshape(-1)[: len(plaintext)]
    return (keystream ^ np.frombuffer(plaintext, dtype=np.uint8)).tobytes()


def aes_ctr_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` with AES-CTR.

    ``nonce`` is the 16-byte initial counter block (SP 800-38A style).
    CTR mode needs no padding and is length-preserving, which keeps the
    POR block accounting exact.  Runs the numpy batch kernel when
    :data:`repro.gf.gf256_vec.HAS_NUMPY` is set (read per call), else
    the scalar block loop; both produce the same bytes.
    """
    if len(nonce) != 16:
        raise InvalidKeyError(f"CTR nonce must be 16 bytes, got {len(nonce)}")
    aes = AES(key)
    if gf256_vec.HAS_NUMPY:
        return _ctr_xor_vec(aes, nonce, plaintext)
    return xor_bytes(plaintext, _ctr_keystream(aes, nonce, len(plaintext)))


def aes_ctr_decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """Decrypt AES-CTR ciphertext (CTR is an involution)."""
    return aes_ctr_encrypt(key, nonce, ciphertext)
