"""Striping 128-bit file blocks across interleaved RS codewords.

The paper (following Juels-Kaliski) describes a (255, 223, 32) code
"over GF(2^128)": each 128-bit file block is one code symbol, 223
message blocks expand to a 255-block chunk.  Symbol arithmetic over
GF(2^128) is needlessly slow in pure Python, so we realise the *same*
block-level code with the standard interleaving construction:

* take a chunk of ``k = 223`` file blocks of 16 bytes each;
* view it as a 223 x 16 byte matrix (one row per block);
* encode each of the 16 *columns* with RS(255, 223) over GF(2^8);
* the resulting 255 x 16 matrix is the encoded chunk -- rows 223..254
  are the 32 parity blocks.

Corrupting any single 128-bit block corrupts at most one symbol in each
of the 16 column codewords, so the chunk tolerates 16 corrupted blocks
(or 32 erased blocks) -- exactly the block-level correction radius of
the GF(2^128) code the paper cites, with the same 255/223 expansion.

Two engines realise the construction (the slot-vs-event pattern):

* the **scalar** path encodes one byte-column at a time through
  :class:`~repro.erasure.reed_solomon.ReedSolomon` and is the
  byte-identical semantics anchor;
* the **vectorized** path (default whenever numpy is installed; see
  :data:`repro.gf.HAS_NUMPY`) computes the parity of *all* columns of
  *all* chunks as one GF(256) matrix product against the precomputed
  systematic parity matrix, and pre-screens decodes by evaluating every
  column's syndromes in one product with the Vandermonde syndrome
  matrix (clean columns skip the scalar decoder entirely; columns that
  need correction still run the scalar Berlekamp-Massey chain, so
  corrected output is the scalar output by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.erasure.reed_solomon import ReedSolomon
from repro.errors import ConfigurationError, UncorrectableError
from repro.gf import gf256_vec
from repro.util.bitops import ceil_div


@dataclass(frozen=True)
class StripeLayout:
    """Geometry of the striped code.

    Attributes
    ----------
    block_bytes:
        Size of one file block in bytes (16 for the paper's 128-bit
        blocks).
    data_blocks:
        Message blocks per chunk (k = 223).
    total_blocks:
        Encoded blocks per chunk (n = 255).
    """

    block_bytes: int = 16
    data_blocks: int = 223
    total_blocks: int = 255

    @property
    def parity_blocks(self) -> int:
        """Parity blocks per chunk (n - k)."""
        return self.total_blocks - self.data_blocks

    def validate(self) -> None:
        """Check the geometry is a valid RS configuration."""
        if self.block_bytes < 1:
            raise ConfigurationError(
                f"block_bytes must be >= 1, got {self.block_bytes}"
            )
        if not 0 < self.data_blocks < self.total_blocks <= 255:
            raise ConfigurationError(
                "need 0 < data_blocks < total_blocks <= 255, got "
                f"k={self.data_blocks} n={self.total_blocks}"
            )


class BlockStriper:
    """Encode/decode chunks of file blocks via column-interleaved RS.

    The unit of work is a *chunk*: a list of ``data_blocks`` blocks in,
    a list of ``total_blocks`` blocks out.  Short final chunks are
    zero-padded to the full ``k`` before encoding (the file format
    records the true length so padding is stripped on decode).

    ``vectorized`` selects the numpy batch engine; the default
    (``None``) auto-detects numpy and falls back to the scalar path
    when it is absent.  Both engines are byte-identical (pinned by the
    equivalence sweep in ``tests/erasure/test_striping.py``).
    """

    def __init__(
        self,
        layout: StripeLayout | None = None,
        *,
        vectorized: bool | None = None,
    ) -> None:
        self.layout = layout or StripeLayout()
        self.layout.validate()
        if vectorized and not gf256_vec.HAS_NUMPY:
            raise ConfigurationError(
                "vectorized striping needs numpy (pip install repro[fast])"
            )
        self.vectorized = (
            gf256_vec.HAS_NUMPY if vectorized is None else bool(vectorized)
        )
        self._rs = ReedSolomon(self.layout.total_blocks, self.layout.data_blocks)
        # numpy views of the cached parity/syndrome matrices, built on
        # first use so scalar-only instantiation never touches numpy.
        self._parity_t_np: Any = None
        self._syndrome_np: Any = None

    # -- vectorized kernels --------------------------------------------------

    def _parity_transpose(self) -> Any:
        """(n-k, k) numpy parity matrix: parity rows x message positions."""
        if self._parity_t_np is None:
            import numpy as np

            pm = self._rs.parity_matrix()  # k rows of n-k bytes
            self._parity_t_np = np.ascontiguousarray(
                np.frombuffer(b"".join(pm), dtype=np.uint8)
                .reshape(self.layout.data_blocks, self.layout.parity_blocks)
                .T
            )
        return self._parity_t_np

    def _syndrome_matrix(self) -> Any:
        """(n-k, n) numpy syndrome matrix for the decode pre-screen."""
        if self._syndrome_np is None:
            import numpy as np

            sm = self._rs.syndrome_matrix()
            self._syndrome_np = np.frombuffer(
                b"".join(sm), dtype=np.uint8
            ).reshape(self.layout.parity_blocks, self.layout.total_blocks)
        return self._syndrome_np

    def _encode_whole_chunks_vec(self, payload: bytes) -> list[bytes]:
        """Batch-encode whole zero-padded chunks given as one payload.

        ``payload`` holds ``n_chunks * k`` validated blocks.  One
        ``gf_matmul`` of the ``(n-k, k)`` parity matrix against the
        ``(k, n_chunks * block_bytes)`` message matrix produces every
        parity byte of every chunk; data rows pass through unchanged
        (the code is systematic).
        """
        import numpy as np

        layout = self.layout
        k, n, bb = layout.data_blocks, layout.total_blocks, layout.block_bytes
        n_chunks = len(payload) // (k * bb)
        data = np.frombuffer(payload, dtype=np.uint8).reshape(n_chunks, k, bb)
        # Message matrix: row per message position, column per
        # (chunk, byte-column) pair -- all chunks encoded at once.
        message = np.ascontiguousarray(data.transpose(1, 0, 2)).reshape(
            k, n_chunks * bb
        )
        parity = gf256_vec.gf_matmul(self._parity_transpose(), message)
        parity = np.ascontiguousarray(
            parity.reshape(layout.parity_blocks, n_chunks, bb).transpose(1, 0, 2)
        )
        codewords = np.concatenate([data, parity], axis=1)
        flat = codewords.reshape(n_chunks * n, bb).tobytes()
        return [flat[i : i + bb] for i in range(0, len(flat), bb)]

    # -- chunk API -----------------------------------------------------------

    def _check_blocks(self, blocks: list[bytes]) -> None:
        layout = self.layout
        for i, block in enumerate(blocks):
            if len(block) != layout.block_bytes:
                raise ConfigurationError(
                    f"block {i} has {len(block)} bytes, expected {layout.block_bytes}"
                )

    def encode_chunk(self, blocks: list[bytes]) -> list[bytes]:
        """Encode up to ``data_blocks`` blocks into ``total_blocks`` blocks."""
        layout = self.layout
        if not 0 < len(blocks) <= layout.data_blocks:
            raise ConfigurationError(
                f"chunk must have 1..{layout.data_blocks} blocks, got {len(blocks)}"
            )
        self._check_blocks(blocks)
        padding = bytes(layout.block_bytes) * (layout.data_blocks - len(blocks))
        if self.vectorized:
            return self._encode_whole_chunks_vec(b"".join(blocks) + padding)
        padded = list(blocks) + [bytes(layout.block_bytes)] * (
            layout.data_blocks - len(blocks)
        )
        # Encode column-wise.
        columns_out: list[bytes] = []
        for col in range(layout.block_bytes):
            column = bytes(block[col] for block in padded)
            columns_out.append(self._rs.encode(column))
        # Transpose back to blocks.
        out: list[bytes] = []
        for row in range(layout.total_blocks):
            out.append(bytes(columns_out[col][row] for col in range(layout.block_bytes)))
        return out

    def decode_chunk(
        self,
        blocks: list[bytes],
        *,
        erasures: list[int] | None = None,
        n_data: int | None = None,
    ) -> list[bytes]:
        """Decode a ``total_blocks``-block chunk back to its data blocks.

        Parameters
        ----------
        blocks:
            The (possibly corrupted) encoded chunk.
        erasures:
            Block indices known to be lost/unreliable.  Validated up
            front at block granularity: an out-of-range index or more
            erased blocks than the parity budget is reported before any
            column decoding starts.
        n_data:
            Number of real (unpadded) data blocks to return; defaults
            to the full ``data_blocks``.
        """
        layout = self.layout
        if len(blocks) != layout.total_blocks:
            raise ConfigurationError(
                f"encoded chunk must have {layout.total_blocks} blocks, got {len(blocks)}"
            )
        self._check_blocks(blocks)
        if n_data is None:
            n_data = layout.data_blocks
        if not 0 < n_data <= layout.data_blocks:
            raise ConfigurationError(
                f"n_data must be in 1..{layout.data_blocks}, got {n_data}"
            )
        erasure_list = sorted(set(erasures or []))
        # Validate erasures at *block* granularity before touching any
        # column: previously an out-of-range index surfaced as a
        # confusing mid-decode per-column RS error ("chunk unrecoverable
        # at byte column 0: erasure position 300 out of range") after
        # wasted decode work, and an over-budget erasure count burned a
        # full column decode before failing.
        for pos in erasure_list:
            if not 0 <= pos < layout.total_blocks:
                raise ConfigurationError(
                    f"erasure block index {pos} out of range for a "
                    f"{layout.total_blocks}-block chunk"
                )
        if len(erasure_list) > layout.parity_blocks:
            raise UncorrectableError(
                f"{len(erasure_list)} erased blocks exceed the chunk's "
                f"parity budget of {layout.parity_blocks}"
            )
        clean_columns = None
        matrix = None
        if self.vectorized:
            import numpy as np

            # Pre-screen: syndromes of every byte column in one matrix
            # product.  A column with all-zero syndromes is already a
            # codeword; its message is its first k bytes whether or not
            # erasures were declared (zero syndromes force zero Forney
            # magnitudes at every erased position), so it can skip the
            # scalar decode chain byte-identically.
            matrix = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
                layout.total_blocks, layout.block_bytes
            )
            syndromes = gf256_vec.gf_matmul(self._syndrome_matrix(), matrix)
            clean_columns = ~syndromes.any(axis=0)
        decoded_columns: list[bytes] = []
        for col in range(layout.block_bytes):
            if clean_columns is not None and clean_columns[col]:
                decoded_columns.append(
                    matrix[: layout.data_blocks, col].tobytes()
                )
                continue
            column = bytes(block[col] for block in blocks)
            try:
                decoded_columns.append(self._rs.decode(column, erasures=erasure_list))
            except UncorrectableError as exc:
                raise UncorrectableError(
                    f"chunk unrecoverable at byte column {col}: {exc}"
                ) from exc
        out: list[bytes] = []
        for row in range(n_data):
            out.append(bytes(decoded_columns[col][row] for col in range(layout.block_bytes)))
        return out

    # -- whole-file helpers ---------------------------------------------------

    def encoded_length(self, n_data_blocks: int) -> int:
        """Number of encoded blocks for a file of ``n_data_blocks`` blocks."""
        if n_data_blocks < 0:
            raise ConfigurationError(
                f"n_data_blocks must be >= 0, got {n_data_blocks}"
            )
        chunks = ceil_div(n_data_blocks, self.layout.data_blocks)
        return chunks * self.layout.total_blocks

    def encode_blocks(self, blocks: list[bytes]) -> list[bytes]:
        """Encode a whole file's block list chunk by chunk."""
        if not blocks:
            return []
        layout = self.layout
        k = layout.data_blocks
        if self.vectorized:
            self._check_blocks(blocks)
            pad_blocks = ceil_div(len(blocks), k) * k - len(blocks)
            payload = b"".join(blocks) + bytes(pad_blocks * layout.block_bytes)
            return self._encode_whole_chunks_vec(payload)
        out: list[bytes] = []
        for start in range(0, len(blocks), k):
            out.extend(self.encode_chunk(blocks[start : start + k]))
        return out
