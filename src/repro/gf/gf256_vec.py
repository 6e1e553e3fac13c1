"""Vectorized GF(2^8) kernels on numpy exp/log-table gathers.

The scalar :mod:`repro.gf.gf256` multiplies two field elements with
three table lookups: ``EXP[LOG[a] + LOG[b]]`` (the EXP table is doubled
so the sum never needs a ``mod 255``).  The vectorized kernels here are
the same arithmetic lifted to whole numpy arrays.  The exp/log-add is
folded away entirely: ``_MUL_TABLE`` is the full 256x256 product table
(64 KiB, built once at import by one broadcast exp/log gather, zero
rows/columns included so no mask is needed).  :func:`gf_matmul`
computes a GF(256) matrix product ``A (m,k) @ B (k,w)`` one output row
at a time as a single 2-D gather ``_MUL_TABLE[A[i][:, None], B]``
(shape ``(k, w)``) followed by ``np.bitwise_xor.reduce`` down the ``k``
axis -- XOR is field addition, so the reduction *is* the dot product.

This is the kernel under the batch Reed-Solomon encoder: the
systematic RS(255, 223) parity of all 16 interleaved byte-columns of
every chunk of a file is one ``gf_matmul`` of the precomputed parity
matrix against a ``(k, n_chunks * 16)`` byte matrix (see
:meth:`repro.erasure.striping.BlockStriper.encode_blocks`), and the
decode pre-screen evaluates all columns' syndromes as one product with
the Vandermonde syndrome matrix.

numpy is an *optional* extra (``pip install repro[fast]``).  When it
is absent ``HAS_NUMPY`` is False, every kernel raises
:class:`~repro.errors.ConfigurationError`, and callers (striping,
benchmarks) fall back to the scalar path, which remains the
byte-identical semantics anchor.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.gf.gf256 import EXP_TABLE, LOG_TABLE

#: Array-of-GF(256)-elements type: bytes, an int sequence, or a numpy
#: array.  numpy is an optional extra, so the kernels are typed against
#: ``Any`` rather than ``np.ndarray``.
GFArray = Any

try:  # pragma: no cover - exercised via the no-numpy CI lane
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when numpy is importable and the vectorized kernels are usable.
#: The capability flag consulted by striping, benchmarks and packaging
#: docs; monkeypatchable in tests to exercise the fallback path.
HAS_NUMPY = _np is not None

if HAS_NUMPY:
    #: EXP table (doubled, 512 entries) as uint8 for gather results.
    _EXP_NP = _np.array(EXP_TABLE, dtype=_np.uint8)
    #: LOG table as int16 so log sums up to 508 do not wrap.
    _LOG_NP = _np.array(LOG_TABLE, dtype=_np.int16)
    # Full product table: row a, column b -> a*b in GF(256).  Built by
    # one broadcast exp/log gather; rows/columns 0 are zeroed after the
    # gather because LOG[0] is a table filler, not a logarithm.
    _MUL_TABLE = _EXP_NP[_LOG_NP[:, None] + _LOG_NP[None, :]]
    _MUL_TABLE[0, :] = 0
    _MUL_TABLE[:, 0] = 0
else:  # pragma: no cover - no-numpy environments
    _EXP_NP = _LOG_NP = _MUL_TABLE = None


def require_numpy(feature: str = "vectorized GF(256) kernels") -> None:
    """Raise :class:`ConfigurationError` when numpy is unavailable.

    Callers that cannot fall back (e.g. ``bench_rs.py``) use this to
    turn a missing optional extra into a readable configuration error
    instead of an ``AttributeError`` deep in a kernel.
    """
    if not HAS_NUMPY:
        raise ConfigurationError(
            f"{feature} need numpy; install the optional extra "
            "(pip install repro[fast]) or use the scalar path"
        )


def as_gf_array(data: GFArray, *, name: str = "array") -> GFArray:
    """Coerce ``data`` to a uint8 numpy array of GF(256) elements.

    Accepts bytes, lists, or numpy arrays.  Non-uint8 integer input is
    range-checked (the scalar API raises on out-of-range elements; a
    silent ``astype`` wrap would hide corruption instead).
    """
    require_numpy()
    if isinstance(data, (bytes, bytearray, memoryview)):
        return _np.frombuffer(data, dtype=_np.uint8)
    arr = _np.asarray(data)
    if arr.dtype == _np.uint8:
        return arr
    if not _np.issubdtype(arr.dtype, _np.integer):
        raise ConfigurationError(
            f"{name} must contain integers, got dtype {arr.dtype}"
        )
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ConfigurationError(
            f"{name} has GF(256) elements out of range [0, 255]"
        )
    return arr.astype(_np.uint8)


def gf_matmul(a: GFArray, b: GFArray) -> GFArray:
    """GF(256) matrix product ``a @ b`` via product-table gathers.

    ``a`` has shape ``(m, k)`` and ``b`` ``(k, w)``; the result is the
    ``(m, w)`` uint8 matrix with field multiplication and XOR
    accumulation.  Computed row by row: one fancy-index gather of the
    256x256 product table per output row plus an XOR reduction, so the
    Python-level loop is over ``m`` only (32 for RS(255, 223) parity).
    """
    a = as_gf_array(a, name="a")
    b = as_gf_array(b, name="b")
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigurationError(
            f"gf_matmul needs 2-D operands, got {a.ndim}-D and {b.ndim}-D"
        )
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"gf_matmul shape mismatch: {a.shape} @ {b.shape}"
        )
    m = a.shape[0]
    w = b.shape[1]
    out = _np.empty((m, w), dtype=_np.uint8)
    for i in range(m):
        out[i] = _np.bitwise_xor.reduce(_MUL_TABLE[a[i][:, None], b], axis=0)
    return out
