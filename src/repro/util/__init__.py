"""General-purpose utilities shared by every subsystem.

The modules here are deliberately dependency-free (standard library
only) so that any subsystem can import them without cycles:

* :mod:`repro.util.bitops` -- bit-level packing/unpacking helpers used by
  the distance-bounding protocols and the POR file format.
* :mod:`repro.util.serialization` -- canonical, deterministic byte
  encodings used everywhere a value is MACed or signed.
* :mod:`repro.util.validation` -- small argument-checking helpers that
  raise :class:`repro.errors.ConfigurationError` with useful messages.
"""

from repro.util.bitops import (
    bit_at,
    ceil_div,
    split_in_half,
    xor_bytes,
)
from repro.util.serialization import (
    decode_bytes_list,
    decode_uint_list,
    encode_bytes_list,
    encode_length_prefixed,
    encode_uint,
    encode_uint_list,
)
from repro.util.validation import (
    check_positive,
    check_probability,
    check_range,
)

__all__ = [
    "bit_at",
    "ceil_div",
    "split_in_half",
    "xor_bytes",
    "decode_bytes_list",
    "decode_uint_list",
    "encode_bytes_list",
    "encode_length_prefixed",
    "encode_uint",
    "encode_uint_list",
    "check_positive",
    "check_probability",
    "check_range",
]
