"""Cryptographic substrate for the GeoProof reproduction.

The paper assumes standard primitives and names AES explicitly ("the
block size is 128 bits as it is the size of an AES block").  No external
crypto packages are available offline, so everything here is built from
scratch on top of :mod:`hashlib`'s SHA-256:

* :mod:`repro.crypto.aes` -- FIPS-197 AES-128/192/256 and CTR mode;
  with numpy, CTR encrypts all counter blocks of a call as one batch.
* :mod:`repro.crypto.prf` -- HMAC-SHA256 pseudorandom function.
* :mod:`repro.crypto.kdf` -- HKDF (extract-and-expand) key derivation.
* :mod:`repro.crypto.mac` -- truncated HMAC tags (the paper uses 20-bit
  tags on POR segments), with batch ``mac_tag_many``/``mac_verify_many``
  that amortise the HMAC key schedule across a file's segments.
* :mod:`repro.crypto.prp` -- a Luby-Rackoff Feistel pseudorandom
  permutation over an arbitrary domain ``[0, n)`` via cycle-walking,
  used to shuffle file blocks in the POR setup phase; the batch
  engine (``forward_many`` / ``permutation_table``) evaluates whole
  permutations round-major and is the largest setup stage on small
  files.
* :mod:`repro.crypto.schnorr` -- Schnorr signatures over a Schnorr
  group; the verifier device signs its protocol transcripts.
* :mod:`repro.crypto.rng` -- a deterministic HMAC-DRBG used wherever the
  simulation needs reproducible randomness.
"""

from repro.crypto.aes import AES, aes_ctr_decrypt, aes_ctr_encrypt
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.mac import mac_tag, mac_tag_many, mac_verify, mac_verify_many
from repro.crypto.prf import prf, prf_many, prf_stream
from repro.crypto.prp import BlockPermutation, FeistelPRP
from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrPrivateKey,
    SchnorrPublicKey,
    schnorr_sign,
    schnorr_sign_many,
    schnorr_verify,
    schnorr_verify_many,
)

__all__ = [
    "AES",
    "aes_ctr_encrypt",
    "aes_ctr_decrypt",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "mac_tag",
    "mac_tag_many",
    "mac_verify",
    "mac_verify_many",
    "prf",
    "prf_many",
    "prf_stream",
    "FeistelPRP",
    "BlockPermutation",
    "DeterministicRNG",
    "SchnorrKeyPair",
    "SchnorrPrivateKey",
    "SchnorrPublicKey",
    "schnorr_sign",
    "schnorr_sign_many",
    "schnorr_verify",
    "schnorr_verify_many",
]
