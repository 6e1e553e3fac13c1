"""The five-step Juels-Kaliski setup pipeline and its inverse.

Section V-A of the paper:

1. divide the file into blocks of ``l_B`` = 128 bits;
2. group blocks into k-block chunks and apply the (255, 223)
   Reed-Solomon code, yielding ``F'``;
3. encrypt: ``F'' = E_K(F')``;
4. reorder blocks of ``F''`` with a pseudorandom permutation,
   yielding ``F'''``;
5. cut ``F'''`` into v-block segments, MAC each as
   ``tau_i = MAC_K'(S_i, i, fid)`` and embed the tag, yielding ``F~``.

:func:`setup_file` performs 1-5; :func:`extract_file` inverts them
(verify tags, un-permute, decrypt, ECC-decode) and is what makes the
scheme a proof of *retrievability*: as long as not too many blocks per
chunk are bad, the original file comes back bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.aes import aes_ctr_decrypt, aes_ctr_encrypt
from repro.crypto.kdf import derive_subkeys
from repro.crypto.mac import mac_tag_many, mac_verify_many
from repro.crypto.prp import BlockPermutation
from repro.erasure.striping import BlockStriper
from repro.errors import ConfigurationError, VerificationError
from repro.por.file_format import EncodedFile, Segment
from repro.por.parameters import PORParams


@dataclass(frozen=True)
class PORKeys:
    """The client's keys, derived from one master key.

    Attributes
    ----------
    encryption_key:
        AES key for step 3.
    permutation_key:
        PRP key for step 4.
    mac_key:
        The paper's ``K'`` used for segment tags (shared with the TPA:
        "the TPA knows the secret key used to verify the MAC tags").
    """

    # repr=False on all three: key bytes must never surface in logs,
    # tracebacks or pytest failure output (CRY003).
    encryption_key: bytes = field(repr=False)
    permutation_key: bytes = field(repr=False)
    mac_key: bytes = field(repr=False)

    @classmethod
    def derive(cls, master_key: bytes) -> "PORKeys":
        """Derive the three sub-keys from a master key via HKDF."""
        if len(master_key) < 16:
            raise ConfigurationError(
                f"master key must be >= 16 bytes, got {len(master_key)}"
            )
        subkeys = derive_subkeys(master_key, ["enc", "perm", "mac"])
        return cls(
            encryption_key=subkeys["enc"][:16],
            permutation_key=subkeys["perm"],
            mac_key=subkeys["mac"],
        )


def _split_blocks(data: bytes, block_bytes: int) -> list[bytes]:
    """Step 1: split into fixed blocks, zero-padding the final one."""
    blocks = []
    for start in range(0, len(data), block_bytes):
        block = data[start : start + block_bytes]
        if len(block) < block_bytes:
            block = block + bytes(block_bytes - len(block))
        blocks.append(block)
    if not blocks:
        blocks.append(bytes(block_bytes))  # empty file -> one zero block
    return blocks


def _ctr_nonce(file_id: bytes) -> bytes:
    """Derive the CTR initial counter block from the file id."""
    import hashlib

    return hashlib.sha256(b"por-ctr-nonce" + file_id).digest()[:16]


def setup_file(
    data: bytes,
    keys: PORKeys,
    file_id: bytes,
    params: PORParams | None = None,
) -> EncodedFile:
    """Run the full five-step setup, producing the uploadable ``F~``."""
    params = params or PORParams()
    block_bytes = params.block_bytes

    # Step 1: blocking.
    blocks = _split_blocks(data, block_bytes)

    # Step 2: per-chunk Reed-Solomon -> F'.  encode_blocks runs on the
    # vectorized GF(256) engine when numpy is available (one parity
    # matrix product for all interleaved byte columns of every chunk;
    # see repro.gf.gf256_vec).
    striper = BlockStriper(params.stripe_layout)
    encoded_blocks = striper.encode_blocks(blocks)

    # Step 3: encryption -> F''.  CTR keystream positions are indexed by
    # the block's pre-permutation position so decryption after
    # un-permuting lines up.  With numpy, aes_ctr_encrypt runs every
    # counter block of the file through the rounds as one batch.
    nonce = _ctr_nonce(file_id)
    flat = b"".join(encoded_blocks)
    encrypted = aes_ctr_encrypt(keys.encryption_key, nonce, flat)
    encrypted_blocks = [
        encrypted[i : i + block_bytes] for i in range(0, len(encrypted), block_bytes)
    ]

    # Step 4: pseudorandom permutation of block positions -> F'''.
    # permute_list runs on the batch Feistel engine (one PRF sweep per
    # round over a shrinking cycle-walk frontier) -- this was ~65 % of
    # setup cost when each position paid its own HMAC chain.
    permutation = BlockPermutation(keys.permutation_key, len(encrypted_blocks))
    permuted_blocks = permutation.permute_list(encrypted_blocks)

    # Step 5: segment + MAC -> F~.  The final segment may be short; it
    # is zero-padded to keep every stored segment the same size (the
    # tag covers the padded payload, so padding is tamper-evident).
    # Tags are computed in one mac_tag_many batch, which pays the HMAC
    # key schedule once for the whole file instead of per segment.
    v = params.segment_blocks
    payloads: list[bytes] = []
    for start in range(0, len(permuted_blocks), v):
        seg_blocks = permuted_blocks[start : start + v]
        while len(seg_blocks) < v:
            seg_blocks.append(bytes(block_bytes))
        payloads.append(b"".join(seg_blocks))
    tags = mac_tag_many(
        keys.mac_key, payloads, file_id, tag_bits=params.tag_bits
    )
    segments = [
        Segment(index=seg_index, payload=payload, tag=tag)
        for seg_index, (payload, tag) in enumerate(zip(payloads, tags))
    ]

    return EncodedFile(
        file_id=file_id,
        params=params,
        segments=segments,
        original_length=len(data),
        n_data_blocks=len(blocks),
    )


def extract_file(
    encoded: EncodedFile,
    keys: PORKeys,
) -> bytes:
    """Invert the setup pipeline and return the original file bytes.

    Every segment's MAC is checked first and segments with bad tags
    are treated as *erasures* for the Reed-Solomon decoder -- this is
    exactly the retrievability mechanism: tampering either trips a tag
    (becoming an erasure the code heals) or is small enough for the
    code to correct blind.
    """
    params = encoded.params
    block_bytes = params.block_bytes
    v = params.segment_blocks

    bad_segments: set[int] = set()
    results = mac_verify_many(
        keys.mac_key,
        [segment.payload for segment in encoded.segments],
        [segment.tag for segment in encoded.segments],
        encoded.file_id,
        indices=[segment.index for segment in encoded.segments],
        tag_bits=params.tag_bits,
    )
    for segment, ok in zip(encoded.segments, results):
        if not ok:
            bad_segments.add(segment.index)

    permuted_blocks = encoded.blocks()
    n_encoded = BlockStriper(params.stripe_layout).encoded_length(
        encoded.n_data_blocks
    )
    # Drop segment padding blocks beyond the true encoded length.
    permuted_blocks = permuted_blocks[:n_encoded]

    # Mark blocks of bad segments as erasures (post-permutation index).
    bad_permuted_positions = set()
    for seg_index in bad_segments:
        for offset in range(v):
            position = seg_index * v + offset
            if position < n_encoded:
                bad_permuted_positions.add(position)

    # Step 4 inverse: un-permute.  unpermute_list materialises the
    # permutation table, so the erasure positions below are free O(1)
    # lookups on the same instance rather than fresh cycle walks.
    permutation = BlockPermutation(keys.permutation_key, n_encoded)
    encrypted_blocks = permutation.unpermute_list(permuted_blocks)
    bad_positions = set(
        permutation.inverse_many(sorted(bad_permuted_positions))
    )

    # Step 3 inverse: decrypt.
    flat = b"".join(encrypted_blocks)
    decrypted = aes_ctr_decrypt(
        keys.encryption_key, _ctr_nonce(encoded.file_id), flat
    )
    decoded_input = [
        decrypted[i : i + block_bytes] for i in range(0, len(decrypted), block_bytes)
    ]

    # Step 2 inverse: RS-decode chunk by chunk with erasure hints.
    striper = BlockStriper(params.stripe_layout)
    n_chunks = n_encoded // params.ecc_total_blocks
    data_blocks: list[bytes] = []
    remaining = encoded.n_data_blocks
    for chunk_index in range(n_chunks):
        start = chunk_index * params.ecc_total_blocks
        chunk = decoded_input[start : start + params.ecc_total_blocks]
        erasures = [
            p - start
            for p in bad_positions
            if start <= p < start + params.ecc_total_blocks
        ]
        take = min(remaining, params.ecc_data_blocks)
        data_blocks.extend(
            striper.decode_chunk(chunk, erasures=erasures, n_data=take)
        )
        remaining -= take

    # Step 1 inverse: concatenate and strip padding.
    raw = b"".join(data_blocks)
    if len(raw) < encoded.original_length:
        raise VerificationError(
            "extracted data shorter than original length", reason="extract"
        )
    return raw[: encoded.original_length]
