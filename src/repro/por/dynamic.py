"""A dynamic POR in the style of Wang et al. (ESORICS'09).

The paper notes that the Juels-Kaliski scheme "is designed to deal with
the static data but GeoProof could be modified to encompass other POS
schemes that support verifying dynamic data such as DPOR by Wang et
al.".  This module provides that extension: block tags are bound to
block *content* (not position), and positions are authenticated by a
Merkle hash tree whose root the client keeps.  Updates therefore touch
only O(log n) state.

The construction here keeps Wang et al.'s architecture (tags +
position-authenticating Merkle tree + root held by the verifier) while
using symmetric MACs instead of BLS-style homomorphic authenticators --
public verifiability is out of scope for GeoProof, whose TPA already
holds the MAC key.
"""

from __future__ import annotations

from dataclasses import dataclass

import hashlib

from repro.crypto.mac import mac_tag, mac_verify
from repro.crypto.rng import DeterministicRNG
from repro.errors import BlockNotFoundError, ConfigurationError, VerificationError
from repro.por.merkle import MerkleTree


def _leaf_bytes(block: bytes, tag: bytes) -> bytes:
    """Merkle leaf binding a block to its content tag."""
    return hashlib.sha256(b"dpor-leaf" + block + tag).digest()


@dataclass(frozen=True)
class DynamicProof:
    """Proof for one challenged block: value, tag, and Merkle path."""

    index: int
    block: bytes
    tag: bytes
    path: tuple[tuple[bytes, bool], ...]


class DynamicPORServer:
    """Server state: blocks, tags and the position Merkle tree."""

    def __init__(self, blocks: list[bytes], tags: list[bytes]) -> None:
        if len(blocks) != len(tags):
            raise ConfigurationError("blocks and tags must align")
        self.blocks = list(blocks)
        self.tags = list(tags)
        self.tree = MerkleTree(
            [_leaf_bytes(b, t) for b, t in zip(blocks, tags)]
        )

    def prove(self, index: int) -> DynamicProof:
        """Produce a proof for one block index."""
        if not 0 <= index < len(self.blocks):
            raise BlockNotFoundError(f"block {index} out of range")
        return DynamicProof(
            index=index,
            block=self.blocks[index],
            tag=self.tags[index],
            path=tuple(self.tree.proof(index)),
        )

    def apply_update(self, index: int, new_block: bytes, new_tag: bytes) -> None:
        """Replace a block (the *modify* operation of DPOR)."""
        if not 0 <= index < len(self.blocks):
            raise BlockNotFoundError(f"block {index} out of range")
        self.blocks[index] = new_block
        self.tags[index] = new_tag
        self.tree.update(index, _leaf_bytes(new_block, new_tag))


class DynamicPOR:
    """Client side: O(1) state (MAC key + Merkle root + block count)."""

    #: Width of every block tag in bits.
    tag_bits = 128

    def __init__(self, mac_key: bytes, file_id: bytes) -> None:
        self.mac_key = mac_key
        self.file_id = file_id
        self.root: bytes | None = None
        self.n_blocks = 0

    # -- setup -----------------------------------------------------------

    def _tag(self, block: bytes) -> bytes:
        # Content-bound tag: index 0 sentinel keeps the MAC API happy;
        # position integrity comes from the Merkle tree, not the tag.
        return mac_tag(self.mac_key, block, 0, self.file_id, tag_bits=self.tag_bits)

    def outsource(self, blocks: list[bytes]) -> DynamicPORServer:
        """Tag every block, build the server, and remember the root."""
        if not blocks:
            raise ConfigurationError("cannot outsource an empty file")
        tags = [self._tag(block) for block in blocks]
        server = DynamicPORServer(blocks, tags)
        self.root = server.tree.root
        self.n_blocks = len(blocks)
        return server

    # -- audit ------------------------------------------------------------

    def make_challenge(self, k: int, rng: DeterministicRNG) -> list[int]:
        """Draw ``k`` distinct block indices to audit."""
        if self.n_blocks == 0:
            raise ConfigurationError("outsource() must run before challenges")
        if not 0 < k <= self.n_blocks:
            raise ConfigurationError(f"k must be in 1..{self.n_blocks}, got {k}")
        return rng.sample_indices(self.n_blocks, k)

    def verify(self, proof: DynamicProof) -> bool:
        """Check tag and Merkle path for one proof; never raises."""
        if self.root is None:
            return False
        if not mac_verify(
            self.mac_key,
            proof.block,
            0,
            self.file_id,
            proof.tag,
            tag_bits=self.tag_bits,
        ):
            return False
        return MerkleTree.verify_proof(
            self.root, _leaf_bytes(proof.block, proof.tag), proof.index, list(proof.path)
        )

    def require_valid(self, proof: DynamicProof) -> None:
        """Raise :class:`VerificationError` on a bad proof."""
        if not self.verify(proof):
            raise VerificationError(
                f"dynamic POR proof failed for block {proof.index}",
                reason="dpor",
            )

    # -- update -------------------------------------------------------------

    def update_block(
        self, server: DynamicPORServer, index: int, new_block: bytes
    ) -> None:
        """Authenticated modify: verify the old block, then swap in the new.

        The client first obtains a proof of the *current* leaf so a
        malicious server cannot use the update to graft an arbitrary
        tree; then both sides apply the change and the client recomputes
        the expected new root locally.
        """
        before = server.prove(index)
        self.require_valid(before)
        new_tag = self._tag(new_block)
        server.apply_update(index, new_block, new_tag)
        # Recompute the new root from the (verified) old path.  The
        # hashing must mirror MerkleTree exactly: leaf prefix + index
        # binding, then node prefix per level.
        current = _leaf_bytes(new_block, new_tag)
        current = hashlib.sha256(
            b"\x00" + index.to_bytes(8, "big") + current
        ).digest()
        for sibling, sibling_is_right in before.path:
            if sibling_is_right:
                current = hashlib.sha256(b"\x01" + current + sibling).digest()
            else:
                current = hashlib.sha256(b"\x01" + sibling + current).digest()
        expected_root = current
        if server.tree.root != expected_root:
            raise VerificationError(
                "server applied an update inconsistently", reason="dpor-update"
            )
        self.root = expected_root
