"""A binary Merkle hash tree.

Substrate for the dynamic POR (:mod:`repro.por.dynamic`), which follows
Wang et al. (ESORICS'09) in authenticating block positions with a
Merkle tree so blocks can be updated/inserted without re-tagging the
whole file.

Leaves are hashed with a leaf prefix and interior nodes with a node
prefix (standard second-preimage hardening), and the leaf *index* is
bound into the leaf hash -- without it, a proof for leaf j would verify
against any claimed index, letting a server answer challenge i with a
different (correctly stored) block.  Odd nodes are promoted unchanged
(Bitcoin-style duplication is avoided because it admits mutation
attacks).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.errors import ConfigurationError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(index: int, data: bytes) -> bytes:
    return hashlib.sha256(
        _LEAF_PREFIX + index.to_bytes(8, "big") + data
    ).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """A Merkle tree over a list of byte-string leaves.

    Supports O(log n) membership proofs and in-place leaf updates
    (with O(log n) rehashing along the authentication path).
    """

    def __init__(self, leaves: list[bytes]) -> None:
        if not leaves:
            raise ConfigurationError("Merkle tree needs at least one leaf")
        # levels[0] = leaf hashes; levels[-1] = [root]
        self._levels: list[list[bytes]] = [
            [_hash_leaf(i, leaf) for i, leaf in enumerate(leaves)]
        ]
        while len(self._levels[-1]) > 1:
            current = self._levels[-1]
            parent: list[bytes] = []
            for i in range(0, len(current) - 1, 2):
                parent.append(_hash_node(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                parent.append(current[-1])  # promote odd node
            self._levels.append(parent)

    @property
    def n_leaves(self) -> int:
        """Number of leaves."""
        return len(self._levels[0])

    @property
    def root(self) -> bytes:
        """The 32-byte root hash."""
        return self._levels[-1][0]

    def proof(self, index: int) -> list[tuple[bytes, bool]]:
        """Return the authentication path for leaf ``index``.

        Each element is ``(sibling_hash, sibling_is_right)``.  Levels
        where the node was promoted without a sibling contribute no
        element.
        """
        if not 0 <= index < self.n_leaves:
            raise ConfigurationError(
                f"leaf index {index} out of range [0, {self.n_leaves})"
            )
        path: list[tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            sibling = position ^ 1
            if sibling < len(level):
                path.append((level[sibling], sibling > position))
            position //= 2
        return path

    def update(self, index: int, new_leaf: bytes) -> None:
        """Replace leaf ``index`` and rehash its path to the root."""
        if not 0 <= index < self.n_leaves:
            raise ConfigurationError(
                f"leaf index {index} out of range [0, {self.n_leaves})"
            )
        self._levels[0][index] = _hash_leaf(index, new_leaf)
        position = index
        for depth in range(len(self._levels) - 1):
            level = self._levels[depth]
            parent_pos = position // 2
            left = level[parent_pos * 2]
            if parent_pos * 2 + 1 < len(level):
                right = level[parent_pos * 2 + 1]
                self._levels[depth + 1][parent_pos] = _hash_node(left, right)
            else:
                self._levels[depth + 1][parent_pos] = left
            position = parent_pos

    @staticmethod
    def verify_proof(
        root: bytes, leaf: bytes, index: int, path: Sequence[tuple[bytes, bool]]
    ) -> bool:
        """Check an authentication path against a trusted root.

        ``index`` is bound into the leaf hash, so a proof only verifies
        for the position it was generated at.
        """
        current = _hash_leaf(index, leaf)
        for sibling, sibling_is_right in path:
            if sibling_is_right:
                current = _hash_node(current, sibling)
            else:
                current = _hash_node(sibling, current)
        return current == root
