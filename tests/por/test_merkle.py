"""Merkle tree membership proofs and updates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.por.merkle import MerkleTree


class TestConstruction:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert tree.n_leaves == 1
        assert MerkleTree.verify_proof(tree.root, b"only", 0, tree.proof(0))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            MerkleTree([])

    def test_root_changes_with_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_changes_with_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_leaf_count_matters(self):
        assert MerkleTree([b"a"]).root != MerkleTree([b"a", b"a"]).root


class TestProofs:
    @given(st.integers(1, 40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_all_leaves_provable(self, n, data):
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(0, n - 1))
        assert MerkleTree.verify_proof(
            tree.root, leaves[index], index, tree.proof(index)
        )

    def test_wrong_leaf_fails(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert not MerkleTree.verify_proof(tree.root, b"x", 1, tree.proof(1))

    def test_wrong_root_fails(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert not MerkleTree.verify_proof(b"\x00" * 32, b"b", 1, tree.proof(1))

    def test_proof_for_other_index_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        assert not MerkleTree.verify_proof(tree.root, b"b", 1, tree.proof(2))

    def test_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(ConfigurationError):
            tree.proof(1)

    def test_leaf_node_domain_separation(self):
        # A leaf equal to an interior-node preimage must not verify as
        # that node (second-preimage resistance via prefixes).
        tree = MerkleTree([b"a", b"b"])
        import hashlib

        fake_leaf = (
            hashlib.sha256(b"\x00" + (0).to_bytes(8, "big") + b"a").digest()
            + hashlib.sha256(b"\x00" + (1).to_bytes(8, "big") + b"b").digest()
        )
        assert not MerkleTree.verify_proof(tree.root, fake_leaf, 0, [])

    def test_index_bound_into_proof(self):
        # The same leaf value at two positions yields distinct proofs:
        # presenting position 2's proof for index 0 must fail even
        # though the leaf bytes match.
        tree = MerkleTree([b"same", b"other", b"same", b"x"])
        assert MerkleTree.verify_proof(tree.root, b"same", 2, tree.proof(2))
        assert not MerkleTree.verify_proof(tree.root, b"same", 0, tree.proof(2))


class TestBatchTreeProofs:
    """The tree the verifier device signs once per batch of transcripts."""

    @given(st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_every_leaf_verifies(self, n):
        leaves = [f"payload-{i}".encode() * (i % 5 + 1) for i in range(n)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            path = tree.proof(index)
            assert len(path) <= (n - 1).bit_length()
            assert MerkleTree.verify_proof(tree.root, leaf, index, path)

    @given(st.integers(1, 70), st.data())
    @settings(max_examples=80, deadline=None)
    def test_flipping_any_byte_fails(self, n, data):
        leaves = [f"payload-{i}".encode() for i in range(n)]
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(0, n - 1))
        path = tree.proof(index)
        leaf = bytearray(leaves[index])
        at = data.draw(st.integers(0, len(leaf) - 1))
        leaf[at] ^= data.draw(st.integers(1, 255))
        assert not MerkleTree.verify_proof(tree.root, bytes(leaf), index, path)
        if path:
            step = data.draw(st.integers(0, len(path) - 1))
            sibling, is_right = path[step]
            flipped = bytearray(sibling)
            flipped[data.draw(st.integers(0, 31))] ^= data.draw(
                st.integers(1, 255)
            )
            forged = list(path)
            forged[step] = (bytes(flipped), is_right)
            assert not MerkleTree.verify_proof(
                tree.root, leaves[index], index, forged
            )


class TestUpdates:
    @given(st.integers(2, 33), st.data())
    @settings(max_examples=30, deadline=None)
    def test_update_then_verify(self, n, data):
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(0, n - 1))
        tree.update(index, b"replacement")
        assert MerkleTree.verify_proof(
            tree.root, b"replacement", index, tree.proof(index)
        )
        # An untouched sibling still verifies against the new root.
        other = (index + 1) % n
        assert MerkleTree.verify_proof(
            tree.root, leaves[other], other, tree.proof(other)
        )

    def test_update_equals_rebuild(self):
        leaves = [b"a", b"b", b"c", b"d", b"e"]
        tree = MerkleTree(leaves)
        tree.update(2, b"X")
        rebuilt = MerkleTree([b"a", b"b", b"X", b"d", b"e"])
        assert tree.root == rebuilt.root

    def test_old_leaf_no_longer_verifies(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        proof = tree.proof(1)
        tree.update(1, b"B")
        assert not MerkleTree.verify_proof(tree.root, b"b", 1, proof)
