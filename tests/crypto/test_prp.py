"""Bijectivity and inversion properties of the Feistel PRP.

The batch engine (``forward_many`` / ``permutation_table``) must agree
*exactly* with scalar evaluation: a fresh :class:`BlockPermutation`'s
``forward`` never consults a cached table, so comparing a
fresh-instance scalar sweep against a batch call on a second instance
pins the two code paths to identical outputs.  The inverse has no
scalar twin; ``inverse_many`` is pinned as undoing scalar ``forward``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prp import BlockPermutation, FeistelPRP
from repro.errors import ConfigurationError


def _scalar_forward(key: bytes, n: int) -> list:
    """Ground-truth scalar sweep on an instance with no cached table."""
    perm = BlockPermutation(key, n)
    return [perm.forward(i) for i in range(n)]


class TestFeistelPRP:
    def test_domain_size(self):
        assert FeistelPRP(b"k", 4).domain_size == 256

    def test_bijective_on_small_domain(self):
        prp = FeistelPRP(b"key", 4)
        images = sorted(prp.forward(x) for x in range(256))
        assert images == list(range(256))

    def test_inverse(self):
        prp = FeistelPRP(b"key", 5)
        values = list(range(0, prp.domain_size, 37))
        assert prp.inverse_many([prp.forward(x) for x in values]) == values

    def test_out_of_domain(self):
        prp = FeistelPRP(b"key", 4)
        with pytest.raises(ConfigurationError):
            prp.forward(256)

    def test_key_sensitivity(self):
        a = FeistelPRP(b"key-a", 8)
        b = FeistelPRP(b"key-b", 8)
        differing = sum(1 for x in range(100) if a.forward(x) != b.forward(x))
        assert differing > 90


class TestBlockPermutation:
    @given(st.integers(1, 500))
    @settings(max_examples=20, deadline=None)
    def test_bijective(self, n):
        perm = BlockPermutation(b"key", n)
        assert sorted(perm.forward(i) for i in range(n)) == list(range(n))

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, n, data):
        perm = BlockPermutation(b"key", n)
        i = data.draw(st.integers(0, n - 1))
        assert perm.inverse_many([perm.forward(i)]) == [i]
        assert perm.forward(perm.inverse_many([i])[0]) == i

    def test_permute_list_roundtrip(self):
        perm = BlockPermutation(b"key", 50)
        items = [f"item-{i}" for i in range(50)]
        assert perm.unpermute_list(perm.permute_list(items)) == items

    def test_permute_list_moves_elements(self):
        perm = BlockPermutation(b"key", 100)
        items = list(range(100))
        shuffled = perm.permute_list(items)
        assert shuffled != items  # astronomically unlikely to be identity
        assert sorted(shuffled) == items

    def test_permute_list_length_check(self):
        perm = BlockPermutation(b"key", 10)
        with pytest.raises(ConfigurationError):
            perm.permute_list([1, 2, 3])

    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigurationError):
            BlockPermutation(b"key", 0)

    def test_singleton_domain(self):
        perm = BlockPermutation(b"key", 1)
        assert perm.forward(0) == 0
        assert perm.inverse_many([0]) == [0]

    def test_key_changes_permutation(self):
        a = BlockPermutation(b"key-a", 200)
        b = BlockPermutation(b"key-b", 200)
        assert [a.forward(i) for i in range(200)] != [
            b.forward(i) for i in range(200)
        ]


class TestFeistelBatch:
    """FeistelPRP.forward_many / inverse_many vs the scalar rounds."""

    @given(st.integers(1, 11), st.binary(min_size=1, max_size=32))
    @settings(max_examples=20, deadline=None)
    def test_forward_many_matches_scalar(self, half_bits, key):
        prp = FeistelPRP(key, half_bits)
        scalar = FeistelPRP(key, half_bits)
        values = list(range(0, prp.domain_size, max(1, prp.domain_size // 64)))
        assert prp.forward_many(values) == [scalar.forward(v) for v in values]

    @given(st.integers(1, 11), st.binary(min_size=1, max_size=32))
    @settings(max_examples=20, deadline=None)
    def test_inverse_many_matches_scalar(self, half_bits, key):
        prp = FeistelPRP(key, half_bits)
        scalar = FeistelPRP(key, half_bits)
        values = list(range(0, prp.domain_size, max(1, prp.domain_size // 64)))
        assert prp.inverse_many([scalar.forward(v) for v in values]) == values

    def test_empty_batch(self):
        prp = FeistelPRP(b"key", 4)
        assert prp.forward_many([]) == []
        assert prp.inverse_many([]) == []

    def test_batch_rejects_out_of_domain(self):
        prp = FeistelPRP(b"key", 4)
        with pytest.raises(ConfigurationError):
            prp.forward_many([0, 256])
        with pytest.raises(ConfigurationError):
            prp.inverse_many([-1, 3])

    def test_bijective_via_batch(self):
        # Full-table path: a dense batch over the whole domain must
        # still be a bijection, and invert exactly.
        prp = FeistelPRP(b"key", 5)
        images = prp.forward_many(range(prp.domain_size))
        assert sorted(images) == list(range(prp.domain_size))
        assert prp.inverse_many(images) == list(range(prp.domain_size))

    def test_non_byte_aligned_half_bits(self):
        # half_bits in {1..16} \ {8, 16} exercise the mask/_half_bytes
        # handling off byte boundaries; exhaustive where cheap.
        for half_bits in (1, 2, 3, 5, 7, 9, 12):
            prp = FeistelPRP(b"edge-key", half_bits)
            size = prp.domain_size
            sample = range(size) if size <= 1 << 12 else range(0, size, 997)
            images = prp.forward_many(list(sample))
            assert len(set(images)) == len(list(sample))
            assert prp.inverse_many(images) == list(sample)

    def test_wide_half_reaches_past_one_digest(self):
        # half_bits > 256: the round function needs more than one
        # digest; the truncated-digest bug would zero the top bits of
        # every round output.  Bijectivity survives either way, so
        # check the round outputs themselves.
        prp = FeistelPRP(b"wide-key", 300)
        outputs = prp._round_outputs(0, [1, 2, 3])
        assert any(v >> 256 for v in outputs)
        assert prp.inverse_many([prp.forward(12345)]) == [12345]


class TestBlockPermutationBatch:
    """The tentpole contract: batch == scalar, exactly."""

    @given(st.integers(1, 1024), st.binary(min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_forward_many_matches_scalar(self, n, key):
        expected = _scalar_forward(key, n)
        assert BlockPermutation(key, n).forward_many(range(n)) == expected

    @given(st.integers(1, 1024), st.binary(min_size=1, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_table_and_lists_match_scalar(self, n, key):
        expected = _scalar_forward(key, n)
        perm = BlockPermutation(key, n)
        assert list(perm.permutation_table()) == expected
        items = list(range(n))
        permuted = perm.permute_list(items)
        assert [permuted[p] for p in expected] == items
        assert perm.unpermute_list(permuted) == items

    @given(st.integers(1, 1024), st.binary(min_size=1, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_inverse_many_matches_scalar(self, n, key):
        images = _scalar_forward(key, n)
        assert BlockPermutation(key, n).inverse_many(images) == list(range(n))

    def test_dense_sweep_small_sizes(self):
        # Exhaustive over every size up to 64: catches off-by-ones the
        # randomized sweep might skip (n == 1, 2, powers of two, 2^k+1).
        for n in range(1, 65):
            key = b"sweep-%d" % n
            expected = _scalar_forward(key, n)
            perm = BlockPermutation(key, n)
            assert perm.forward_many(range(n)) == expected
            assert sorted(expected) == list(range(n))
            assert perm.inverse_many(expected) == list(range(n))

    def test_scalar_uses_cached_table(self):
        perm = BlockPermutation(b"key", 100)
        before = [perm.forward(i) for i in range(100)]
        perm.permutation_table()
        assert [perm.forward(i) for i in range(100)] == before
        assert perm.inverse_many(before) == list(range(100))

    def test_batch_rejects_out_of_range(self):
        perm = BlockPermutation(b"key", 10)
        with pytest.raises(ConfigurationError):
            perm.forward_many([0, 10])
        with pytest.raises(ConfigurationError):
            perm.inverse_many([-1])

    def test_empty_batch(self):
        perm = BlockPermutation(b"key", 10)
        assert perm.forward_many([]) == []
        assert perm.inverse_many([]) == []

    def test_degenerate_domains(self):
        # n == 1 and n == 2 are the cycle-walking worst cases: the
        # covering domain (always >= 4) is mostly out of range.
        for n in (1, 2):
            perm = BlockPermutation(b"tiny", n)
            assert sorted(perm.forward_many(range(n))) == list(range(n))
            assert perm.unpermute_list(perm.permute_list(list(range(n)))) == list(
                range(n)
            )
            for i in range(n):
                assert perm.inverse_many([perm.forward(i)]) == [i]

    def test_duplicate_indices_allowed(self):
        perm = BlockPermutation(b"key", 50)
        out = perm.forward_many([7, 7, 7])
        assert out[0] == out[1] == out[2] == perm.forward(7)
