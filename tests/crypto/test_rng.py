"""Determinism and distribution tests for the HMAC-DRBG."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prf import prf
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG("seed")
        b = DeterministicRNG("seed")
        assert a.random_bytes(100) == b.random_bytes(100)

    def test_different_seeds_differ(self):
        assert DeterministicRNG("a").random_bytes(32) != DeterministicRNG(
            "b"
        ).random_bytes(32)

    def test_int_and_bytes_seeds(self):
        DeterministicRNG(12345).random_bytes(8)
        DeterministicRNG(b"bytes").random_bytes(8)

    def test_rejects_bad_seed_type(self):
        with pytest.raises(ConfigurationError):
            DeterministicRNG(3.14)

    def test_fork_independence(self):
        parent = DeterministicRNG("seed")
        child_a = parent.fork("a")
        child_b = parent.fork("b")
        assert child_a.random_bytes(32) != child_b.random_bytes(32)

    def test_fork_does_not_disturb_parent(self):
        a = DeterministicRNG("seed")
        b = DeterministicRNG("seed")
        a.fork("child").random_bytes(1000)
        assert a.random_bytes(32) == b.random_bytes(32)

    def test_fork_many_matches_scalar_forks(self):
        """Batch fork derivation is byte-identical to per-label fork()."""
        parent = DeterministicRNG("seed")
        labels = [f"stream-{i}" for i in range(17)] + ["", "challenge-abc"]
        batch = parent.fork_many(labels)
        assert len(batch) == len(labels)
        for label, child in zip(labels, batch):
            assert child.random_bytes(64) == parent.fork(label).random_bytes(64)

    def test_fork_many_does_not_disturb_parent(self):
        a = DeterministicRNG("seed")
        b = DeterministicRNG("seed")
        for child in a.fork_many(["x", "y", "z"]):
            child.random_bytes(100)
        assert a.random_bytes(32) == b.random_bytes(32)

    def test_fork_many_empty(self):
        assert DeterministicRNG("seed").fork_many([]) == []

    def test_chunked_reads_match_bulk(self):
        a = DeterministicRNG("seed")
        b = DeterministicRNG("seed")
        chunked = a.random_bytes(10) + a.random_bytes(22)
        assert chunked == b.random_bytes(32)


def drbg_blocks(rng, n_blocks):
    """Blocks 0.. of a stream by definition: prf(key, "drbg-gen", uint64(i))."""
    return b"".join(
        prf(rng._key, b"drbg-gen", i.to_bytes(8, "big"))
        for i in range(n_blocks)
    )


class TestKnownAnswers:
    """The stream against its block definition and a pinned digest."""

    @pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 100])
    def test_fresh_read_is_the_prf_blocks(self, n):
        child = DeterministicRNG("kat").fork("child")
        expected = drbg_blocks(child, 4)
        assert child.random_bytes(n) == expected[:n]
        assert child.random_bytes(128 - n) == expected[n:]

    def test_chunked_reads_are_the_prf_blocks(self):
        child = DeterministicRNG("kat").fork("child")
        chunks = [child.random_bytes(n) for n in (5, 40, 3)]
        assert b"".join(chunks) == drbg_blocks(child, 2)[:48]

    def test_pinned_stream_digest(self):
        stream = DeterministicRNG(b"kat").fork("challenge-00")
        assert hashlib.sha256(stream.random_bytes(256)).hexdigest() == (
            "12ed8c34f764988300aef40701eeae432c4f0ce6dcf683e7b79f228b97f89b2c"
        )


class TestIntegerSampling:
    @given(st.integers(1, 10**12))
    @settings(max_examples=50, deadline=None)
    def test_randrange_in_bounds(self, upper):
        value = DeterministicRNG(upper).randrange(upper)
        assert 0 <= value < upper

    def test_sample_indices_distinct(self):
        rng = DeterministicRNG("seed")
        sample = rng.sample_indices(1000, 100)
        assert len(set(sample)) == 100
        assert all(0 <= i < 1000 for i in sample)

    def test_sample_indices_full_population(self):
        rng = DeterministicRNG("seed")
        assert sorted(rng.sample_indices(10, 10)) == list(range(10))

    def test_sample_indices_huge_population(self):
        rng = DeterministicRNG("seed")
        sample = rng.sample_indices(10**15, 50)
        assert len(set(sample)) == 50

    def test_sample_indices_rejects_oversample(self):
        with pytest.raises(ConfigurationError):
            DeterministicRNG("s").sample_indices(5, 6)

    def test_sample_roughly_uniform(self):
        # Each of 10 buckets should get ~1/10 of mass across many draws.
        rng = DeterministicRNG("uniformity")
        counts = [0] * 10
        for _ in range(500):
            for i in rng.sample_indices(10, 3):
                counts[i] += 1
        expected = 500 * 3 / 10
        assert all(0.7 * expected < c < 1.3 * expected for c in counts), counts



class TestContinuousSampling:
    def test_uniform_bounds(self):
        rng = DeterministicRNG("seed")
        for _ in range(200):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_expovariate_positive_with_sane_mean(self):
        rng = DeterministicRNG("seed")
        samples = [rng.expovariate(2.0) for _ in range(2000)]
        assert all(s >= 0 for s in samples)
        mean = sum(samples) / len(samples)
        assert 0.4 < mean < 0.6  # true mean 0.5

    def test_expovariate_validates(self):
        with pytest.raises(ConfigurationError):
            DeterministicRNG("s").expovariate(0.0)
