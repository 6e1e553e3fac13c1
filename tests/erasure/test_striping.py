"""Block striping over interleaved RS codewords."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rng import DeterministicRNG
from repro.erasure.striping import BlockStriper, StripeLayout
from repro.errors import ConfigurationError, UncorrectableError

SMALL = StripeLayout(block_bytes=4, data_blocks=11, total_blocks=15)


def make_blocks(n, block_bytes=4, seed="blocks"):
    rng = DeterministicRNG(seed)
    return [rng.random_bytes(block_bytes) for _ in range(n)]


def decode_chunks(striper, encoded, n_data_blocks):
    """Decode an encoded block list chunk by chunk, as extract_file does."""
    out = []
    step, width = striper.layout.total_blocks, striper.layout.data_blocks
    for start in range(0, len(encoded), step):
        take = min(width, n_data_blocks - len(out))
        out += striper.decode_chunk(encoded[start : start + step], n_data=take)
    return out


class TestLayout:
    def test_paper_layout_defaults(self):
        layout = StripeLayout()
        assert layout.parity_blocks == 32
        assert layout.total_blocks / layout.data_blocks == 255 / 223

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StripeLayout(block_bytes=0).validate()
        with pytest.raises(ConfigurationError):
            StripeLayout(data_blocks=255, total_blocks=255).validate()


class TestChunkRoundtrip:
    def test_systematic_prefix(self):
        striper = BlockStriper(SMALL)
        blocks = make_blocks(11)
        encoded = striper.encode_chunk(blocks)
        assert encoded[:11] == blocks
        assert len(encoded) == 15

    def test_short_chunk_padded(self):
        striper = BlockStriper(SMALL)
        blocks = make_blocks(5)
        encoded = striper.encode_chunk(blocks)
        assert len(encoded) == 15
        assert striper.decode_chunk(encoded, n_data=5) == blocks

    def test_block_size_checked(self):
        striper = BlockStriper(SMALL)
        with pytest.raises(ConfigurationError):
            striper.encode_chunk([b"odd"])

    def test_chunk_size_checked(self):
        striper = BlockStriper(SMALL)
        with pytest.raises(ConfigurationError):
            striper.encode_chunk(make_blocks(12))

    @given(st.integers(0, 2), st.data())
    @settings(max_examples=25, deadline=None)
    def test_corrupt_blocks_within_radius(self, n_corrupt, data):
        striper = BlockStriper(SMALL)  # radius (15-11)//2 = 2 blocks
        blocks = make_blocks(11)
        encoded = list(striper.encode_chunk(blocks))
        positions = data.draw(
            st.lists(
                st.integers(0, 14),
                min_size=n_corrupt,
                max_size=n_corrupt,
                unique=True,
            )
        )
        for position in positions:
            encoded[position] = bytes(4)
        assert striper.decode_chunk(encoded) == blocks

    def test_erasures_up_to_parity(self):
        striper = BlockStriper(SMALL)
        blocks = make_blocks(11)
        encoded = list(striper.encode_chunk(blocks))
        lost = [1, 4, 8, 13]
        for position in lost:
            encoded[position] = bytes(4)
        assert striper.decode_chunk(encoded, erasures=lost) == blocks

    def test_beyond_radius_raises(self):
        striper = BlockStriper(SMALL)
        blocks = make_blocks(11)
        encoded = list(striper.encode_chunk(blocks))
        for position in range(5):
            encoded[position] = bytes([position + 1]) * 4
        with pytest.raises(UncorrectableError):
            striper.decode_chunk(encoded)


class TestWholeFile:
    def test_encoded_length(self):
        striper = BlockStriper(SMALL)
        assert striper.encoded_length(0) == 0
        assert striper.encoded_length(1) == 15
        assert striper.encoded_length(11) == 15
        assert striper.encoded_length(12) == 30

    def test_multi_chunk_roundtrip(self):
        striper = BlockStriper(SMALL)
        blocks = make_blocks(30)  # 3 chunks (11 + 11 + 8)
        encoded = striper.encode_blocks(blocks)
        assert len(encoded) == 45
        assert decode_chunks(striper, encoded, 30) == blocks

    def test_paper_expansion_on_large_file(self):
        striper = BlockStriper(StripeLayout())
        # 1000 blocks -> ceil(1000/223) = 5 chunks -> 1275 blocks.
        assert striper.encoded_length(1000) == 5 * 255


class TestErasureValidation:
    """Satellite fixes: block-granularity erasure validation up front."""

    def test_out_of_range_erasure_is_block_indexed(self):
        striper = BlockStriper(SMALL)
        encoded = striper.encode_chunk(make_blocks(11))
        with pytest.raises(ConfigurationError) as excinfo:
            striper.decode_chunk(encoded, erasures=[300])
        # The old behaviour surfaced this as a per-column RS failure
        # ("chunk unrecoverable at byte column 0: erasure position 300
        # out of range") after a wasted decode; now it is reported at
        # block granularity before any column is touched.
        message = str(excinfo.value)
        assert "block index 300" in message
        assert "byte column" not in message

    def test_negative_erasure_rejected(self):
        striper = BlockStriper(SMALL)
        encoded = striper.encode_chunk(make_blocks(11))
        with pytest.raises(ConfigurationError):
            striper.decode_chunk(encoded, erasures=[-1])

    def test_over_budget_erasures_rejected_before_decoding(self):
        striper = BlockStriper(SMALL)
        encoded = striper.encode_chunk(make_blocks(11))
        with pytest.raises(UncorrectableError) as excinfo:
            striper.decode_chunk(encoded, erasures=[0, 1, 2, 3, 4])
        message = str(excinfo.value)
        assert "parity budget" in message
        assert "byte column" not in message  # failed up front, not mid-decode

    def test_erasures_at_exact_budget_still_decode(self):
        striper = BlockStriper(SMALL)
        blocks = make_blocks(11)
        encoded = striper.encode_chunk(blocks)
        corrupted = list(encoded)
        for position in [1, 5, 9, 13]:
            corrupted[position] = bytes(4)
        assert (
            striper.decode_chunk(corrupted, erasures=[1, 5, 9, 13]) == blocks
        )


@pytest.mark.skipif(
    not __import__("repro.gf", fromlist=["HAS_NUMPY"]).HAS_NUMPY,
    reason="vectorized engine needs numpy",
)
class TestVectorizedEquivalence:
    """The numpy batch engine is byte-identical to the scalar anchor."""

    def test_auto_detection_prefers_vectorized(self):
        assert BlockStriper(SMALL).vectorized is True
        assert BlockStriper(SMALL, vectorized=False).vectorized is False

    def test_requesting_vectorized_without_numpy_raises(self, monkeypatch):
        from repro.gf import gf256_vec

        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        with pytest.raises(ConfigurationError):
            BlockStriper(SMALL, vectorized=True)
        # Auto-detection falls back to the scalar engine.
        assert BlockStriper(SMALL).vectorized is False

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_encode_blocks_equivalence(self, n_blocks, seed):
        blocks = make_blocks(n_blocks, seed=f"vec-{seed}")
        scalar = BlockStriper(SMALL, vectorized=False).encode_blocks(blocks)
        vector = BlockStriper(SMALL, vectorized=True).encode_blocks(blocks)
        assert scalar == vector

    def test_encode_chunk_equivalence_on_paper_layout(self):
        layout = StripeLayout()  # RS(255, 223), 16-byte blocks
        blocks = make_blocks(223, block_bytes=16, seed="paper")
        scalar = BlockStriper(layout, vectorized=False).encode_chunk(blocks)
        vector = BlockStriper(layout, vectorized=True).encode_chunk(blocks)
        assert scalar == vector

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_decode_equivalence_with_errors_and_erasures(self, seed, e, f):
        import random

        rnd = random.Random(f"dec-{seed}")
        if 2 * e + f > SMALL.parity_blocks:
            e, f = 1, 2
        blocks = make_blocks(11, seed=f"dec-{seed}")
        scalar = BlockStriper(SMALL, vectorized=False)
        vector = BlockStriper(SMALL, vectorized=True)
        chunk = list(scalar.encode_chunk(blocks))
        positions = rnd.sample(range(15), e + f)
        for position in positions:
            chunk[position] = bytes(b ^ 0x5A for b in chunk[position])
        erasures = sorted(positions[e:])
        out_s = scalar.decode_chunk(chunk, erasures=erasures)
        out_v = vector.decode_chunk(chunk, erasures=erasures)
        assert out_s == out_v == blocks

    def test_clean_decode_with_erasure_hints_equivalent(self):
        # Zero syndromes + declared erasures: the vectorized pre-screen
        # may skip the scalar chain, but the bytes must match it.
        blocks = make_blocks(11)
        scalar = BlockStriper(SMALL, vectorized=False)
        vector = BlockStriper(SMALL, vectorized=True)
        encoded = scalar.encode_chunk(blocks)
        for erasures in ([], [0], [3, 7, 11, 14]):
            assert scalar.decode_chunk(
                encoded, erasures=erasures
            ) == vector.decode_chunk(encoded, erasures=erasures)

    def test_decode_blocks_roundtrip_vectorized(self):
        striper = BlockStriper(SMALL, vectorized=True)
        blocks = make_blocks(30)
        encoded = striper.encode_blocks(blocks)
        assert decode_chunks(striper, encoded, 30) == blocks

    def test_block_length_validated_in_vectorized_path(self):
        striper = BlockStriper(SMALL, vectorized=True)
        with pytest.raises(ConfigurationError):
            striper.encode_blocks([b"\x00" * 4, b"\x00" * 3])

