"""The five-step setup pipeline and extraction (retrievability)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.mac import mac_verify
from repro.errors import ConfigurationError
from repro.por.file_format import Segment
from repro.por.parameters import PORParams, TEST_PARAMS
from repro.por.setup import PORKeys, extract_file, setup_file


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

class TestKeys:
    def test_derivation_deterministic(self):
        a = PORKeys.derive(b"master-key-16byte")
        b = PORKeys.derive(b"master-key-16byte")
        assert a == b

    def test_subkeys_distinct(self):
        keys = PORKeys.derive(b"master-key-16byte")
        assert len({keys.encryption_key, keys.permutation_key, keys.mac_key}) == 3

    def test_rejects_short_master(self):
        with pytest.raises(ConfigurationError):
            PORKeys.derive(b"short")


class TestSetup:
    def test_every_segment_tagged_correctly(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        for segment in encoded.segments:
            assert mac_verify(
                keys.mac_key,
                segment.payload,
                segment.index,
                b"fid",
                segment.tag,
                tag_bits=TEST_PARAMS.tag_bits,
            )

    def test_output_encrypted(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        flat = b"".join(s.payload for s in encoded.segments)
        # The plaintext must not appear anywhere in the stored bytes.
        assert sample_data[:64] not in flat

    def test_expansion_close_to_nominal(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        ratio = encoded.stored_bytes / len(sample_data)
        assert 1.0 < ratio < 1.0 + TEST_PARAMS.total_expansion + 0.25

    def test_empty_file(self, keys):
        encoded = setup_file(b"", keys, b"fid", TEST_PARAMS)
        assert encoded.n_segments >= 1
        assert extract_file(encoded, keys) == b""

    def test_different_fids_different_ciphertexts(self, keys):
        data = b"same-data" * 100
        a = setup_file(data, keys, b"fid-a", TEST_PARAMS)
        b = setup_file(data, keys, b"fid-b", TEST_PARAMS)
        assert a.segments[0].payload != b.segments[0].payload


class TestExtraction:
    @given(st.binary(min_size=0, max_size=3000))
    @settings(max_examples=15, deadline=None)
    def test_lossless_roundtrip(self, data):
        keys = PORKeys.derive(b"prop-master-key-0")
        encoded = setup_file(data, keys, b"prop", TEST_PARAMS)
        assert extract_file(encoded, keys) == data

    def test_survives_single_corrupted_segment(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        segment = encoded.segments[3]
        encoded.segments[3] = Segment(
            index=3, payload=bytes(len(segment.payload)), tag=segment.tag
        )
        assert extract_file(encoded, keys) == sample_data

    def test_survives_scattered_corruption(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        # Corrupt every 40th segment: the PRP scatters each segment's
        # blocks across chunks, and erasure decoding heals them.
        for index in range(0, encoded.n_segments, 40):
            old = encoded.segments[index]
            encoded.segments[index] = Segment(
                index=index, payload=b"\xde" * len(old.payload), tag=old.tag
            )
        assert extract_file(encoded, keys) == sample_data

    def test_wrong_keys_fail(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        other = PORKeys.derive(b"completely-different-master")
        # With wrong keys every tag fails -> all segments erased -> the
        # decoder cannot recover.
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            extract_file(encoded, other)


class TestPaperParams:
    def test_roundtrip_with_paper_parameters(self, keys):
        # One full chunk of 223 16-byte blocks plus change.
        data = bytes(i % 256 for i in range(4000))
        encoded = setup_file(data, keys, b"paper", PORParams())
        assert extract_file(encoded, keys) == data
        assert encoded.params.segment_bits == 660

