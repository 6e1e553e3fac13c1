"""Parameter sets and the paper's overhead arithmetic."""

import pytest

from repro.errors import ConfigurationError
from repro.por.parameters import PAPER_PARAMS, PORParams, TEST_PARAMS


class TestValidation:
    def test_paper_defaults(self):
        params = PORParams()
        assert params.block_bits == 128
        assert params.block_bytes == 16
        assert params.segment_blocks == 5
        assert params.tag_bits == 20

    def test_rejects_non_byte_blocks(self):
        with pytest.raises(ConfigurationError):
            PORParams(block_bits=129)

    def test_rejects_bad_ecc(self):
        with pytest.raises(ConfigurationError):
            PORParams(ecc_data_blocks=255, ecc_total_blocks=255)

    def test_rejects_zero_segment(self):
        with pytest.raises(ConfigurationError):
            PORParams(segment_blocks=0)

    def test_rejects_oversize_tag(self):
        with pytest.raises(ConfigurationError):
            PORParams(tag_bits=257)


class TestPaperArithmetic:
    """Section V-A/V-B worked example."""

    def test_segment_is_660_bits(self):
        assert PAPER_PARAMS.segment_bits == 660

    def test_ecc_expansion_about_14_percent(self):
        assert 0.14 < PAPER_PARAMS.ecc_expansion < 0.15

    def test_mac_expansion_about_3_percent(self):
        assert 0.025 <= PAPER_PARAMS.mac_expansion < 0.035
        assert 0.025 < PAPER_PARAMS.mac_expansion_of_segment() < 0.035

    def test_total_expansion_about_16_5_percent(self):
        # ECC + MAC combined; the paper rounds to "about 16.5 %".
        assert 0.16 < PAPER_PARAMS.total_expansion < 0.19

    def test_2gb_file_block_count(self):
        two_gb = 2 * 2**30
        assert PAPER_PARAMS.data_blocks_for(two_gb) == 2**27

    def test_2gb_encoded_blocks_jk(self):
        two_gb = 2 * 2**30
        encoded = PAPER_PARAMS.encoded_blocks_jk(two_gb)
        # ceil(2^27 * 255/223) = 153,477,672; the paper prints
        # 153,008,209, which its RS(255, 223) rate does not yield
        # exactly -- within 0.4 % of it.
        assert encoded == 153_477_672
        assert abs(encoded - 153_008_209) / encoded < 0.005

    def test_whole_chunk_accounting_at_least_jk(self):
        two_gb = 2 * 2**30
        assert PAPER_PARAMS.encoded_blocks_for(two_gb) >= PAPER_PARAMS.encoded_blocks_jk(
            two_gb
        )


class TestCounting:
    def test_zero_file(self):
        assert PAPER_PARAMS.data_blocks_for(0) == 0
        assert PAPER_PARAMS.measured_expansion(0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            PAPER_PARAMS.data_blocks_for(-1)

    def test_segments_cover_blocks(self):
        for size in (1, 100, 10_000, 1_000_000):
            blocks = TEST_PARAMS.encoded_blocks_for(size)
            segments = TEST_PARAMS.segments_for(size)
            assert segments * TEST_PARAMS.segment_blocks >= blocks

    def test_measured_expansion_close_to_nominal_for_large_files(self):
        size = 50_000_000
        measured = PAPER_PARAMS.measured_expansion(size)
        assert abs(measured - PAPER_PARAMS.total_expansion) < 0.02

    def test_stripe_layout_consistent(self):
        layout = TEST_PARAMS.stripe_layout
        assert layout.block_bytes == TEST_PARAMS.block_bytes
        assert layout.data_blocks == TEST_PARAMS.ecc_data_blocks
