"""HDD latency model against the paper's Table I and worked examples."""

import pytest

from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.storage.hdd import (
    DISK_CATALOGUE,
    HDDModel,
    HDDSpec,
    HITACHI_DK23DA,
    IBM_36Z15,
    IBM_40GNX,
    IBM_73LZX,
    WD_2500JD,
    fastest_disk,
)


class TestCatalogue:
    def test_five_disks(self):
        assert len(DISK_CATALOGUE) == 5

    def test_table1_values(self):
        assert IBM_36Z15.rpm == 15_000 and IBM_36Z15.avg_seek_ms == 3.4
        assert IBM_73LZX.rpm == 10_000 and IBM_73LZX.avg_rotate_ms == 3.0
        assert WD_2500JD.rpm == 7_200 and WD_2500JD.avg_seek_ms == 8.9
        assert IBM_40GNX.rpm == 5_400 and IBM_40GNX.avg_seek_ms == 12.0
        assert HITACHI_DK23DA.rpm == 4_200 and HITACHI_DK23DA.avg_rotate_ms == 7.1

    def test_higher_rpm_lower_latency(self):
        """Table I's headline: RPM up -> look-up latency down."""
        lookups = [HDDModel(spec).lookup_ms(512) for spec in DISK_CATALOGUE]
        assert lookups == sorted(lookups)

    def test_helpers(self):
        assert fastest_disk() is IBM_36Z15


class TestPaperArithmetic:
    def test_wd2500jd_transfer_term(self):
        """512*8 / 748e3 = 5.48e-3 ms (Section V-D)."""
        model = HDDModel(WD_2500JD)
        assert model.transfer_ms(512) == pytest.approx(5.48e-3, rel=0.01)

    def test_wd2500jd_lookup(self):
        """The paper's honest-provider look-up: 13.1055 ms."""
        assert HDDModel(WD_2500JD).lookup_ms(512) == pytest.approx(13.1055, abs=1e-3)

    def test_ibm36z15_lookup(self):
        """The paper's adversary look-up: 5.406 ms."""
        assert HDDModel(IBM_36Z15).lookup_ms(512) == pytest.approx(5.406, abs=1e-2)

    def test_rotation_time_from_rpm(self):
        # 7200 RPM -> 8.33 ms per revolution; the datasheet's average
        # rotational latency is half of that.
        assert WD_2500JD.full_rotation_ms == pytest.approx(8.333, abs=0.01)
        assert WD_2500JD.avg_rotate_ms == pytest.approx(
            WD_2500JD.full_rotation_ms / 2.0, rel=0.01
        )


class TestModel:
    def test_transfer_scales_with_bytes(self):
        model = HDDModel(WD_2500JD)
        assert model.transfer_ms(1024) == pytest.approx(2 * model.transfer_ms(512))

    def test_rejects_negative_bytes(self):
        with pytest.raises(ConfigurationError):
            HDDModel(WD_2500JD).transfer_ms(-1)

    def test_stochastic_lookup_mean_near_average(self):
        model = HDDModel(WD_2500JD)
        rng = DeterministicRNG("hdd")
        samples = [model.sample_lookup_ms(rng, 512) for _ in range(3000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(model.lookup_ms(512), rel=0.05)

    def test_stochastic_lookup_positive(self):
        model = HDDModel(IBM_36Z15)
        rng = DeterministicRNG("hdd2")
        assert all(model.sample_lookup_ms(rng) > 0 for _ in range(100))

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            HDDSpec("bad", 0, 1.0, 1.0, 1.0)
