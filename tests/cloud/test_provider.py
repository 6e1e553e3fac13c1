"""Provider, data centres, placement and relocation."""

import pytest

from repro.cloud.provider import CloudProvider, DataCentre
from repro.errors import BlockNotFoundError, ConfigurationError
from repro.geo.coords import GeoPoint
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import setup_file
from repro.storage.hdd import HDDModel, IBM_36Z15, WD_2500JD
from repro.storage.server import StorageServer


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

@pytest.fixture
def provider(keys, sample_data, brisbane):
    provider = CloudProvider("acme")
    provider.add_datacentre(DataCentre("bne", brisbane))
    provider.add_datacentre(
        DataCentre("syd", GeoPoint(-33.87, 151.21), disk=IBM_36Z15)
    )
    encoded = setup_file(sample_data, keys, b"prov-file", TEST_PARAMS)
    provider.upload(encoded, "bne")
    return provider


class TestFleet:
    def test_duplicate_datacentre_rejected(self, provider, brisbane):
        with pytest.raises(ConfigurationError):
            provider.add_datacentre(DataCentre("bne", brisbane))

    def test_unknown_datacentre(self, provider):
        with pytest.raises(ConfigurationError):
            provider.datacentre("nowhere")

    def test_names(self, provider):
        assert set(provider.datacentre_names()) == {"bne", "syd"}


class TestDataCentreDisk:
    def test_disk_and_server_together_refused(self, brisbane):
        # The server's own disk would serve, not the one asked for.
        with pytest.raises(ConfigurationError, match="not both"):
            DataCentre(
                "bne", brisbane, disk=IBM_36Z15, server=StorageServer(WD_2500JD)
            )


class TestPlacement:
    def test_home_tracking(self, provider):
        assert provider.home_of(b"prov-file").name == "bne"

    def test_unknown_file(self, provider):
        with pytest.raises(BlockNotFoundError):
            provider.home_of(b"ghost")

    def test_honest_serving_charges_home_disk(self, provider):
        result = provider.handle_request(b"prov-file", 0)
        assert result.served_by == "bne"
        expected = HDDModel(WD_2500JD).lookup_ms(result.segment.size_bytes)
        assert result.elapsed_ms == pytest.approx(expected)

    def test_relocation_moves_data(self, provider):
        provider.relocate(b"prov-file", "syd")
        assert provider.home_of(b"prov-file").name == "syd"
        assert not provider.datacentre("bne").exists(b"prov-file")
        assert provider.datacentre("syd").exists(b"prov-file")

    def test_relocated_file_serves_identically(self, provider):
        before = provider.handle_request(b"prov-file", 3).segment
        provider.relocate(b"prov-file", "syd")
        after = provider.handle_request(b"prov-file", 3).segment
        assert before == after

    def test_relocation_preserves_mutations(self, provider):
        from repro.por.file_format import Segment

        store = provider.datacentre("bne").server.store
        original = store.get_segment(b"prov-file", 1)
        mutated = Segment(1, bytes(len(original.payload)), original.tag)
        store.overwrite_segment(b"prov-file", mutated)
        provider.relocate(b"prov-file", "syd")
        assert provider.handle_request(b"prov-file", 1).segment == mutated


class TestStrategy:
    def test_strategy_intercepts(self, provider):
        class Echo:
            def handle_request(self, prov, file_id, index):
                from repro.storage.contract import ServeResult
                from repro.por.file_format import Segment

                return ServeResult(
                    segment=Segment(index, b"", b""),
                    elapsed_ms=0.0,
                    served_by="intercepted",
                )

        provider.set_strategy(Echo())
        assert provider.handle_request(b"prov-file", 0).served_by == "intercepted"

    def test_clearing_strategy_restores_honesty(self, provider):
        provider.set_strategy(None)
        assert provider.handle_request(b"prov-file", 0).served_by == "bne"

    def test_internet_rtt_between_sites(self, provider):
        bne = provider.datacentre("bne")
        syd = provider.datacentre("syd")
        rtt = provider.internet_rtt_ms(bne, syd)
        # Brisbane-Sydney ~730 km: base 16 + propagation ~11 + hops.
        assert 20.0 < rtt < 50.0
