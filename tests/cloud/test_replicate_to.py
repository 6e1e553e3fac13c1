"""CloudProvider.replicate_to semantics."""

import pytest

from repro.cloud.provider import CloudProvider, DataCentre
from repro.errors import BlockNotFoundError, ConfigurationError
from repro.geo.datasets import city
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import PORKeys, setup_file


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

@pytest.fixture
def two_site_provider(keys, sample_data):
    provider = CloudProvider("acme")
    provider.add_datacentre(DataCentre("syd", city("sydney")))
    provider.add_datacentre(DataCentre("per", city("perth")))
    encoded = setup_file(sample_data, keys, b"repl-file", TEST_PARAMS)
    provider.upload(encoded, "syd")
    return provider, encoded


class TestReplicateTo:
    def test_copy_created_home_unchanged(self, two_site_provider):
        provider, encoded = two_site_provider
        provider.replicate_to(b"repl-file", "per")
        assert provider.home_of(b"repl-file").name == "syd"
        assert provider.datacentre("per").exists(b"repl-file")
        assert provider.datacentre("syd").exists(b"repl-file")

    def test_copies_identical(self, two_site_provider):
        provider, encoded = two_site_provider
        provider.replicate_to(b"repl-file", "per")
        for index in (0, 5, encoded.n_segments - 1):
            a = provider.datacentre("syd").server.store.get_segment(b"repl-file", index)
            b = provider.datacentre("per").server.store.get_segment(b"repl-file", index)
            assert a == b

    def test_duplicate_replication_rejected(self, two_site_provider):
        provider, _ = two_site_provider
        provider.replicate_to(b"repl-file", "per")
        with pytest.raises(ConfigurationError):
            provider.replicate_to(b"repl-file", "per")

    def test_unknown_file_rejected(self, two_site_provider):
        provider, _ = two_site_provider
        with pytest.raises(BlockNotFoundError):
            provider.replicate_to(b"ghost", "per")

    def test_unknown_destination_rejected(self, two_site_provider):
        provider, _ = two_site_provider
        with pytest.raises(ConfigurationError):
            provider.replicate_to(b"repl-file", "nowhere")

    def test_replica_carries_current_mutations(self, two_site_provider):
        from repro.por.file_format import Segment

        provider, _ = two_site_provider
        store = provider.datacentre("syd").server.store
        original = store.get_segment(b"repl-file", 2)
        mutated = Segment(2, bytes(len(original.payload)), original.tag)
        store.overwrite_segment(b"repl-file", mutated)
        provider.replicate_to(b"repl-file", "per")
        assert (
            provider.datacentre("per").server.store.get_segment(b"repl-file", 2)
            == mutated
        )

    def test_strategy_property_reflects_installs(self, two_site_provider):
        provider, _ = two_site_provider
        assert provider.strategy is None
        marker = object()
        provider.set_strategy(marker)
        assert provider.strategy is marker
        provider.set_strategy(None)
        assert provider.strategy is None
