"""The in-RAM segment store: InMemoryStorage's ingest, access and mutation."""

import pytest

from repro.crypto.rng import DeterministicRNG
from repro.errors import BlockNotFoundError, ConfigurationError
from repro.por.file_format import Segment
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import PORKeys, setup_file
from repro.storage.contract import InMemoryStorage


@pytest.fixture(scope="module")
def encoded():
    """One encoded container, built once: the store never mutates it."""
    keys = PORKeys.derive(b"master-key-0123456789abcdef-fixture")
    data = DeterministicRNG("backend-data").random_bytes(20_000)
    return setup_file(data, keys, b"backend-test", TEST_PARAMS)


@pytest.fixture
def store_with_file(encoded):
    store = InMemoryStorage()
    store.put_file(encoded)
    return store, encoded


class TestIngest:
    def test_put_and_query(self, store_with_file):
        store, encoded = store_with_file
        assert store.exists(b"backend-test")
        assert store.n_segments(b"backend-test") == encoded.n_segments
        assert store.file_ids() == [b"backend-test"]
        with pytest.raises(BlockNotFoundError):
            store.n_segments(b"ghost")

    def test_duplicate_rejected(self, store_with_file):
        store, encoded = store_with_file
        with pytest.raises(ConfigurationError):
            store.put_file(encoded)

    def test_delete(self, store_with_file):
        store, _ = store_with_file
        store.delete_file(b"backend-test")
        assert not store.exists(b"backend-test")

    def test_delete_missing(self):
        with pytest.raises(BlockNotFoundError):
            InMemoryStorage().delete_file(b"ghost")

    def test_file_meta(self, store_with_file):
        store, encoded = store_with_file
        meta = store.file_meta(b"backend-test")
        assert meta.original_length == encoded.original_length
        assert meta.n_data_blocks == encoded.n_data_blocks
        with pytest.raises(BlockNotFoundError):
            store.file_meta(b"ghost")


class TestAccess:
    def test_get_segment(self, store_with_file):
        store, encoded = store_with_file
        assert store.get_segment(b"backend-test", 0) == encoded.segments[0]

    def test_missing_file(self):
        with pytest.raises(BlockNotFoundError):
            InMemoryStorage().get_segment(b"ghost", 0)

    def test_missing_segment(self, store_with_file):
        store, encoded = store_with_file
        with pytest.raises(BlockNotFoundError):
            store.get_segment(b"backend-test", encoded.n_segments)


class TestMutation:
    def test_overwrite_segment(self, store_with_file):
        store, _ = store_with_file
        original = store.get_segment(b"backend-test", 3)
        forged = Segment(index=3, payload=bytes(len(original.payload)), tag=original.tag)
        store.overwrite_segment(b"backend-test", forged)
        assert store.get_segment(b"backend-test", 3) == forged
        # The ingest container keeps its upload-time contents.
        assert store.file_meta(b"backend-test").segments[3] == original

    def test_overwrite_missing_rejected(self, store_with_file):
        store, encoded = store_with_file
        ghost = Segment(index=encoded.n_segments, payload=b"x" * 12, tag=b"t")
        with pytest.raises(BlockNotFoundError):
            store.overwrite_segment(b"backend-test", ghost)
