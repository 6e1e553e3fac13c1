"""Vectorized GF(256) kernels: equivalence with the scalar anchor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.gf import gf256_vec
from repro.gf.gf256 import GF256, mul_fast

# exc_type=ImportError: skip (not warn) even when a numpy distribution
# is present but unimportable, e.g. the CI scalar-fallback lane.
np = pytest.importorskip("numpy", exc_type=ImportError)


class TestCapabilityFlag:
    def test_flag_true_with_numpy_installed(self):
        assert gf256_vec.HAS_NUMPY is True
        from repro.gf import HAS_NUMPY

        assert HAS_NUMPY is True

    def test_require_numpy_passes(self):
        gf256_vec.require_numpy()

    def test_require_numpy_raises_without_numpy(self, monkeypatch):
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        with pytest.raises(ConfigurationError, match="repro\\[fast\\]"):
            gf256_vec.require_numpy()

    def test_kernels_raise_without_numpy(self, monkeypatch):
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        with pytest.raises(ConfigurationError):
            gf256_vec.as_gf_array([1])
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul([[1]], [[2]])


class TestMulVec:
    def test_full_grid_matches_scalar(self):
        # The outer product of two 0..255 vectors is the whole product
        # table the matrix kernel gathers from.
        column = np.arange(256, dtype=np.uint8).reshape(256, 1)
        out = gf256_vec.gf_matmul(column, column.T)
        expected = np.array(
            [[mul_fast(x, y) for y in range(256)] for x in range(256)],
            dtype=np.uint8,
        )
        assert np.array_equal(out, expected)

    def test_accepts_bytes_and_lists(self):
        row = gf256_vec.as_gf_array(b"\x02\x03").reshape(1, 2)
        out = gf256_vec.gf_matmul(row, [[4], [5]])
        assert out[0, 0] == GF256.mul(2, 4) ^ GF256.mul(3, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul([[256]], [[1]])
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul([[1]], [[-1]])

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul([[1.5]], [[1]])


class TestMatmul:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_matmul(self, data):
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 8))
        w = data.draw(st.integers(1, 6))
        elem = st.integers(0, 255)
        a = [
            data.draw(st.lists(elem, min_size=k, max_size=k)) for _ in range(m)
        ]
        b = [
            data.draw(st.lists(elem, min_size=w, max_size=w)) for _ in range(k)
        ]
        out = gf256_vec.gf_matmul(a, b)
        for i in range(m):
            for j in range(w):
                want = 0
                for t in range(k):
                    want ^= mul_fast(a[i][t], b[t][j])
                assert out[i, j] == want

    def test_identity(self):
        eye = np.eye(5, dtype=np.uint8)
        b = np.arange(25, dtype=np.uint8).reshape(5, 5)
        assert np.array_equal(gf256_vec.gf_matmul(eye, b), b)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul(np.zeros((2, 3), dtype=np.uint8),
                                np.zeros((4, 2), dtype=np.uint8))

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul(np.zeros(3, dtype=np.uint8),
                                np.zeros((3, 1), dtype=np.uint8))

