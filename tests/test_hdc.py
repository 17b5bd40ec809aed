"""Hypervector primitives: the fixed projection, encoding, and similarity."""

import numpy as np
import pytest

from hdkg.errors import ShapeError, UndefinedSimilarityError
from hdkg.hdc import BaseMatrix, encode, similarity

# Frozen reference values, computed once from the published stream layout
# (SeedSequence(seed, spawn_key=(0,)) -> PCG64 -> standard_normal) with plain
# numpy, independent of this package.  seed=7, d=2, D=4.
GOLDEN_BASE = np.array([
    [-0.6300679245787791, 1.4650846344213506, -0.43929262819424664, 2.13635728361371],
    [0.9334620369300807, 0.6751928519270304, 0.2884612800439013, -1.9166466632376802],
])
GOLDEN_EMB = np.array([[0.5, -0.25], [1.0, 2.0]])
GOLDEN_TANH = np.array([
    [-0.4993196871667346, 0.5107501180738907, -0.2837554134655069, 0.9133455831983542],
    [0.844556567656903, 0.992855213047165, 0.1367674706947533, -0.9350249459980478],
])


class TestBaseMatrix:
    def test_matches_frozen_values(self):
        base = BaseMatrix.create(d=2, D=4, seed=7)
        np.testing.assert_allclose(base.data, GOLDEN_BASE, rtol=0, atol=1e-15)

    def test_deterministic_per_seed(self):
        a = BaseMatrix.create(8, 32, seed=3)
        b = BaseMatrix.create(8, 32, seed=3)
        c = BaseMatrix.create(8, 32, seed=4)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_read_only(self):
        base = BaseMatrix.create(4, 16, seed=0)
        with pytest.raises(ValueError):
            base.data[0, 0] = 1.0

    def test_standard_normal_statistics(self):
        base = BaseMatrix.create(64, 4096, seed=1)
        assert abs(base.data.mean()) < 0.01
        assert abs(base.data.std() - 1.0) < 0.01

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            BaseMatrix.create(0, 16, seed=0)


class TestEncode:
    def test_matches_frozen_values(self):
        base = BaseMatrix.create(d=2, D=4, seed=7)
        np.testing.assert_allclose(encode(GOLDEN_EMB, base), GOLDEN_TANH,
                                   rtol=0, atol=1e-15)

    def test_output_bounded_by_tanh(self):
        base = BaseMatrix.create(8, 256, seed=2)
        H = encode(np.random.default_rng(0).normal(size=(10, 8)) * 5, base)
        assert np.all(np.abs(H) <= 1.0)
        assert np.abs(H).min() < 1.0

    def test_rejects_wrong_width(self):
        base = BaseMatrix.create(3, 8, seed=0)
        with pytest.raises(ShapeError):
            encode(np.zeros((2, 4)), base)


class TestSimilarity:
    def test_cosine_self_is_one(self):
        a = np.array([1.0, 2.0, -3.0])
        assert similarity(a, a) == pytest.approx(1.0)

    def test_cosine_orthogonal_is_zero(self):
        assert similarity(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)

    def test_cosine_zero_vector_raises(self):
        with pytest.raises(UndefinedSimilarityError):
            similarity(np.zeros(3), np.ones(3))

    def test_neg_l1_oracle(self):
        a = np.array([1.0, -1.0, 2.0])
        b = np.array([0.0, 1.0, 2.5])
        assert similarity(a, b, metric="neg_l1") == pytest.approx(-3.5)

    def test_sign_hamming_oracle(self):
        a = np.array([1.0, -2.0, 3.0, -4.0])
        b = np.array([0.5, 2.0, 9.0, -0.1])
        assert similarity(a, b, metric="sign_hamming") == pytest.approx(0.75)

    def test_matrix_rows_broadcast(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 0.0])
        out = similarity(A, b)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("metric", ["cosine", "neg_l1", "sign_hamming"])
    def test_zero_rows_give_empty_scores(self, metric):
        out = similarity(np.empty((0, 3)), np.ones(3), metric)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            similarity(np.ones(3), np.ones(3), metric="dot")

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            similarity(np.ones(3), np.ones(4))
