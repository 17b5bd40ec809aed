"""Fixed-point quantization and dimension-dropping studies."""

import numpy as np
import pytest

from conftest import graph_from_triples, make_graph
from hdkg.errors import NumericError
from hdkg.model import ModelState
from hdkg.ranking import ScoringView, rank_queries, raw_scores
from hdkg.robustness import (
    MAX_TOTAL_BITS,
    FixedPointSpec,
    dimension_entropy,
    drop_dims,
    quantize_fixed,
    quantized_view,
)


class TestFixedPointSpec:
    def test_format_limits(self):
        spec = FixedPointSpec(4, 3)
        assert spec.step == 0.125
        assert spec.lo == -1.0
        assert spec.hi == 0.875
        wide = FixedPointSpec(8, 4)
        assert wide.step == 0.0625
        assert wide.lo == -8.0
        assert wide.hi == 7.9375

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            FixedPointSpec(1, 0)
        with pytest.raises(ValueError):
            FixedPointSpec(4, 4)
        with pytest.raises(ValueError):
            FixedPointSpec(4, -1)

    def test_width_bounded_by_float64(self):
        assert FixedPointSpec(MAX_TOTAL_BITS, 4).lo == -(2.0 ** 59)
        with pytest.raises(ValueError, match=r"\[2, 64\]"):
            FixedPointSpec(65, 4)
        with pytest.raises(ValueError, match="total_bits"):
            FixedPointSpec(2000, 4)


class TestQuantizeFixed:
    def test_rounding_oracle(self):
        # 0.3 * 8 = 2.4 rounds to 2, so 0.25 on a 3-fractional-bit grid
        assert quantize_fixed(0.3, FixedPointSpec(8, 3)) == 0.25

    def test_saturation_oracle(self):
        spec = FixedPointSpec(4, 3)
        assert quantize_fixed(10.0, spec) == 0.875
        assert quantize_fixed(-10.0, spec) == -1.0

    def test_ties_round_to_even(self):
        spec = FixedPointSpec(8, 0)
        assert quantize_fixed(0.5, spec) == 0.0
        assert quantize_fixed(1.5, spec) == 2.0

    def test_idempotent(self):
        spec = FixedPointSpec(6, 3)
        x = np.random.default_rng(0).normal(size=200)
        once = quantize_fixed(x, spec)
        np.testing.assert_array_equal(quantize_fixed(once, spec), once)

    def test_error_bound_in_range(self):
        spec = FixedPointSpec(8, 4)
        x = np.random.default_rng(1).uniform(spec.lo, spec.hi, size=500)
        err = np.abs(quantize_fixed(x, spec) - x)
        assert err.max() <= spec.step / 2 + 1e-15

    def test_monotone(self):
        spec = FixedPointSpec(5, 2)
        x = np.sort(np.random.default_rng(2).normal(scale=3.0, size=100))
        q = quantize_fixed(x, spec)
        assert np.all(np.diff(q) >= 0)

    def test_nan_rejected_inf_saturates(self):
        spec = FixedPointSpec(4, 2)
        with pytest.raises(NumericError):
            quantize_fixed(np.array([0.0, np.nan]), spec)
        assert quantize_fixed(np.inf, spec) == spec.hi
        assert quantize_fixed(-np.inf, spec) == spec.lo


class TestDimensionEntropy:
    def test_constant_column_is_zero(self):
        M = np.ones((50, 3))
        np.testing.assert_array_equal(dimension_entropy(M), np.zeros(3))

    def test_two_level_half_split_is_one_bit(self):
        col = np.array([0.0] * 25 + [1.0] * 25)
        M = col[:, None]
        assert dimension_entropy(M)[0] == pytest.approx(1.0)

    def test_bounded_by_log_bins(self):
        M = np.random.default_rng(3).normal(size=(400, 8))
        ent = dimension_entropy(M, bins=32)
        assert np.all(ent > 0) and np.all(ent <= 5.0)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            dimension_entropy(np.zeros(10))


class TestDropDims:
    def make_view(self, D=16, rows=40, seed=0):
        gen = np.random.default_rng(seed)
        return ScoringView(M_v=gen.normal(size=(rows, D)),
                           H_r=gen.normal(size=(3, D)), bias=0.2)

    def test_zero_fraction_is_a_no_op(self):
        view = self.make_view()
        out, keep = drop_dims(view, 0.0)
        assert len(keep) == 16
        np.testing.assert_array_equal(out.M_v, view.M_v)
        queries = np.array([[0, 0, 1], [2, 1, 3]])
        np.testing.assert_array_equal(
            rank_queries(out, queries, filtered=False),
            rank_queries(view, queries, filtered=False))

    def test_tiny_fraction_limits_to_no_op(self):
        view = self.make_view()
        _, keep = drop_dims(view, 1e-9)
        assert len(keep) == 16

    def test_drop_count_is_floored(self):
        view = self.make_view(D=16)
        out, keep = drop_dims(view, 0.25)
        assert len(keep) == 12
        assert out.M_v.shape == (40, 12)
        assert out.H_r.shape == (3, 12)
        np.testing.assert_array_equal(keep, np.unique(keep))

    def test_at_least_one_dimension_survives(self):
        view = self.make_view(D=4)
        _, keep = drop_dims(view, 0.99)
        assert len(keep) == 1

    def test_entropy_strategy_drops_constant_columns_first(self):
        view = self.make_view(D=8)
        view.M_v[:, 2] = 0.0
        view.M_v[:, 5] = 3.0
        _, keep = drop_dims(view, 0.25)  # drops 2 of 8
        assert 2 not in keep and 5 not in keep

    def test_random_strategy_seeded(self):
        view = self.make_view()
        _, k1 = drop_dims(view, 0.5, "random", seed=4)
        _, k2 = drop_dims(view, 0.5, "random", seed=4)
        _, k3 = drop_dims(view, 0.5, "random", seed=5)
        np.testing.assert_array_equal(k1, k2)
        assert not np.array_equal(k1, k3)

    def test_bias_and_sign_preserved(self):
        # The restricted view scores bias minus the distance over the kept columns.
        view = self.make_view()
        out, keep = drop_dims(view, 0.5)
        assert out.bias == view.bias
        Q = view.M_v[0, keep] + view.H_r[1, keep]
        want = view.bias - np.abs(Q - view.M_v[:, keep]).sum(axis=1)
        np.testing.assert_allclose(raw_scores(out, [0], [1])[0], want, rtol=1e-12)

    def test_invalid_arguments(self):
        view = self.make_view()
        with pytest.raises(ValueError):
            drop_dims(view, 1.0)
        with pytest.raises(ValueError):
            drop_dims(view, -0.1)
        with pytest.raises(ValueError):
            drop_dims(view, 0.5, "lowest")


class TestQuantizedView:
    def test_everything_lands_on_the_grid(self):
        kg = make_graph(12, 2, 36, seed=4)
        state = ModelState.create(12, 2, d=4, D=32, seed=4).refresh(kg)
        spec = FixedPointSpec(8, 4)
        view = quantized_view(state, kg, spec)
        for arr in (view.M_v, view.H_r):
            scaled = arr / spec.step
            np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)
            assert arr.min() >= spec.lo and arr.max() <= spec.hi

    def test_shape_bias_and_sign_preserved(self):
        kg = graph_from_triples([(0, 0, 1), (1, 1, 2)], 3, 2)
        state = ModelState.create(3, 2, d=2, D=8, seed=1)
        state.bias = 0.3
        state.refresh(kg)
        view = quantized_view(state, kg, FixedPointSpec(6, 3))
        assert view.M_v.shape == state.M_v.shape
        assert view.bias == 0.3
        Q = view.M_v[0] + view.H_r[0]
        want = 0.3 - np.abs(Q - view.M_v).sum(axis=1)
        np.testing.assert_allclose(raw_scores(view, [0], [0])[0], want, rtol=1e-12)

    def test_wider_format_reconstructs_closer(self):
        kg = make_graph(20, 3, 80, seed=6)
        state = ModelState.create(20, 3, d=6, D=64, seed=6).refresh(kg)
        full = state.M_v
        err8 = np.abs(quantized_view(state, kg, FixedPointSpec(8, 4)).M_v - full).sum()
        err4 = np.abs(quantized_view(state, kg, FixedPointSpec(4, 1)).M_v - full).sum()
        assert err8 < err4

    def test_saturated_model_survives_quantization(self, hardware_setup):
        # Near-binary hypervectors and integer-like memories sit close to the
        # fixed-point grid, so coarse storage barely moves the ranking.
        kg, state = hardware_setup["kg"], hardware_setup["state"]
        from hdkg.kg import tail_index
        from hdkg.ranking import metrics
        index = tail_index(kg.train, kg.valid, kg.test)
        full = metrics(rank_queries(ScoringView.from_state(state), kg.train,
                                    index, filtered=True))["mrr"]
        m8 = metrics(rank_queries(quantized_view(state, kg, FixedPointSpec(8, 4)),
                                  kg.train, index, filtered=True))["mrr"]
        m4 = metrics(rank_queries(quantized_view(state, kg, FixedPointSpec(4, 1)),
                                  kg.train, index, filtered=True))["mrr"]
        assert m8 >= m4
        assert abs(m8 - full) / full <= 0.35
