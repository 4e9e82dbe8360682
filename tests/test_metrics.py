import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinet.errors import ConfigError, DimensionError, NumericError
from scinet.metrics import (
    PEConfig,
    compute_metrics,
    pe_report,
    permutation_entropy,
)
from scinet.model import ModelConfig, build_model


class TestComputeMetrics:
    def test_worked_example(self):
        # errors 1 and 2: mae 1.5, mse 2.5, rmse sqrt(2.5)
        pred = np.array([[[2.0, 4.0]]])
        truth = np.array([[[1.0, 2.0]]])
        report = compute_metrics(pred, truth)
        assert report.mae == pytest.approx(1.5)
        assert report.mse == pytest.approx(2.5)
        assert abs(report.rmse - math.sqrt(report.mse)) < 1e-12
        # per-element percentage errors: 100*1/1 and 100*2/2
        assert report.mape == pytest.approx(100.0)
        assert (report.window_count, report.variates, report.horizon) == (1, 1, 2)

    def test_perfect_prediction(self):
        x = np.random.default_rng(0).normal(size=(4, 2, 3))
        report = compute_metrics(x, x.copy())
        assert report.mae == 0.0 and report.mse == 0.0 and report.rmse == 0.0
        assert report.mape == 0.0

    def test_mean_over_all_elements(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(5, 3, 4))
        truth = rng.normal(size=(5, 3, 4))
        report = compute_metrics(pred, truth)
        assert report.mae == pytest.approx(np.abs(pred - truth).mean())
        assert report.mse == pytest.approx(((pred - truth) ** 2).mean())

    def test_mape_floor_prevents_blowup(self):
        pred = np.array([[[1.0]]])
        truth = np.array([[[0.0]]])
        report = compute_metrics(pred, truth)
        assert report.mape == pytest.approx(100.0 * 1.0 / 1e-8)
        assert math.isfinite(report.mape)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compute_metrics(np.zeros((1, 1, 2)), np.zeros((1, 1, 3)))

    def test_non_3d_rejected(self):
        with pytest.raises(DimensionError):
            compute_metrics(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_as_lines_round_trip_floats(self):
        report = compute_metrics(np.ones((2, 1, 3)) * 0.1, np.zeros((2, 1, 3)))
        lines = report.as_lines()
        parsed = dict(line.split("=", 1) for line in lines)
        assert float(parsed["mae"]) == report.mae
        assert int(parsed["window_count"]) == 2


class TestPermutationEntropy:
    def test_worked_example(self):
        # ordinal patterns of [4,7,9,10,6,11,3] at order 3: rising twice,
        # (2,0,1) twice, (1,0,2) once; entropy 1.0549.../log 6
        series = np.array([4.0, 7.0, 9.0, 10.0, 6.0, 11.0, 3.0])
        value = permutation_entropy(series, PEConfig(order=3, lag=1))
        assert value == pytest.approx(0.5888, abs=1e-4)

    def test_constant_series_scores_zero(self):
        value = permutation_entropy(np.full(100, 3.7), PEConfig(order=3, lag=1))
        assert value == 0.0

    def test_monotone_series_scores_zero(self):
        value = permutation_entropy(np.arange(50.0), PEConfig(order=4, lag=1))
        assert value == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=200)
        cfg = PEConfig(order=4, lag=1)
        base = permutation_entropy(series, cfg)
        assert permutation_entropy(3.0 * series + 10.0, cfg) == base
        assert permutation_entropy(np.exp(series), cfg) == base
        assert permutation_entropy(series**3, cfg) == base

    @given(seed=st.integers(0, 10_000), order=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_monotone_invariance_property(self, seed, order):
        series = np.random.default_rng(seed).normal(size=120)
        cfg = PEConfig(order=order, lag=1)
        base = permutation_entropy(series, cfg)
        assert permutation_entropy(np.tanh(series) * 5.0 + 1.0, cfg) == base

    def test_random_series_near_maximal(self):
        series = np.random.default_rng(3).normal(size=200_000)
        value = permutation_entropy(series, PEConfig(order=3, lag=1))
        assert value > 0.999

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = permutation_entropy(rng.normal(size=64), PEConfig(order=3, lag=2))
            assert 0.0 <= v <= 1.0

    def test_ties_resolved_by_position(self):
        # all-equal windows collapse to the single rising pattern
        series = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0])
        value = permutation_entropy(series, PEConfig(order=2, lag=1))
        # patterns: (0,1) for ties and rises, (1,0) for the one fall
        counts = np.array([6, 1])
        p = counts / counts.sum()
        expected = float(-(p * np.log(p)).sum()) / math.log(2)
        assert value == pytest.approx(expected, abs=1e-12)

    @given(series=st.lists(st.integers(0, 3), min_size=2, max_size=80), order=st.integers(2, 6),
           lag=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_stable_argsort_codes_bit_for_bit(self, series, order, lag):
        # small integers make most windows hold ties, which the stable sort breaks by position
        x = np.array(series, dtype=np.float64)
        if x.size <= (order - 1) * lag + 1:
            return
        n_win = x.size - (order - 1) * lag
        emb = x[np.arange(n_win)[:, None] + lag * np.arange(order)[None, :]]
        codes = np.argsort(emb, axis=1, kind="stable") @ (order ** np.arange(order))
        _, counts = np.unique(codes, return_counts=True)
        p = counts / counts.sum()
        expected = float(-(p * np.log(p)).sum()) / math.log(math.factorial(order))
        assert permutation_entropy(x, PEConfig(order=order, lag=lag)) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named(self, bad):
        # a NaN used to sort last and give a plausible entropy
        series = np.sin(0.3 * np.arange(200))
        series[57], series[90] = bad, bad
        with pytest.raises(NumericError, match="index 57"):
            permutation_entropy(series, PEConfig(order=3, lag=1))

    def test_lag_spaces_the_embedding(self):
        # with lag 2 the series [0,9,1,8,2,7] embeds as (0,1,2)/(9,8,7) runs
        series = np.array([0.0, 9.0, 1.0, 8.0, 2.0, 7.0])
        value = permutation_entropy(series, PEConfig(order=3, lag=2))
        # windows: [0,1,2] rising and [9,8,7] falling, one each
        assert value == pytest.approx(math.log(2) / math.log(6), abs=1e-12)

    def test_too_short_series_rejected(self):
        with pytest.raises(ConfigError, match="too short"):
            permutation_entropy(np.arange(6.0), PEConfig(order=6, lag=1))

    def test_non_1d_rejected(self):
        with pytest.raises(DimensionError):
            permutation_entropy(np.zeros((4, 4)), PEConfig(order=3, lag=1))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            permutation_entropy(np.arange(10.0), PEConfig(order=1, lag=1))
        with pytest.raises(ConfigError):
            permutation_entropy(np.arange(10.0), PEConfig(order=3, lag=0))


class TestPeReport:
    @staticmethod
    def model(**kw):
        base = dict(
            look_back=16,
            horizon=4,
            n_variates=2,
            levels=2,
            stacks=1,
            kernel_size=3,
            hidden_ratio=1,
            dropout=0.0,
            seed=5,
        )
        base.update(kw)
        return build_model(ModelConfig(**base))

    def test_identity_model_reproduces_original_entropy(self):
        # representation is exactly 2x the input, a monotone map, so both
        # entropies agree to the last bit
        model = self.model(identity_init=True)
        values = np.random.default_rng(6).normal(size=(16 * 12 + 5, 2))
        report = pe_report(model, values, PEConfig(order=4, lag=1))
        npt.assert_array_equal(report.original, report.enhanced)
        assert report.mean_original == report.mean_enhanced

    def test_per_variate_values(self):
        model = self.model(identity_init=True)
        rng = np.random.default_rng(7)
        # variate 0 noisy, variate 1 monotone: entropies must differ
        rows = 16 * 10
        values = np.column_stack([rng.normal(size=rows), np.arange(float(rows))])
        report = pe_report(model, values, PEConfig(order=3, lag=1))
        assert report.original[0] > 0.9
        assert report.original[1] == 0.0
        assert report.mean_original == pytest.approx(report.original.mean())

    def test_trailing_rows_beyond_tiles_ignored(self):
        model = self.model(identity_init=True)
        rng = np.random.default_rng(8)
        base_rows = rng.normal(size=(16 * 8, 2))
        extended = np.vstack([base_rows, rng.normal(size=(7, 2))])
        a = pe_report(model, base_rows, PEConfig(order=3, lag=1))
        b = pe_report(model, extended, PEConfig(order=3, lag=1))
        npt.assert_array_equal(a.original, b.original)
        npt.assert_array_equal(a.enhanced, b.enhanced)

    def test_wrong_variate_count_rejected(self):
        model = self.model()
        with pytest.raises(DimensionError):
            pe_report(model, np.zeros((64, 3)), PEConfig(order=3, lag=1))

    def test_too_few_rows_rejected(self):
        model = self.model()
        with pytest.raises(ConfigError):
            pe_report(model, np.zeros((10, 2)), PEConfig(order=3, lag=1))

    def test_as_lines_names_variates(self):
        model = self.model(identity_init=True)
        values = np.random.default_rng(9).normal(size=(16 * 6, 2))
        report = pe_report(model, values, PEConfig(order=3, lag=1))
        lines = report.as_lines(["load", "temp"])
        assert any(line.startswith("pe_original_load=") for line in lines)
        assert any(line.startswith("pe_enhanced_temp=") for line in lines)
        assert lines[-1].startswith("pe_enhanced_mean=")
        for line in lines:
            float(line.split("=", 1)[1])  # every value prints as a plain parseable float
