import math

import numpy as np
import numpy.testing as npt
import pytest

from scinet.errors import ConfigError, DimensionError, UsageError
from scinet.nn import (
    DecoderLayer,
    InteractionModule,
    dropout_forward,
    kaiming_uniform_bound,
    leaky_relu_gain,
)
from scinet.tensor import Tape, Tensor, backward, finite_diff_check, mul, sum_all


def make_module(seed=0, channels=3, identity_init=True, dropout=0.0, hidden_ratio=2, kernel=5):
    module = InteractionModule(channels, hidden_ratio, kernel, 0.01, dropout)
    module.draw(0, np.random.default_rng(seed), identity_init)
    return module


class TestInit:
    def test_kaiming_bound_formula(self):
        # bound = gain * sqrt(3 / fan_in); for fan_in=10 that is gain * sqrt(0.3)
        assert kaiming_uniform_bound(10, 1.0) == pytest.approx(math.sqrt(0.3))
        g = leaky_relu_gain(0.01)
        assert kaiming_uniform_bound(10, g) == pytest.approx(g * math.sqrt(0.3))

    def test_leaky_gain(self):
        assert leaky_relu_gain(0.0) == pytest.approx(math.sqrt(2.0))
        assert leaky_relu_gain(1.0) == pytest.approx(1.0)

    def test_opening_conv_within_kaiming_bound(self):
        m = make_module(seed=7, channels=4, hidden_ratio=3, kernel=5)
        fan_in = 4 * 5
        bound = kaiming_uniform_bound(fan_in, leaky_relu_gain(0.01))
        w = m.w_in.data
        assert np.all(np.abs(w) <= bound)
        # draws should actually use the range, not cluster near zero
        assert np.max(np.abs(w)) > 0.5 * bound

    def test_identity_init_zeroes_closing_conv(self):
        m = make_module(seed=1, identity_init=True)
        npt.assert_array_equal(m.w_out.data, 0.0)
        npt.assert_array_equal(m.b_out.data, 0.0)

    def test_non_identity_init_draws_closing_conv(self):
        m = make_module(seed=1, identity_init=False)
        assert np.any(m.w_out.data != 0.0)

    def test_same_seed_same_weights(self):
        a = make_module(seed=9, identity_init=False)
        b = make_module(seed=9, identity_init=False)
        npt.assert_array_equal(a.w_in.data, b.w_in.data)
        npt.assert_array_equal(a.w_out.data, b.w_out.data)

    def test_different_seed_different_weights(self):
        a = make_module(seed=9)
        b = make_module(seed=10)
        assert np.any(a.w_in.data != b.w_in.data)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            InteractionModule(3, 2, 4, 0.01, 0.0)  # even kernel
        with pytest.raises(ConfigError):
            InteractionModule(3, 0, 5, 0.01, 0.0)  # zero hidden ratio
        with pytest.raises(ConfigError):
            InteractionModule(3, 2, 5, 0.01, 1.0)  # dropout 1.0


class TestInteractionForward:
    def test_shape_preserved(self):
        m = make_module(channels=3, identity_init=False)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 12, 4)))
        out = m.forward(x)
        assert out.shape == (1, 3, 12, 4)

    def test_output_bounded_by_tanh(self):
        m = make_module(seed=3, channels=2, identity_init=False)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 16, 2)) * 3.0)
        out = m.forward(x)
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)
        # extreme inputs saturate, but never escape [-1, 1] even in float64
        huge = Tensor(np.random.default_rng(2).normal(size=(1, 2, 16, 2)) * 1e6)
        out = m.forward(huge)
        assert np.all(np.abs(out.data) <= 1.0)

    def test_identity_init_output_is_zero(self):
        m = make_module(seed=4, channels=3, identity_init=True)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 8, 2)))
        npt.assert_array_equal(m.forward(x).data, 0.0)

    def test_eval_mode_is_deterministic_despite_dropout_config(self):
        m = make_module(seed=5, channels=2, identity_init=False, dropout=0.5)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 2, 10, 1)))
        first = m.forward(x, training=False).data
        second = m.forward(x, training=False).data
        npt.assert_array_equal(first, second)

    def test_wrong_channel_count_rejected(self):
        m = make_module(channels=3)
        with pytest.raises(DimensionError):
            m.forward(Tensor(np.zeros((1, 2, 8, 1))))

    def test_gradcheck(self):
        m = make_module(seed=6, channels=2, identity_init=False, kernel=3)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 2, 6, 2)), requires_grad=True)
        probe = Tensor(rng.normal(size=(1, 2, 6, 2)))
        params = [x, m.w_in, m.b_in, m.w_out, m.b_out]

        def f():
            return sum_all(mul(m.forward(x), probe))

        assert finite_diff_check(f, params) < 1e-4


class TestDropout:
    def test_identity_when_not_training(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        assert dropout_forward(x, 0.5, training=False, rng=None) is x

    def test_identity_when_p_zero(self):
        x = Tensor(np.ones(5))
        assert dropout_forward(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_p_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout_forward(Tensor(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))

    def test_rng_required_in_training(self):
        with pytest.raises(UsageError):
            dropout_forward(Tensor(np.ones(3)), 0.5, training=True, rng=None)

    def test_survivors_scaled_exactly(self):
        x = Tensor(np.ones(1000))
        out = dropout_forward(x, 0.25, training=True, rng=np.random.default_rng(1))
        values = np.unique(out.data)
        npt.assert_allclose(values, [0.0, 1.0 / 0.75])

    def test_expectation_preserved_monte_carlo(self):
        # inverted dropout: E[output] = input; 20000 draws, tolerance 2%
        rng = np.random.default_rng(2)
        x = Tensor(np.full(20000, 3.0))
        out = dropout_forward(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 3.0) / 3.0 < 0.02

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones(2000), requires_grad=True)
        with Tape() as tape:
            out = dropout_forward(x, 0.5, training=True, rng=np.random.default_rng(3))
            loss = sum_all(out)
        backward(loss, tape)
        # gradient is exactly the applied mask/(1-p)
        npt.assert_array_equal(x.grad, out.data)


class TestDecoder:
    def test_shapes(self):
        dec = DecoderLayer(8, 3, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 5, 8)))
        out = dec.forward(x)
        assert out.shape == (4, 5, 3)

    def test_weight_shared_across_variates(self):
        # the same time-mixing matrix applies to every variate channel
        dec = DecoderLayer(6, 2, np.random.default_rng(2))
        row = np.random.default_rng(3).normal(size=6)
        x = Tensor(np.stack([row, row])[None, :, :])  # two identical variates
        out = dec.forward(x)
        npt.assert_array_equal(out.data[0, 0], out.data[0, 1])

    def test_gradcheck(self):
        dec = DecoderLayer(5, 2, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 3, 2)))

        def f():
            return sum_all(mul(dec.forward(x), probe))

        assert finite_diff_check(f, [x, dec.weight, dec.bias], h=1e-3) < 1e-9
