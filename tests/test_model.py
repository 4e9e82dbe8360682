import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinet.errors import ConfigError, DimensionError
from scinet.model import (
    ModelConfig,
    SCIBlock,
    StackedSCINet,
    build_model,
    compute_loss,
    realign,
    split_even_odd,
)
from scinet.tensor import Tape, Tensor, backward, finite_diff_check, mul, sum_all


def config(**kw):
    base = dict(
        look_back=8,
        horizon=4,
        n_variates=2,
        levels=2,
        stacks=1,
        kernel_size=3,
        hidden_ratio=2,
        dropout=0.0,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestModelConfig:
    def test_look_back_divisibility(self):
        with pytest.raises(ConfigError, match="not divisible"):
            config(look_back=48, horizon=24, levels=5).validate()
        config(look_back=96, horizon=24, levels=5, kernel_size=5).validate()

    def test_stacking_needs_shorter_horizon(self):
        with pytest.raises(ConfigError):
            config(look_back=8, horizon=8, stacks=2).validate()
        config(look_back=8, horizon=7, stacks=2).validate()

    def test_no_decoder_horizon_cap(self):
        with pytest.raises(ConfigError):
            config(horizon=9, no_decoder=True).validate()
        config(horizon=8, no_decoder=True).validate()

    def test_bad_sign(self):
        with pytest.raises(ConfigError):
            config(sign="plus").validate()

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            config(levels=0).validate()
        with pytest.raises(ConfigError):
            config(stacks=0).validate()
        with pytest.raises(ConfigError):
            config(kernel_size=4).validate()
        with pytest.raises(ConfigError):
            config(dropout=1.0).validate()


class TestSplitRealign:
    def test_split_is_zero_based(self):
        x = Tensor(np.array([[[10.0, 11.0, 12.0, 13.0]]]))
        even, odd = split_even_odd(x)
        npt.assert_array_equal(even.data, [[[10.0, 12.0]]])
        npt.assert_array_equal(odd.data, [[[11.0, 13.0]]])

    def test_split_rejects_odd_length(self):
        with pytest.raises(DimensionError):
            split_even_odd(Tensor(np.zeros((1, 1, 5))))

    def test_realign_two_level_worked_example(self):
        # splitting [1..8] twice gives leaves [1,5], [3,7], [2,6], [4,8] in
        # tree order (even branch first); realign must restore [1..8]
        parts = [
            Tensor(np.array([[[1.0, 5.0]]])),
            Tensor(np.array([[[3.0, 7.0]]])),
            Tensor(np.array([[[2.0, 6.0]]])),
            Tensor(np.array([[[4.0, 8.0]]])),
        ]
        out = realign(parts)
        npt.assert_array_equal(out.data, [[[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]])

    def test_realign_rejects_non_power_of_two(self):
        parts = [Tensor(np.zeros((1, 1, 2)))] * 3
        with pytest.raises(DimensionError):
            realign(parts)

    def test_realign_rejects_length_mismatch(self):
        parts = [Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 3)))]
        with pytest.raises(DimensionError):
            realign(parts)

    @given(levels=st.integers(1, 4), mult=st.integers(1, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_realign_inverts_repeated_split(self, levels, mult, seed):
        n = (1 << levels) * mult
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 2, n)))

        def tree_split(t, depth):
            if depth == 0:
                return [t]
            even, odd = split_even_odd(t)
            return tree_split(even, depth - 1) + tree_split(odd, depth - 1)

        out = realign(tree_split(x, levels))
        npt.assert_array_equal(out.data, x.data)

    def test_realign_gradient_is_permutation(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 8)), requires_grad=True)
        probe = Tensor(np.arange(8.0).reshape(1, 1, 8))
        with Tape() as tape:
            even, odd = split_even_odd(x)
            ee, eo = split_even_odd(even)
            oe, oo = split_even_odd(odd)
            loss = sum_all(mul(realign([ee, eo, oe, oo]), probe))
        backward(loss, tape)
        npt.assert_array_equal(x.grad, probe.data)


class _ConstStub:
    """Interaction-module stand-in returning a constant array."""

    def __init__(self, value):
        self.value = value

    def forward(self, x, training=False, rng=None):
        return Tensor(np.full(x.data.shape, self.value))


class _FnStub:
    def __init__(self, fn):
        self.fn = fn

    def forward(self, x, training=False, rng=None):
        return Tensor(self.fn(x.data))


class TestSCIBlock:
    def test_constant_scale_worked_example(self):
        # scale-for-odd outputs ln 2 everywhere and everything else is zero:
        # odd half doubles (exp(ln 2) = 2), even half passes through unchanged
        block = SCIBlock(
            _ConstStub(math.log(2.0)), _ConstStub(0.0), _ConstStub(0.0), _ConstStub(0.0),
            sign="add", no_interlearn=False,
        )
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        even, odd = block.forward(x)
        npt.assert_allclose(even.data, [[[1.0, 3.0]]], rtol=1e-15)
        npt.assert_allclose(odd.data, [[[4.0, 8.0]]], rtol=1e-15)

    def test_sub_sign_flips_corrections(self):
        block_add = SCIBlock(
            _ConstStub(0.0), _ConstStub(0.0), _ConstStub(0.5), _ConstStub(0.25),
            sign="add", no_interlearn=False,
        )
        block_sub = SCIBlock(
            _ConstStub(0.0), _ConstStub(0.0), _ConstStub(0.5), _ConstStub(0.25),
            sign="sub", no_interlearn=False,
        )
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        even_a, odd_a = block_add.forward(x)
        even_s, odd_s = block_sub.forward(x)
        npt.assert_allclose(odd_a.data, [[[2.5, 4.5]]])
        npt.assert_allclose(odd_s.data, [[[1.5, 3.5]]])
        npt.assert_allclose(even_a.data, [[[1.25, 3.25]]])
        npt.assert_allclose(even_s.data, [[[0.75, 2.75]]])

    def test_no_interlearn_runs_chains_per_half(self):
        # decoupled wiring: odd half -> scale_for_odd -> correct_odd, with no
        # exp and no cross terms
        block = SCIBlock(
            _FnStub(lambda a: a + 1.0), _FnStub(lambda a: a * 3.0),
            _FnStub(lambda a: a * 2.0), _FnStub(lambda a: a - 1.0),
            sign="add", no_interlearn=True,
        )
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        even, odd = block.forward(x)
        # odd = [2, 4]: (odd + 1) * 2 = [6, 10]; even = [1, 3]: 3*even - 1 = [2, 8]
        npt.assert_allclose(odd.data, [[[6.0, 10.0]]])
        npt.assert_allclose(even.data, [[[2.0, 8.0]]])

    def test_identity_init_block_is_identity(self):
        model = build_model(config(levels=1))
        block = model.trees[0].root.block
        x = Tensor(np.random.default_rng(1).normal(size=(2, 2, 8)))
        even, odd = block.forward(x)
        npt.assert_array_equal(even.data, x.data[:, :, 0::2])
        npt.assert_array_equal(odd.data, x.data[:, :, 1::2])


class TestTree:
    def test_block_count_is_two_to_levels_minus_one(self):
        for levels in (1, 2, 3):
            model = build_model(config(look_back=16, horizon=4, levels=levels))

            def count(node):
                if node.even_child is None:
                    return 1
                return 1 + count(node.even_child) + count(node.odd_child)

            assert count(model.trees[0].root) == 2**levels - 1

    def test_identity_init_representation_is_twice_input(self):
        model = build_model(config(levels=2, seed=3))
        x = Tensor(np.random.default_rng(4).normal(size=(3, 2, 8)))
        rep = model.representation(x)
        npt.assert_allclose(rep.data, 2.0 * x.data, atol=1e-12, rtol=0)

    def test_identity_init_no_residual_representation_is_input(self):
        model = build_model(config(levels=2, no_residual=True, seed=3))
        x = Tensor(np.random.default_rng(5).normal(size=(1, 2, 8)))
        rep = model.representation(x)
        npt.assert_allclose(rep.data, x.data, atol=1e-12, rtol=0)

    def test_no_decoder_truncates_doubled_input(self):
        model = build_model(config(levels=2, no_decoder=True, seed=6))
        x = Tensor(np.random.default_rng(6).normal(size=(2, 2, 8)))
        out = model.forward(x)[0]
        npt.assert_allclose(out.data, 2.0 * x.data[:, :, -4:], atol=1e-12, rtol=0)

    def test_decoder_output_shape(self):
        model = build_model(config(levels=2, horizon=5, seed=7))
        x = Tensor(np.random.default_rng(7).normal(size=(3, 2, 8)))
        out = model.forward(x)[0]
        assert out.shape == (3, 2, 5)

    def test_input_shape_validated(self):
        model = build_model(config())
        with pytest.raises(DimensionError):
            model.forward(Tensor(np.zeros((2, 2, 10))))
        with pytest.raises(DimensionError):
            model.forward(Tensor(np.zeros((2, 3, 8))))

    def test_sign_choice_invisible_at_identity_init(self):
        # corrections start at zero, so add and sub coincide until training
        x = Tensor(np.random.default_rng(8).normal(size=(2, 2, 8)))
        out_add = build_model(config(sign="add", seed=9)).forward(x)[0]
        out_sub = build_model(config(sign="sub", seed=9)).forward(x)[0]
        npt.assert_array_equal(out_add.data, out_sub.data)

    def test_same_seed_bit_identical_forward(self):
        x = Tensor(np.random.default_rng(9).normal(size=(2, 2, 8)))
        a = build_model(config(seed=11, identity_init=False)).forward(x)[0]
        b = build_model(config(seed=11, identity_init=False)).forward(x)[0]
        npt.assert_array_equal(a.data, b.data)


class TestStacking:
    def test_two_stack_hand_trace(self):
        # identity init + no decoder: stack 1 predicts the last two samples of
        # 2x; stack 2 reads [x3, x4, 2*x3, 2*x4] and doubles its tail again
        cfg = config(
            look_back=4, horizon=2, n_variates=1, levels=1, stacks=2,
            no_decoder=True, seed=0,
        )
        model = build_model(cfg)
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        outs = model.forward(Tensor(x))
        assert len(outs) == 2
        npt.assert_allclose(outs[0].data, [[[6.0, 8.0]]], atol=1e-12)
        npt.assert_allclose(outs[1].data, [[[12.0, 16.0]]], atol=1e-12)

    def test_single_stack_equals_tree(self):
        cfg = config(levels=2, stacks=1, seed=12)
        model = build_model(cfg)
        x = Tensor(np.random.default_rng(10).normal(size=(2, 2, 8)))
        outs = model.forward(x)
        direct = model.trees[0].forward(x)
        assert len(outs) == 1
        npt.assert_array_equal(outs[0].data, direct.data)

    def test_weight_share_aliases_modules(self):
        model = build_model(config(weight_share=True))
        block = model.trees[0].root.block
        assert block.scale_for_odd is block.scale_for_even is block.correct_odd is block.correct_even
        shared_names = [n for n, _ in model.named_parameters() if "/shared/" in n]
        assert shared_names  # parameters listed once under the shared prefix

    def test_parameter_count_quarters_under_weight_share(self):
        full = build_model(config(weight_share=False))
        shared = build_model(config(weight_share=True))
        n_full = sum(p.size for p in full.parameters())
        n_shared = sum(p.size for p in shared.parameters())
        decoder = full.trees[0].decoder
        n_dec = decoder.weight.size + decoder.bias.size
        assert n_full - n_dec == 4 * (n_shared - n_dec)


    @pytest.mark.parametrize("switch", ["no_interlearn", "weight_share", "no_residual", "no_decoder"])
    def test_each_parameter_listed_once(self, switch):
        # Adam packs parameters into one vector, so a tensor listed twice would detach
        model = build_model(config(stacks=2, **{switch: True}))
        ids = [id(p) for p in model.parameters()]
        assert len(ids) == len(set(ids))
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))

class TestLossAndGradients:
    def test_single_stack_worked_example(self):
        # prediction [2, 4] against truth [1, 2]: mean(|1|, |2|) = 1.5
        pred = Tensor(np.array([[[2.0, 4.0]]]))
        truth = Tensor(np.array([[[1.0, 2.0]]]))
        total, comps = compute_loss([pred], truth)
        assert total.item() == pytest.approx(1.5)
        assert len(comps) == 1

    def test_total_is_sum_of_components(self):
        rng = np.random.default_rng(11)
        outs = [Tensor(rng.normal(size=(2, 3, 4))) for _ in range(3)]
        truth = Tensor(rng.normal(size=(2, 3, 4)))
        total, comps = compute_loss(outs, truth)
        assert abs(total.item() - sum(c.item() for c in comps)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compute_loss([Tensor(np.zeros((1, 1, 2)))], Tensor(np.zeros((1, 1, 3))))

    def test_every_parameter_receives_gradient(self):
        # random init so no zero-initialised conv blocks the flow
        cfg = config(levels=2, stacks=2, horizon=4, identity_init=False, seed=13)
        model = build_model(cfg)
        x = Tensor(np.random.default_rng(12).normal(size=(3, 2, 8)))
        y = Tensor(np.random.default_rng(13).normal(size=(3, 2, 4)))
        with Tape() as tape:
            total, _ = compute_loss(model.forward(x), y)
        backward(total, tape)
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), name

    def test_full_model_gradcheck(self):
        cfg = config(
            look_back=4, horizon=2, n_variates=1, levels=1,
            kernel_size=3, hidden_ratio=1, identity_init=False, seed=14,
        )
        model = build_model(cfg)
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(1, 1, 4)))
        probe = Tensor(rng.normal(size=(1, 1, 2)))

        def f():
            return sum_all(mul(model.forward(x)[0], probe))

        assert finite_diff_check(f, model.parameters()) < 1e-4
