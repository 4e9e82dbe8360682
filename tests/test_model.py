import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinet.errors import ConfigError, DimensionError
from scinet.nn import kaiming_uniform_bound, leaky_relu_gain
from scinet.model import (
    ModelConfig,
    SCIBlock,
    StackedSCINet,
    build_model,
    compute_loss,
    realign,
    split_even_odd,
)
from scinet.tensor import Tape, Tensor, backward, finite_diff_check, gather_groups, mul, sum_all


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
        parts = Tensor(np.reshape([1.0, 5.0, 3.0, 7.0, 2.0, 6.0, 4.0, 8.0], (4, 1, 1, 2)))
        out = realign(parts)
        npt.assert_array_equal(out.data, [[[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]])

    def test_realign_rejects_non_power_of_two(self):
        parts = Tensor(np.zeros((3, 1, 1, 2)))
        with pytest.raises(DimensionError):
            realign(parts)

    def test_realign_rejects_length_mismatch(self):
        # leaves of different lengths cannot be stacked into realign's input
        parts = [Tensor(np.zeros((1, 1, 1, 2))), Tensor(np.zeros((1, 1, 1, 3)))]
        with pytest.raises(DimensionError):
            realign(gather_groups(parts))

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

        out = realign(Tensor(np.stack([leaf.data for leaf in tree_split(x, levels)])))
        npt.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_realign_records_one_tape_node(self, levels):
        parts = Tensor(np.zeros((1 << levels, 1, 1, 2)), requires_grad=True)
        with Tape() as tape:
            realign(parts)
        assert len(tape.nodes) == 1

    def test_realign_gradient_is_permutation(self):
        # x's leading axis is one leaf group, so the split leaves stack into realign's input
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 1, 8)), requires_grad=True)
        probe = Tensor(np.arange(8.0).reshape(1, 1, 8))
        with Tape() as tape:
            even, odd = split_even_odd(x)
            ee, eo = split_even_odd(even)
            oe, oo = split_even_odd(odd)
            loss = sum_all(mul(realign(gather_groups([ee, eo, oe, oo])), probe))
        backward(loss, tape)
        npt.assert_array_equal(x.grad, probe.data[None])


class _ConstStub:
    """Grouped interaction-module stand-in: group r of its output is the constant values[r]."""

    def __init__(self, *values):
        self.values = np.array(values)

    def forward(self, x, training=False, rng=None):
        return Tensor(np.broadcast_to(self.values[:, None, None, None], x.shape).copy())


class _FnStub:
    """Grouped stand-in applying fns[r] to group r."""

    def __init__(self, *fns):
        self.fns = fns

    def forward(self, x, training=False, rng=None):
        return Tensor(np.stack([fn(row) for fn, row in zip(self.fns, x.data)]))


class TestSCIBlock:
    # a one-block level: the scale stand-in's groups are (scale_for_odd, scale_for_even), the
    # correction's (correct_odd, correct_even); the output holds the even half, then the odd half
    def test_constant_scale_worked_example(self):
        # scale-for-odd outputs ln 2 everywhere and everything else is zero:
        # odd half doubles (exp(ln 2) = 2), even half passes through unchanged
        block = SCIBlock(_ConstStub(math.log(2.0), 0.0), _ConstStub(0.0, 0.0), sign="add", no_interlearn=False)
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        even, odd = block.forward(x).data
        npt.assert_allclose(even, [[[1.0, 3.0]]], rtol=1e-15)
        npt.assert_allclose(odd, [[[4.0, 8.0]]], rtol=1e-15)

    def test_sub_sign_flips_corrections(self):
        block_add = SCIBlock(_ConstStub(0.0, 0.0), _ConstStub(0.5, 0.25), sign="add", no_interlearn=False)
        block_sub = SCIBlock(_ConstStub(0.0, 0.0), _ConstStub(0.5, 0.25), sign="sub", no_interlearn=False)
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        even_a, odd_a = block_add.forward(x).data
        even_s, odd_s = block_sub.forward(x).data
        npt.assert_allclose(odd_a, [[[2.5, 4.5]]])
        npt.assert_allclose(odd_s, [[[1.5, 3.5]]])
        npt.assert_allclose(even_a, [[[1.25, 3.25]]])
        npt.assert_allclose(even_s, [[[0.75, 2.75]]])

    def test_no_interlearn_runs_chains_per_half(self):
        # decoupled wiring: odd half -> scale_for_odd -> correct_odd, with no
        # exp and no cross terms; the stand-ins' groups are (*_even, *_odd) here
        block = SCIBlock(
            _FnStub(lambda a: a * 3.0, lambda a: a + 1.0), _FnStub(lambda a: a - 1.0, lambda a: a * 2.0),
            sign="add", no_interlearn=True,
        )
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        even, odd = block.forward(x).data
        # odd = [2, 4]: (odd + 1) * 2 = [6, 10]; even = [1, 3]: 3*even - 1 = [2, 8]
        npt.assert_allclose(odd, [[[6.0, 10.0]]])
        npt.assert_allclose(even, [[[2.0, 8.0]]])

    def test_odd_time_length_is_rejected(self):
        block = SCIBlock(_ConstStub(0.0, 0.0), _ConstStub(0.0, 0.0), sign="add", no_interlearn=False)
        with pytest.raises(DimensionError, match="even time length"):
            block.forward(Tensor(np.zeros((1, 1, 5))))
        with pytest.raises(DimensionError, match="even time length"):  # a grouped level input
            block.forward(Tensor(np.zeros((2, 1, 1, 3))))

    def test_identity_init_block_is_identity(self):
        model = build_model(config(levels=1))
        block = model.trees[0].root.block
        x = Tensor(np.random.default_rng(1).normal(size=(2, 2, 8)))
        even, odd = block.forward(x).data
        npt.assert_array_equal(even, x.data[:, :, 0::2])
        npt.assert_array_equal(odd, x.data[:, :, 1::2])

    def test_children_in_tree_order(self):
        # a two-block level at identity: child 2g is block g's even half, 2g+1 its odd half
        model = build_model(config(look_back=16, levels=2))
        level2 = model.trees[0].root.child.block
        x = np.random.default_rng(2).normal(size=(2, 3, 2, 4))
        out = level2.forward(Tensor(x)).data
        npt.assert_array_equal(out, [x[0, ..., 0::2], x[0, ..., 1::2], x[1, ..., 0::2], x[1, ..., 1::2]])


class TestTree:
    def test_block_count_is_two_to_levels_minus_one(self):
        for levels in (1, 2, 3):
            model = build_model(config(look_back=16, horizon=4, levels=levels))
            node, groups = model.trees[0].root, []
            while node is not None:  # one node per level, each holding its blocks' two scale modules
                groups.append(node.block.scale.w_in.shape[0] // 2)
                node = node.child
            assert groups == [2**level for level in range(levels)]
            blocks = {name.split("/")[1] for name, _ in model.named_parameters() if "/decoder/" not in name}
            assert len(blocks) == sum(groups) == 2**levels - 1

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

    @pytest.mark.parametrize("identity_init", [True, False])
    @pytest.mark.parametrize("variant", ["default", "no_interlearn", "weight_share", "no_decoder"])
    @pytest.mark.parametrize("stacks", [1, 2])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_weights_are_drawn_in_checkpoint_order(self, levels, stacks, variant, identity_init):
        flags = {} if variant == "default" else {variant: True}
        cfg = config(look_back=16, levels=levels, stacks=stacks, identity_init=identity_init, seed=5, **flags)
        d, hidden, k = cfg.n_variates, cfg.n_variates * cfg.hidden_ratio, cfg.kernel_size
        rng, want = np.random.default_rng(5), []
        zero_map = identity_init and variant != "no_interlearn"  # the closing conv starts at zero, undrawn

        def uniform(bound, shape):
            return rng.uniform(-bound, bound, size=shape)

        def paths(path, level):  # a block, then its even subtree, then its odd subtree
            yield path
            if level < levels:
                yield from paths(path + "e", level + 1)
                yield from paths(path + "o", level + 1)

        roles = ["shared"] if variant == "weight_share" else ["scale_for_odd", "scale_for_even", "correct_odd",
                                                              "correct_even"]
        for stack in range(stacks):
            for path in paths("b", 1):
                for role in roles:
                    prefix = f"stack{stack}/{path}/{role}"
                    w_in = uniform(kaiming_uniform_bound(d * k, leaky_relu_gain(cfg.leaky_slope)), (hidden, d, k))
                    w_out = np.zeros((d, hidden, k)) if zero_map else uniform(kaiming_uniform_bound(hidden * k, 1.0),
                                                                                (d, hidden, k))
                    want += [(f"{prefix}/w_in", w_in), (f"{prefix}/b_in", np.zeros(hidden)),
                             (f"{prefix}/w_out", w_out), (f"{prefix}/b_out", np.zeros(d))]
            if variant != "no_decoder":
                weight = uniform(math.sqrt(3 / cfg.look_back), (cfg.horizon, cfg.look_back))
                want += [(f"stack{stack}/decoder/weight", weight), (f"stack{stack}/decoder/bias", np.zeros(cfg.horizon))]
        got = build_model(cfg).named_parameters()
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, t), (_, w) in zip(got, want):
            assert t.shape == w.shape and t.data.tobytes() == w.tobytes(), name


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
        block = model.trees[0].root.block  # the level's shared modules fill the scale and correction roles
        assert block.scale is block.correct
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
