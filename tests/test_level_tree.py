"""The level-batched tree against a block-by-block reference.

``ReferenceNet`` is the block-by-block forward the tree had before each level
ran as one grouped step: one interaction module per block and role, a block
splits, scales and corrects its own (batch, channels, time) input, and the
leaves are interleaved from a list. Each module's convs are one-group conv1d
calls. A training forward draws each tree's dropout masks up front as the
grouped tree does, level by level: the scale call's (2G, hidden, n, batch)
array, then the correction call's. Each block and role reads its own row,
transposed to its (batch, hidden, n) maps. It copies its weights from a
model's named parameters, so both run the same numbers and their outputs,
dropout draws and gradients can be compared bit for bit.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinet.model import ModelConfig, build_model, compute_loss, split_even_odd
from scinet.nn import InteractionModule, dropout_forward
from scinet.tensor import (
    Tape,
    Tensor,
    _emit,
    add,
    backward,
    concat_time,
    conv1d,
    exp,
    leaky_relu,
    linear,
    mul,
    slice_time,
    sub,
    sum_all,
    tanh,
)
from scinet.train import Adam, TrainConfig, fit, load_checkpoint, save_checkpoint
from scinet.data import WindowDataset

ROLES = ("scale_for_odd", "scale_for_even", "correct_odd", "correct_even")


def _leaf(data):
    return Tensor(np.array(data), requires_grad=True)


def _moved(x, grouped):
    """x (batch, C, n) as one group, (1, C, n, batch), if ``grouped``; else the reverse."""
    to_group, from_group = (lambda a: a.transpose(1, 2, 0)[None]), (lambda a: a[0].transpose(2, 0, 1))
    there, back = (to_group, from_group) if grouped else (from_group, to_group)
    return _emit(np.ascontiguousarray(there(x.data)), (x,), lambda g: (np.ascontiguousarray(back(g)),))


def _interleave(leaves):
    """The leaves, in tree order, merged into original time order: leaf i holds the steps whose index
    mod 2^L is i with its L bits reversed."""
    count = len(leaves)
    order = [int(f"{j:0{count.bit_length() - 1}b}"[::-1], 2) for j in range(count)]
    out = np.stack([leaves[i].data for i in order], axis=-1).reshape(leaves[0].shape[:-1] + (-1,))

    def rule(g):
        return tuple(np.ascontiguousarray(g[..., order.index(i)::count]) for i in range(count))

    return _emit(out, tuple(leaves), rule)


class _Drawn:
    """Stands in for the generator in ``dropout_forward``: hands out one block's row of its level's draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, shape):
        assert self.draws.shape == shape
        return self.draws


class ReferenceNet:
    def __init__(self, model):
        self.cfg = model.config
        # a block tensor gets the group axis of length 1 that conv1d reads
        self.params = {name: _leaf(t.data if "/decoder/" in name else t.data[None])
                       for name, t in model.named_parameters()}

    def module(self, prefix, x, training, rng):
        w_in, b_in, w_out, b_out = (self.params[f"{prefix}/{name}"] for name in InteractionModule.PARAMS)
        h = leaky_relu(_moved(conv1d(_moved(x, True), w_in, b_in), False), self.cfg.leaky_slope)
        h = dropout_forward(h, self.cfg.dropout, training, rng)
        return tanh(_moved(conv1d(_moved(h, True), w_out, b_out), False))

    def block(self, x, prefix, g, draws):
        cfg = self.cfg

        def run(role, h):
            rng = None
            if draws is not None:  # *_odd roles read row g of the call's draws, *_even row G + g (reversed under no_interlearn)
                level = draws[0] if role.startswith("scale") else draws[1]
                rng = _Drawn(level[g if role.endswith("even" if cfg.no_interlearn else "odd") else len(level) // 2 + g].transpose(2, 0, 1))
            return self.module(f"{prefix}/{'shared' if cfg.weight_share else role}", h, draws is not None, rng)

        even, odd = split_even_odd(x)
        if cfg.no_interlearn:
            new_odd = run("correct_odd", run("scale_for_odd", odd))
            new_even = run("correct_even", run("scale_for_even", even))
            return new_even, new_odd
        scaled_odd = mul(odd, exp(run("scale_for_odd", even)))
        scaled_even = mul(even, exp(run("scale_for_even", odd)))
        op = add if cfg.sign == "add" else sub
        new_odd = op(scaled_odd, run("correct_odd", scaled_even))
        new_even = op(scaled_even, run("correct_even", scaled_odd))
        return new_even, new_odd

    def leaves(self, x, prefix, level, g, draws):
        even, odd = self.block(x, prefix, g, None if draws is None else draws[level - 1])
        if level == self.cfg.levels:
            return [even, odd]
        return (self.leaves(even, prefix + "e", level + 1, 2 * g, draws)
                + self.leaves(odd, prefix + "o", level + 1, 2 * g + 1, draws))

    def draws(self, batch, rng):
        """Per level, the (2G, hidden, n, batch) draws for the scale call, then for the correction call."""
        cfg = self.cfg
        hidden = cfg.n_variates * cfg.hidden_ratio
        return [[rng.random((2 << level, hidden, cfg.look_back >> (level + 1), batch)) for _ in range(2)]
                for level in range(cfg.levels)]

    def forward(self, x, training=False, rng=None):
        cfg = self.cfg
        outputs, current = [], x
        for s in range(cfg.stacks):
            draws = self.draws(x.shape[0], rng) if training and cfg.dropout > 0.0 else None
            rep = _interleave(self.leaves(current, f"stack{s}/b", 1, 0, draws))
            rep = rep if cfg.no_residual else add(rep, current)
            if cfg.no_decoder:
                pred = slice_time(rep, cfg.look_back - cfg.horizon, cfg.look_back)
            else:
                pred = linear(rep, self.params[f"stack{s}/decoder/weight"], self.params[f"stack{s}/decoder/bias"])
            outputs.append(pred)
            current = concat_time(slice_time(x, cfg.horizon, cfg.look_back), pred)
        return outputs


def _run(net, x, probes, training, seed):
    with Tape() as tape:
        outputs = net.forward(x, training=training, rng=np.random.default_rng(seed))
        loss = sum_all(mul(outputs[0], probes[0]))
        for out, probe in zip(outputs[1:], probes[1:]):
            loss = add(loss, sum_all(mul(out, probe)))
    backward(loss, tape)
    return [o.data for o in outputs]


VARIANTS = [{}, {"sign": "sub"}, {"no_interlearn": True}, {"no_residual": True}, {"no_decoder": True},
            {"weight_share": True}]


@given(
    levels=st.integers(1, 4), stacks=st.integers(1, 2), variant=st.sampled_from(VARIANTS),
    d=st.integers(1, 3), batch=st.integers(1, 3), kernel=st.sampled_from([3, 5]),
    training=st.booleans(), seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_outputs_and_gradients_match_block_by_block_reference(levels, stacks, variant, d, batch, kernel,
                                                              training, seed):
    look_back = 2 << levels
    cfg = ModelConfig(look_back=look_back, horizon=look_back // 2, n_variates=d, levels=levels, stacks=stacks,
                      kernel_size=kernel, dropout=0.5, identity_init=False, seed=seed, **variant)
    model = build_model(cfg)
    reference = ReferenceNet(model)
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.normal(size=(batch, d, look_back)))
    probes = [Tensor(rng.normal(size=(batch, d, cfg.horizon))) for _ in range(stacks)]
    got = _run(model, x, probes, training, seed)
    want = _run(reference, x, probes, training, seed)
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)
    tol = 1e-12 if cfg.weight_share else 0.0  # a shared module's gradient sums its roles in another order
    for name, t in model.named_parameters():
        ref = reference.params[name].grad
        assert ref is not None and t.grad is not None, name
        npt.assert_allclose(t.grad, ref.reshape(t.shape), rtol=tol, atol=tol, err_msg=name)


def test_named_views_follow_the_slabs_through_fit_and_load(tmp_path):
    cfg = ModelConfig(look_back=16, horizon=4, n_variates=2, levels=3, stacks=2, kernel_size=3, seed=3)
    model = build_model(cfg)
    values = np.random.default_rng(0).normal(size=(120, 2))
    train_ds, val_ds = WindowDataset(values, (0, 80), 16, 4), WindowDataset(values, (80, 120), 16, 4)
    fit(model, train_ds, val_ds, TrainConfig(epochs=2, batch_size=16, seed=0))

    def shares(m):
        slabs = m.parameters()
        return all(any(np.shares_memory(t.data, s.data) for s in slabs) for _, t in m.named_parameters())

    assert shares(model)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    assert shares(loaded)
    for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


def test_parameters_are_one_slab_per_level_tensor_plus_the_decoder():
    model = build_model(ModelConfig(look_back=48, horizon=24, n_variates=3, levels=4, stacks=2))
    # per tree: four levels of scale and correction slabs (w_in, b_in, w_out, b_out each), then the decoder
    assert len(model.parameters()) == 2 * (4 * 8 + 2)
    assert len(model.named_parameters()) == 2 * (15 * 16 + 2)
    assert sum(p.size for p in model.parameters()) == sum(t.size for _, t in model.named_parameters())
    w_in = model.parameters()[0]
    assert w_in.shape == (2, 6, 3, 5)  # level 1: scale_for_odd, then scale_for_even


def test_slab_adam_steps_like_a_per_block_adam():
    # unclipped, Adam is elementwise, so slabs and per-block tensors step to the same bits
    model = build_model(ModelConfig(look_back=16, horizon=4, n_variates=2, levels=3, stacks=2, kernel_size=3,
                                    identity_init=False, seed=5))
    blocks = [_leaf(t.data) for _, t in model.named_parameters()]
    slab_opt = Adam(model.parameters(), lr=1e-2)
    block_opt = Adam(blocks, lr=1e-2)
    rng = np.random.default_rng(1)
    for _ in range(4):
        for p in model.parameters():
            p.grad = rng.normal(scale=3.0, size=p.shape)
        for b, (_, view) in zip(blocks, model.named_parameters()):
            b.grad = view.grad.copy()
        slab_opt.step()
        block_opt.step()
    for b, (name, view) in zip(blocks, model.named_parameters()):
        assert b.data.tobytes() == view.data.tobytes(), name


@pytest.mark.parametrize("levels,stacks,nodes", [(4, 2, 149), (3, 1, 56)])
def test_a_training_step_records_a_few_nodes_per_level(levels, stacks, nodes):
    # 17 per level: the [even; odd] halves (1), two grouped modules (5 each), exp and its swap (2),
    # the scaled halves (1), the correction's swap (1), the sum (1), the children (1); the first
    # tree's first halves read the untracked batch. Then per tree realign,
    # residual and decoder; between trees the stacked input (1); the loss (3 per stack, plus sums).
    cfg = ModelConfig(look_back=48, horizon=24, n_variates=3, levels=levels, stacks=stacks)
    model = build_model(cfg)
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 48)))
    y = Tensor(np.zeros((4, 3, 24)))
    with Tape() as tape:
        compute_loss(model.forward(x, training=True, rng=np.random.default_rng(0)), y)
    assert len(tape.nodes) == nodes


@pytest.mark.parametrize("variant", [{}, {"no_interlearn": True}, {"weight_share": True}])
def test_a_training_forward_advances_the_generator_by_exactly_its_masks(variant):
    # every later draw, the next epoch's shuffle seed among them, reads the stream where the masks left it
    cfg = ModelConfig(look_back=48, horizon=24, n_variates=3, levels=4, stacks=2, **variant)
    hidden, batch = cfg.n_variates * cfg.hidden_ratio, 5
    total = cfg.stacks * sum(2 * (2 << level) * hidden * (cfg.look_back >> (level + 1)) * batch
                             for level in range(cfg.levels))
    assert total == 23040
    rng = np.random.default_rng(0)
    x = Tensor(np.random.default_rng(1).normal(size=(batch, cfg.n_variates, cfg.look_back)))
    build_model(cfg).forward(x, training=True, rng=rng)
    want = np.random.default_rng(0)
    want.random(total)
    assert rng.bit_generator.state == want.bit_generator.state
