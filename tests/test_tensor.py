import contextlib
import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scinet.errors import ConfigError, DimensionError, NumericError, UsageError
from scinet.tensor import (
    EXP_CLAMP,
    Tape,
    Tensor,
    abs_,
    add,
    backward,
    concat_time,
    conv1d,
    exp,
    finite_diff_check,
    gather_groups,
    interleave_time,
    leaky_relu,
    linear,
    masked_scale,
    mean_all,
    mul,
    relayout,
    slice_time,
    sub,
    sum_all,
    tanh,
    _adjoint_taps,
    _band_taps,
    _banded,
    _taps,
)
from scinet import tensor as tensor_module
from scinet.model import ModelConfig, build_model, compute_loss, realign


@st.composite
def _relayouts(draw):
    """(split, axes, x's shape, output shape): 1-5 split dims, a permutation of them, and each side's dims
    merged at a drawn cut."""
    split = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    axes = tuple(draw(st.permutations(range(len(split)))))
    moved = tuple(split[a] for a in axes)
    cut_in, cut_out = draw(st.integers(0, len(split))), draw(st.integers(0, len(split)))
    return (split, axes, (math.prod(split[:cut_in]), math.prod(split[cut_in:])),
            (math.prod(moved[:cut_out]), math.prod(moved[cut_out:])))


def leaf(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


KERNELS = {"im2col": 0, "banded": 1 << 30}  # CONV_BAND_MAX values that send every conv1d call to one kernel


@contextlib.contextmanager
def conv_kernel(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_module, "CONV_BAND_MAX", KERNELS[name])
        yield


class TestElementwise:
    def test_forward_values(self):
        a = leaf([1.0, 2.0, 3.0])
        b = leaf([4.0, 5.0, 6.0])
        npt.assert_array_equal(add(a, b).data, [5.0, 7.0, 9.0])
        npt.assert_array_equal(sub(a, b).data, [-3.0, -3.0, -3.0])
        npt.assert_array_equal(mul(a, b).data, [4.0, 10.0, 18.0])

    def test_backward_rules(self):
        # d(sum(a+b))/da = 1, d(sum(a-b))/db = -1, d(sum(a*b))/da = b
        a = leaf([1.0, 2.0])
        b = leaf([3.0, 4.0])
        with Tape() as tape:
            loss = sum_all(add(a, b))
        backward(loss, tape)
        npt.assert_array_equal(a.grad, [1.0, 1.0])
        npt.assert_array_equal(b.grad, [1.0, 1.0])

        a = leaf([1.0, 2.0])
        b = leaf([3.0, 4.0])
        with Tape() as tape:
            loss = sum_all(sub(a, b))
        backward(loss, tape)
        npt.assert_array_equal(b.grad, [-1.0, -1.0])

        a = leaf([1.0, 2.0])
        b = leaf([3.0, 4.0])
        with Tape() as tape:
            loss = sum_all(mul(a, b))
        backward(loss, tape)
        npt.assert_array_equal(a.grad, [3.0, 4.0])
        npt.assert_array_equal(b.grad, [1.0, 2.0])

    def test_shape_mismatch_rejected(self):
        a = leaf([1.0, 2.0, 3.0])
        b = leaf([1.0, 2.0])
        for op in (add, sub, mul):
            with pytest.raises(DimensionError):
                op(a, b)

    def test_no_broadcasting_even_when_numpy_could(self):
        a = leaf(np.ones((2, 3)))
        b = leaf(np.ones((1, 3)))
        with pytest.raises(DimensionError):
            add(a, b)

    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(0)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(3, 4)))
        a_copy, b_copy = a.data.copy(), b.data.copy()
        for op in (add, sub, mul):
            op(a, b)
        for f in (exp, tanh_wrap, lambda t: leaky_relu(t, 0.2), abs_, sum_all, mean_all):
            f(a)
        npt.assert_array_equal(a.data, a_copy)
        npt.assert_array_equal(b.data, b_copy)


def tanh_wrap(t):
    from scinet.tensor import tanh

    return tanh(t)


class TestActivations:
    def test_leaky_relu_values(self):
        # leaky_relu(-2) with slope 0.01 gives -0.02
        x = leaf([-2.0, 0.0, 3.0])
        out = leaky_relu(x, 0.01)
        npt.assert_allclose(out.data, [-0.02, 0.0, 3.0])

    def test_leaky_relu_gradient(self):
        x = leaf([-2.0, 3.0])
        with Tape() as tape:
            loss = sum_all(leaky_relu(x, 0.25))
        backward(loss, tape)
        npt.assert_array_equal(x.grad, [0.25, 1.0])

    def test_tanh_gradient_is_one_minus_square(self):
        from scinet.tensor import tanh

        x = leaf([0.3, -1.2])
        with Tape() as tape:
            out = tanh(x)
            loss = sum_all(out)
        backward(loss, tape)
        npt.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, rtol=1e-12)

    def test_exp_clamps_input(self):
        x = leaf([-50.0, 0.0, 50.0])
        out = exp(x)
        npt.assert_allclose(out.data, [np.exp(-EXP_CLAMP), 1.0, np.exp(EXP_CLAMP)])

    def test_exp_gradient_zero_outside_clamp(self):
        x = leaf([-50.0, 1.0, 50.0])
        with Tape() as tape:
            loss = sum_all(exp(x))
        backward(loss, tape)
        npt.assert_allclose(x.grad, [0.0, np.exp(1.0), 0.0])

    def test_abs_gradient_sign(self):
        x = leaf([-3.0, 0.0, 2.0])
        with Tape() as tape:
            loss = sum_all(abs_(x))
        backward(loss, tape)
        npt.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])


def check_conv1d_against_tap_by_tap(groups, batch, in_ch, out_ch, k, n, seed):
    # independent reference: each padded position reads x at its index
    # clamped into [0, n), one tap at a time, and the input gradient
    # scatters back through the same clamped index
    rng = np.random.default_rng(seed)
    xd, wd = rng.normal(size=(groups, in_ch, n, batch)), rng.normal(size=(groups, out_ch, in_ch, k))
    bd, probe = rng.normal(size=(groups, out_ch)), rng.normal(size=(groups, out_ch, n, batch))
    pad = (k - 1) // 2
    source = np.clip(np.arange(n + 2 * pad) - pad, 0, n - 1)
    padded = xd[:, :, source]
    out = np.broadcast_to(bd[:, :, None, None], probe.shape).copy()
    gw, gx = np.zeros_like(wd), np.zeros_like(xd)
    for j in range(k):
        tap = padded[:, :, j:j + n]
        out += np.einsum("goc,gctb->gotb", wd[..., j], tap)
        gw[..., j] = np.einsum("gotb,gctb->goc", probe, tap)
        np.add.at(gx, (slice(None), slice(None), source[j:j + n]), np.einsum("goc,gotb->gctb", wd[..., j], probe))

    for kernel in KERNELS:
        x, w, b = leaf(xd), leaf(wd), leaf(bd)
        with conv_kernel(kernel), Tape() as tape:
            y = conv1d(x, w, b)
            loss = sum_all(mul(y, Tensor(probe)))
            backward(loss, tape)
        for got, want in ((y.data, out), (x.grad, gx), (w.grad, gw), (b.grad, probe.sum(axis=(2, 3)))):
            npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=kernel)


class TestConv1d:
    def test_worked_example(self):
        # x=[1,2,3], w=[1,0,-1], b=0: padded input is [1,1,2,3,3] and the
        # cross-correlation gives [1-2, 1-3, 2-3] = [-1,-2,-1]
        x = leaf(np.reshape([1.0, 2.0, 3.0], (1, 1, 3, 1)))
        w = leaf(np.reshape([1.0, 0.0, -1.0], (1, 1, 1, 3)))
        b = leaf(np.zeros((1, 1)))
        out = conv1d(x, w, b)
        npt.assert_array_equal(out.data, np.reshape([-1.0, -2.0, -1.0], (1, 1, 3, 1)))

    def test_cross_correlation_not_convolution(self):
        # an asymmetric kernel distinguishes the two conventions: with
        # w=[1,0,0], out[t] picks padded[t] (the left neighbour), not the right
        x = leaf(np.reshape([1.0, 2.0, 3.0, 4.0], (1, 1, 4, 1)))
        w = leaf(np.reshape([1.0, 0.0, 0.0], (1, 1, 1, 3)))
        b = leaf(np.zeros((1, 1)))
        out = conv1d(x, w, b)
        npt.assert_array_equal(out.data, np.reshape([1.0, 1.0, 2.0, 3.0], (1, 1, 4, 1)))

    def test_bias_gradient_counts_time_steps(self):
        # d(sum(out))/db is the number of time positions, per output channel
        rng = np.random.default_rng(1)
        x = leaf(rng.normal(size=(1, 2, 7, 1)))
        w = leaf(rng.normal(size=(1, 3, 2, 5)))
        b = leaf(np.zeros((1, 3)))
        with Tape() as tape:
            loss = sum_all(conv1d(x, w, b))
        backward(loss, tape)
        npt.assert_allclose(b.grad, [[7.0, 7.0, 7.0]])

    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(2)
        for channels, n, k in [(1, 4, 1), (2, 6, 3), (3, 10, 5)]:
            x = leaf(rng.normal(size=(1, channels, n, 2)))
            w = np.zeros((1, channels, channels, k))
            for c in range(channels):
                w[0, c, c, (k - 1) // 2] = 1.0
            out = conv1d(x, leaf(w), leaf(np.zeros((1, channels))))
            npt.assert_allclose(out.data, x.data, atol=0)

    def test_even_kernel_rejected(self):
        x = leaf(np.zeros((1, 1, 4, 1)))
        with pytest.raises(ConfigError):
            conv1d(x, leaf(np.zeros((1, 1, 1, 4))), leaf(np.zeros((1, 1))))

    def test_channel_mismatch_rejected(self):
        x = leaf(np.zeros((1, 2, 4, 1)))
        with pytest.raises(DimensionError):
            conv1d(x, leaf(np.zeros((1, 1, 3, 3))), leaf(np.zeros((1, 1))))

    def test_gradcheck_all_inputs(self):
        rng = np.random.default_rng(3)
        x = leaf(rng.normal(size=(1, 2, 6, 2)))
        w = leaf(rng.normal(size=(1, 3, 2, 3)))
        b = leaf(rng.normal(size=(1, 3)))
        probe = np.asarray(rng.normal(size=(1, 3, 6, 2)))

        def f():
            return sum_all(mul(conv1d(x, w, b), Tensor(probe)))

        for kernel in KERNELS:
            with conv_kernel(kernel):
                assert finite_diff_check(f, [x, w, b]) < 1e-6, kernel

    @pytest.mark.parametrize("k, n", [(1, 6), (5, 1)], ids=["k1 unpadded", "k5 n1 multi-pad edge fold"])
    def test_gradcheck_padding_extremes(self, k, n):
        rng = np.random.default_rng(7)
        x = leaf(rng.normal(size=(1, 3, n, 2)))
        w = leaf(rng.normal(size=(1, 2, 3, k)))
        b = leaf(rng.normal(size=(1, 2)))
        probe = np.asarray(rng.normal(size=(1, 2, n, 2)))

        def f():
            return sum_all(mul(conv1d(x, w, b), Tensor(probe)))

        for kernel in KERNELS:
            with conv_kernel(kernel):
                assert finite_diff_check(f, [x, w, b]) < 1e-6, kernel

    @given(
        groups=st.integers(1, 3),
        batch=st.integers(1, 3),
        in_ch=st.integers(1, 4),
        out_ch=st.integers(1, 4),
        k=st.sampled_from([1, 3, 5, 7, 9]),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_tap_by_tap_reference(self, groups, batch, in_ch, out_ch, k, n, seed):
        check_conv1d_against_tap_by_tap(groups, batch, in_ch, out_ch, k, n, seed)

    def test_rule_keeps_only_its_inputs_arrays(self):
        # the tape holds no conv1d buffer: the backward rule's closure reaches
        # no array other than the input's and the kernel's own
        rng = np.random.default_rng(4)
        x, w, b = leaf(rng.normal(size=(1, 3, 6, 2))), leaf(rng.normal(size=(1, 4, 3, 5))), leaf(np.zeros((1, 4)))
        for kernel in KERNELS:
            with conv_kernel(kernel), Tape() as tape:
                conv1d(x, w, b)
            cells = [cell.cell_contents for cell in tape.nodes[-1].rule.__closure__]
            assert cells and all(c is x.data or c is w.data for c in cells)

    @pytest.mark.parametrize("groups", [1, 3], ids=["one group", "grouped"])
    def test_reads_no_memory_it_did_not_write(self, groups):
        # _extend leaves slots unset, and both directions fill np.empty buffers group by group: with every
        # such buffer NaN-filled, the output and all three gradients keep their bits
        made = []

        def nan_filled(make):
            def empty(*args, **kwargs):
                arr = make(*args, **kwargs)
                arr.fill(np.nan)
                made.append(arr.shape)
                return arr
            return empty

        rng = np.random.default_rng(9)
        for kernel in KERNELS:
            for k in (1, 3, 5, 7):
                for n in range(1, 13):
                    x, w, b = rng.normal(size=(groups, 2, n, 2)), rng.normal(size=(groups, 3, 2, k)), \
                        rng.normal(size=(groups, 3))
                    g = rng.normal(size=(groups, 3, n, 2))
                    results = []
                    for patched in (False, True):
                        with conv_kernel(kernel), pytest.MonkeyPatch.context() as mp:
                            if patched:
                                mp.setattr(np, "empty", nan_filled(np.empty))
                                mp.setattr(np, "empty_like", nan_filled(np.empty_like))
                            with Tape() as tape:
                                out = conv1d(leaf(x), leaf(w), leaf(b))
                            results.append([out.data.tobytes()] + [a.tobytes() for a in tape.nodes[-1].rule(g)])
                    assert results[0] == results[1], (kernel, k, n)
        assert made  # the patch reached conv1d's buffers

    @pytest.mark.parametrize("shape, kernel", [((1, 2, 7, 3), (1, 4, 2, 5)), ((3, 2, 7, 4), (3, 5, 2, 3))],
                             ids=["one group", "grouped"])
    def test_input_without_gradient_skips_only_the_input_gradient(self, shape, kernel):
        rng = np.random.default_rng(8)
        xd, wd = rng.normal(size=shape), rng.normal(size=kernel)
        bd = rng.normal(size=kernel[:-2])
        g = rng.normal(size=conv1d(leaf(xd), leaf(wd), leaf(bd)).shape)
        for kernel in KERNELS:
            grads = []
            for x_grad in (True, False):
                x, w = leaf(xd, x_grad), leaf(wd)
                with conv_kernel(kernel):
                    with Tape() as tape:
                        conv1d(x, w, leaf(bd))
                    rule = tape.nodes[-1].rule
                    assert all(cell.cell_contents is x.data or cell.cell_contents is w.data
                               for cell in rule.__closure__)
                    gx, gw, gb = rule(g)
                assert (gx is not None) is x_grad
                grads.append((gw.tobytes(), gb.tobytes()))
            assert grads[0] == grads[1], kernel

    def test_tap_indices_are_cached_read_only(self):
        index = _taps(6, 5)
        assert _taps(6, 5) is index
        npt.assert_array_equal(index[:6], [0, 0, 0, 1, 2, 3])  # tap 0 reads two samples back, clamped
        with pytest.raises(ValueError):
            index[0] = 1

    def test_band_tap_matrix_is_cached_read_only(self):
        band = _band_taps(6, 5)
        assert _band_taps(6, 5) is band and not band.flags.writeable
        per_time = band.reshape(5, 6, 6)  # (tap, time, sample)
        npt.assert_array_equal(per_time.sum(axis=2), np.ones((5, 6)))  # each tap reads one sample at each time
        npt.assert_array_equal(per_time.argmax(axis=2).ravel(), _taps(6, 5))
        with pytest.raises(ValueError):
            band[0, 0] = 1.0

    def test_band_gate_selects_the_short_tree_levels(self):
        # the interaction module's two calls, d -> 2d and 2d -> d, at look-back 48: levels 2-4 of a
        # 3-variate tree, level 3 of a 7-variate one and no level at 21 variates take the banded kernel
        for d, banded_levels in ((3, [False, True, True, True]), (7, [False, False, True]), (21, [False] * 3)):
            rows = [48 >> level for level in range(1, len(banded_levels) + 1)]
            assert [_banded(n, d, 2 * d) for n in rows] == [_banded(n, 2 * d, d) for n in rows] == banded_levels

    def test_adjoint_tap_indices_sum_what_each_tap_read(self):
        # at n = 6, k = 5 the extended gradient is g[0..5], prefix sums at 6..8, suffix sums at 9..11, zero at 12
        index = _adjoint_taps(6, 5)
        assert _adjoint_taps(6, 5) is index and not index.flags.writeable
        npt.assert_array_equal(index.reshape(5, 6), [[8, 3, 4, 5, 12, 12],  # via tap 0, sample 0 gets g[0..2], s gets g[s+2]
                                                     [7, 2, 3, 4, 5, 12],
                                                     [0, 1, 2, 3, 4, 5],
                                                     [12, 0, 1, 2, 3, 10],
                                                     [12, 12, 0, 1, 2, 11]])  # via tap 4, sample 5 gets g[3..5]


class TestLinear:
    def test_forward(self):
        x = leaf(np.array([[1.0, 2.0]]))
        w = leaf(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        b = leaf(np.array([0.0, 0.0, 10.0]))
        out = linear(x, w, b)
        npt.assert_array_equal(out.data, [[1.0, 2.0, 13.0]])

    def test_gradcheck_machine_precision(self):
        # linear map: central differences are exact for any step size, so a
        # large h leaves only rounding noise
        rng = np.random.default_rng(4)
        x = leaf(rng.normal(size=(3, 4)))
        w = leaf(rng.normal(size=(2, 4)))
        b = leaf(rng.normal(size=2))
        probe = np.asarray(rng.normal(size=(3, 2)))

        def f():
            return sum_all(mul(linear(x, w, b), Tensor(probe)))

        assert finite_diff_check(f, [x, w, b], h=1e-3) < 1e-9

    def test_weight_shared_across_leading_axes(self):
        rng = np.random.default_rng(5)
        x = leaf(rng.normal(size=(2, 3, 4)))
        w = leaf(rng.normal(size=(5, 4)))
        b = leaf(rng.normal(size=5))
        out = linear(x, w, b)
        assert out.shape == (2, 3, 5)
        expect = x.data @ w.data.T + b.data
        npt.assert_allclose(out.data, expect, rtol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            linear(leaf(np.zeros((2, 3))), leaf(np.zeros((4, 5))), leaf(np.zeros(4)))


class TestReshapingOps:
    def test_slice_even_odd(self):
        x = leaf(np.arange(8.0).reshape(1, 1, 8))
        npt.assert_array_equal(slice_time(x, 0, None, 2).data, [[[0.0, 2.0, 4.0, 6.0]]])
        npt.assert_array_equal(slice_time(x, 1, None, 2).data, [[[1.0, 3.0, 5.0, 7.0]]])

    def test_slice_gradient_scatters(self):
        x = leaf(np.arange(6.0))
        with Tape() as tape:
            loss = sum_all(slice_time(x, 1, None, 2))
        backward(loss, tape)
        npt.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_interleave_inverts_split(self):
        x = leaf(np.arange(10.0).reshape(1, 1, 10))
        even = slice_time(x, 0, None, 2)
        odd = slice_time(x, 1, None, 2)
        npt.assert_array_equal(interleave_time(even, odd).data, x.data)

    @pytest.mark.parametrize("k", [3, 4])
    def test_interleave_k_parts_values(self, k):
        # part j of [0, 1, ..., 6k-1] split k ways holds j, j+k, j+2k, ...
        x = np.arange(6.0 * k).reshape(1, 2, 3 * k)
        out = interleave_time(*(leaf(x[..., j::k]) for j in range(k)))
        npt.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("k", [3, 4])
    def test_interleave_k_parts_gradient(self, k):
        rng = np.random.default_rng(k)
        parts = [leaf(rng.normal(size=(2, 3, 4))) for _ in range(k)]
        probe = Tensor(rng.normal(size=(2, 3, 4 * k)))
        assert finite_diff_check(lambda: sum_all(mul(interleave_time(*parts), probe)), parts) < 1e-6

    def test_concat_and_gradient(self):
        a = leaf(np.array([1.0, 2.0]))
        b = leaf(np.array([3.0, 4.0, 5.0]))
        out = concat_time(a, b)
        npt.assert_array_equal(out.data, [1.0, 2.0, 3.0, 4.0, 5.0])
        with Tape() as tape:
            loss = sum_all(mul(concat_time(a, b), Tensor([1.0, 2.0, 3.0, 4.0, 5.0])))
        backward(loss, tape)
        npt.assert_array_equal(a.grad, [1.0, 2.0])
        npt.assert_array_equal(b.grad, [3.0, 4.0, 5.0])

    def test_empty_slice_rejected(self):
        with pytest.raises(DimensionError):
            slice_time(leaf(np.zeros(4)), 4, 4)


class TestTapeAndBackward:
    def test_gradients_accumulate_across_uses(self):
        x = leaf([1.0, 2.0])
        with Tape() as tape:
            loss = sum_all(add(add(x, x), x))
        backward(loss, tape)
        npt.assert_array_equal(x.grad, [3.0, 3.0])

    def test_diamond_graph(self):
        # loss = sum(x*x + x): gradient 2x + 1
        x = leaf([1.5, -2.0])
        with Tape() as tape:
            loss = sum_all(add(mul(x, x), x))
        backward(loss, tape)
        npt.assert_allclose(x.grad, 2.0 * x.data + 1.0)

    def test_nodes_recorded_in_topological_order(self):
        x = leaf([1.0, 2.0])
        y = leaf([3.0, 4.0])
        with Tape() as tape:
            loss = sum_all(mul(add(x, y), sub(x, y)))
        known = {id(x.slot), id(y.slot)}  # nodes hold gradient slots, not tensors
        for node in tape.nodes:
            for inp in node.inputs:
                assert id(inp) in known
            known.add(id(node.output))
        assert len(tape.nodes) == 4

    def test_nothing_recorded_without_requires_grad(self):
        x = leaf([1.0], requires_grad=False)
        y = leaf([2.0], requires_grad=False)
        with Tape() as tape:
            add(x, y)
        assert tape.nodes == []

    def test_nothing_recorded_without_tape(self):
        x = leaf([1.0, 2.0])
        out = add(x, x)
        assert out.requires_grad is False

    def test_backward_rejects_non_scalar(self):
        x = leaf([1.0, 2.0])
        with Tape() as tape:
            out = add(x, x)
        with pytest.raises(UsageError):
            backward(out, tape)

    def test_backward_rejects_foreign_loss(self):
        x = leaf([1.0])
        with Tape() as tape:
            add(x, x)
        stray = leaf(3.0)
        with pytest.raises(UsageError):
            backward(stray, tape)

    def test_backward_consumes_the_tape(self):
        x = leaf([1.0, 2.0])
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(loss, tape)
        assert tape.nodes == []
        npt.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(UsageError, match="tape was already consumed"):
            backward(loss, tape)
        npt.assert_array_equal(x.grad, [2.0, 4.0])

    def test_mean_all_gradient(self):
        x = leaf(np.ones((2, 5)))
        with Tape() as tape:
            loss = mean_all(x)
        backward(loss, tape)
        npt.assert_allclose(x.grad, np.full((2, 5), 0.1))


class TestTensorBasics:
    def test_rejects_nan_input(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])

    def test_rejects_inf_input(self):
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_item_requires_scalar(self):
        with pytest.raises(UsageError):
            leaf([1.0, 2.0]).item()

    def test_shape_and_size(self):
        t = leaf(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.size == 24


class TestFiniteDiffCheck:
    def test_composite_graph_passes(self):
        from scinet.tensor import tanh

        rng = np.random.default_rng(6)
        x = leaf(rng.normal(size=(2, 3)))
        y = leaf(rng.normal(size=(2, 3)))

        def f():
            return mean_all(mul(tanh(x), exp(mul(y, Tensor(np.full((2, 3), 0.3))))))

        assert finite_diff_check(f, [x, y]) < 1e-6

    def test_detects_wrong_gradient(self):
        # a deliberately broken rule must not pass the checker
        from scinet.tensor import _emit

        x = leaf([0.7, -0.4])

        def bad_square(t):
            return _emit(t.data**2, (t,), lambda g: (g * 3.0 * t.data,))

        def f():
            return sum_all(bad_square(x))

        assert finite_diff_check(f, [x]) > 1e-2

    def test_restores_parameters_and_clears_grads(self):
        x = leaf([1.0, 2.0])
        before = x.data.copy()

        def f():
            return sum_all(mul(x, x))

        finite_diff_check(f, [x])
        npt.assert_array_equal(x.data, before)
        assert x.grad is None


class TestGroupedOps:
    @given(
        groups=st.integers(1, 5), batch=st.integers(1, 3), in_ch=st.integers(1, 4), out_ch=st.integers(1, 4),
        k=st.sampled_from([1, 3, 5]), n=st.integers(1, 12), seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_conv1d_is_separate_calls_bit_for_bit(self, groups, batch, in_ch, out_ch, k, n, seed):
        # group g of a call on x (G, C, n, B) is the one-group call on x[g:g+1], on either kernel
        rng = np.random.default_rng(seed)
        x, w, b = rng.normal(size=(groups, in_ch, n, batch)), rng.normal(size=(groups, out_ch, in_ch, k)), \
            rng.normal(size=(groups, out_ch))
        g = rng.normal(size=(groups, out_ch, n, batch))
        for kernel in KERNELS:
            with conv_kernel(kernel):
                with Tape() as tape:
                    out = conv1d(leaf(x), leaf(w), leaf(b))
                gx, gw, gb = tape.nodes[-1].rule(g)
                for i in range(groups):
                    one = slice(i, i + 1)
                    with Tape() as tape:
                        ref = conv1d(leaf(x[one]), leaf(w[one]), leaf(b[one]))
                    rx, rw, rb = tape.nodes[-1].rule(np.ascontiguousarray(g[one]))
                    assert out.data[one].tobytes() == ref.data.tobytes()
                    assert gx[one].tobytes() == rx.tobytes()
                    assert gw[one].tobytes() == rw.tobytes() and gb[one].tobytes() == rb.tobytes()

    @given(
        groups=st.integers(1, 3), batch=st.integers(1, 3), in_ch=st.integers(1, 3), out_ch=st.integers(1, 3),
        k=st.sampled_from([1, 3, 5, 7]), n=st.integers(1, 10), seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_grouped_conv1d_matches_tap_by_tap_reference(self, groups, batch, in_ch, out_ch, k, n, seed):
        check_conv1d_against_tap_by_tap(groups, batch, in_ch, out_ch, k, n, seed)

    def test_grouped_conv1d_checks_group_counts(self):
        with pytest.raises(DimensionError, match="groups"):  # 2 input groups, 3 kernel groups
            conv1d(leaf(np.zeros((2, 3, 4, 1))), leaf(np.zeros((3, 2, 3, 3))), leaf(np.zeros((3, 2))))
        with pytest.raises(DimensionError, match="groups"):  # a kernel without its group axis
            conv1d(leaf(np.zeros((2, 3, 4, 1))), leaf(np.zeros((2, 3, 3))), leaf(np.zeros(2)))
        with pytest.raises(DimensionError, match="groups"):  # channels are axis 1: (G, C, n, B)
            conv1d(leaf(np.zeros((2, 1, 3, 4))), leaf(np.zeros((2, 2, 3, 3))), leaf(np.zeros((2, 2))))
        with pytest.raises(DimensionError, match="groups"):  # a (batch, channels, time) input
            conv1d(leaf(np.zeros((2, 3, 4))), leaf(np.zeros((1, 2, 3, 3))), leaf(np.zeros((1, 2))))

    @given(layout=_relayouts(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    @example(layout=((2, 3), (0, 1), (6,), (3, 2)), seed=0)  # identity axes: the output must still be a copy
    def test_relayout_values_and_gradient(self, layout, seed):
        split, axes, x_shape, shape = layout
        rng = np.random.default_rng(seed)
        x = leaf(rng.normal(size=x_shape))
        out = relayout(x, split, axes, shape)
        npt.assert_array_equal(out.data, x.data.reshape(split).transpose(axes).reshape(shape))
        assert out.data.flags["C_CONTIGUOUS"] and not np.shares_memory(out.data, x.data)
        # a pure move, so the gradient is the probe moved back exactly: out's element k came from x's
        # element at flat index source[k]
        source = np.arange(x.size).reshape(split).transpose(axes).ravel()
        probe = rng.normal(size=out.shape)
        with Tape() as tape:
            loss = sum_all(mul(relayout(x, split, axes, shape), Tensor(probe)))
        backward(loss, tape)
        expected = np.empty(x.size)
        expected[source] = probe.ravel()
        npt.assert_array_equal(x.grad, expected.reshape(x_shape))

    def test_gather_groups_values_and_gradient(self):
        rng = np.random.default_rng(0)
        a, b = leaf(rng.normal(size=(1, 2, 3, 4))), leaf(rng.normal(size=(1, 2, 3, 4)))  # each one group
        c = leaf(rng.normal(size=(2, 2, 3, 4)))
        out = gather_groups((a, b, c), [3, 0, 2, 1])
        npt.assert_array_equal(out.data, np.stack([c.data[1], a.data[0], c.data[0], b.data[0]]))
        probe = leaf(rng.normal(size=(4, 2, 3, 4)), requires_grad=False)
        assert finite_diff_check(lambda: sum_all(mul(gather_groups((a, b, c), [3, 0, 2, 1]), probe)),
                                 [a, b, c]) < 1e-6

    def test_gather_groups_repeated_part_adds_gradients(self):
        w = leaf(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = sum_all(mul(gather_groups((w, w)), leaf(np.arange(12.0).reshape(4, 3), requires_grad=False)))
        backward(loss, tape)
        npt.assert_array_equal(w.grad, np.arange(6.0).reshape(2, 3) + np.arange(6.0, 12.0).reshape(2, 3))

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_realign_of_stacked_leaves_matches_the_list(self, levels):
        parts = np.random.default_rng(levels).normal(size=(1 << levels, 2, 3, 2))
        stacked = realign(leaf(parts))
        order = [int(f"{j:0{levels}b}"[::-1], 2) for j in range(1 << levels)]  # leaf i ends at its bit reversal
        npt.assert_array_equal(stacked.data, interleave_time(*(leaf(parts[i]) for i in order)).data)
        probe = leaf(np.random.default_rng(9).normal(size=stacked.shape), requires_grad=False)
        t = leaf(parts)
        assert finite_diff_check(lambda: sum_all(mul(realign(t), probe)), [t]) < 1e-6


@given(
    x=st.lists(st.sampled_from([-2.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 3.0]), min_size=1, max_size=20),
    slope=st.sampled_from([0.0, 0.01, 0.3, 1.0, 2.0, -0.5]),
)
@settings(max_examples=80, deadline=None)
def test_leaky_relu_is_the_masked_select_bit_for_bit(x, slope):
    xd = np.array(x)
    g = np.linspace(-1.0, 1.0, xd.size)
    t = leaf(xd)
    with Tape() as tape:
        out = leaky_relu(t, slope)
    assert out.data.tobytes() == np.where(xd >= 0.0, xd, slope * xd).tobytes()
    (gx,) = tape.nodes[-1].rule(g)
    assert gx.tobytes() == (g * np.where(xd >= 0.0, 1.0, slope)).tobytes()


def test_masked_scale_is_the_float_mask_product_bit_for_bit():
    # dropout's (x * keep) * scale and its rule's (g * keep) * scale equal products with the float mask
    # keep * scale, signed zeros included
    rng = np.random.default_rng(3)
    xd, g = rng.normal(size=(4, 50)), rng.normal(size=(4, 50))
    xd[0, :4], g[1, :4] = [-0.0, 0.0, -1e-300, 1e-300], [-0.0, 0.0, -1e-300, 1e-300]
    for p in (0.1, 0.5, 0.7):
        keep = rng.random(xd.shape) >= p
        with Tape() as tape:
            out = masked_scale(leaf(xd), keep, 1.0 / (1.0 - p))
        factor = np.multiply(keep, 1.0 / (1.0 - p))
        assert out.data.tobytes() == (xd * factor).tobytes()
        assert tape.nodes[-1].rule(g)[0].tobytes() == (g * factor).tobytes()


def _saved_arrays(rule) -> list:
    """The arrays a backward rule's closure holds, looking through nested closures, tuples and lists, less
    the cached read-only index arrays that every call shares."""
    saved, stack = [], [rule]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            if obj.flags.writeable:
                saved.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return saved


_A, _B = np.array([[1.5, -2.0, -0.0, 25.0]]), np.array([[0.5, 3.0, -1.0, -0.25]])
_KEEP = np.array([[True, False, True, False]])
# op -> (call on leaves a, b taking gradients and constant c, what its rule may keep): a bool array stands
# for a mask of that value, any other array for that very array
RULE_KEEPS = {
    "add": (lambda a, b, c: add(a, b), lambda a, b, c, out: []),
    "sub": (lambda a, b, c: sub(a, b), lambda a, b, c, out: []),
    "mul": (lambda a, b, c: mul(a, b), lambda a, b, c, out: [a.data, b.data]),
    "mul by a constant": (lambda a, b, c: mul(a, c), lambda a, b, c, out: [c.data]),
    "mul of a constant": (lambda a, b, c: mul(c, b), lambda a, b, c, out: [c.data]),
    "exp": (lambda a, b, c: exp(a), lambda a, b, c, out: [out.data, np.abs(a.data) < EXP_CLAMP]),
    "tanh": (lambda a, b, c: tanh(a), lambda a, b, c, out: [out.data]),
    "leaky_relu": (lambda a, b, c: leaky_relu(a, 0.01), lambda a, b, c, out: [a.data >= 0.0]),
    "leaky_relu, slope > 1": (lambda a, b, c: leaky_relu(a, 2.0), lambda a, b, c, out: [a.data >= 0.0]),
    "masked_scale": (lambda a, b, c: masked_scale(a, _KEEP, 2.0), lambda a, b, c, out: [_KEEP]),
    "linear": (lambda a, b, c: linear(a, b, leaf([0.0])), lambda a, b, c, out: [a.data, b.data]),
    "abs_": (lambda a, b, c: abs_(a), lambda a, b, c, out: [a.data]),
    "slice_time": (lambda a, b, c: slice_time(a, 1, None, 2), lambda a, b, c, out: []),
    "interleave_time": (lambda a, b, c: interleave_time(a, b), lambda a, b, c, out: []),
    "concat_time": (lambda a, b, c: concat_time(a, b), lambda a, b, c, out: []),
    "gather_groups": (lambda a, b, c: gather_groups((a, b), [1, 0]), lambda a, b, c, out: []),
    "relayout": (lambda a, b, c: relayout(a, (2, 2), (1, 0), (4,)), lambda a, b, c, out: []),
    "sum_all": (lambda a, b, c: sum_all(a), lambda a, b, c, out: []),
    "mean_all": (lambda a, b, c: mean_all(a), lambda a, b, c, out: []),
}


@pytest.mark.parametrize("op", RULE_KEEPS)
def test_rule_keeps_only_the_arrays_its_formula_reads(op):
    # conv1d's rule is checked in TestConv1d; a sign or a clamp test is kept as a bool mask
    call, expected = RULE_KEEPS[op]
    a, b, c = leaf(_A), leaf(_B), leaf(_B, requires_grad=False)
    with Tape() as tape:
        out = call(a, b, c)
    saved, want = _saved_arrays(tape.nodes[-1].rule), expected(a, b, c, out)
    assert len(saved) == len(want), op
    for w in want:
        if w.dtype == bool:
            assert any(s.dtype == bool and np.array_equal(s, w) for s in saved), op
        else:
            assert any(s is w for s in saved), op


@pytest.mark.parametrize("op", [name for name in RULE_KEEPS if name not in ("mul", "mul of a constant", "linear", "abs_")])
def test_intermediate_no_rule_reads_is_freed(op):
    # the tape holds gradient slots, so once the caller drops h nothing keeps its array alive
    call, _ = RULE_KEEPS[op]
    a, b, c = leaf(_A), leaf(_B), leaf(_B, requires_grad=False)
    with Tape() as tape:
        h = add(a, b)
        h_data = weakref.ref(h.data)
        loss = sum_all(call(h, b, c))
        del h
    assert h_data() is None, op
    backward(loss, tape)
    assert a.grad is not None and a.grad.shape == _A.shape


# the tape counter the A/B scripts share, so this test and scripts/step_ab.py count alike
_trees_spec = importlib.util.spec_from_file_location("trees", Path(__file__).resolve().parents[1] / "scripts/trees.py")
trees = importlib.util.module_from_spec(_trees_spec)
_trees_spec.loader.exec_module(trees)


def test_train_narrow_step_tape_holds_at_most_3_5_mb():
    # a batch-32 training step of train_narrow's model (3 variates, levels 4, stacks 2, look-back 48):
    # 8.3 MB when nodes held tensors and rules kept float masks and unread operands
    net = build_model(ModelConfig(look_back=48, horizon=24, n_variates=3, levels=4, stacks=2, dropout=0.5))
    rng = np.random.default_rng(0)
    x, y = Tensor(rng.normal(size=(32, 3, 48))), Tensor(rng.normal(size=(32, 3, 24)))
    with Tape() as tape:
        total, _ = compute_loss(net.forward(x, training=True, rng=rng), y)
    assert trees.tape_bytes(tape, net.parameters()) <= 3.5e6
    backward(total, tape)
