"""Dense float64 tensors with taped reverse-mode automatic differentiation.

Conventions fixed across the package:

* no implicit broadcasting: elementwise operands must match shapes exactly
* conv1d is a cross-correlation (kernels are not flipped) with replication
  padding, so output length equals input length; short rows multiply by one
  banded matrix per group, longer rows gather their taps through one cached
  clamped index (im2col), and the backward rule keeps nothing but the
  input's and kernel's own arrays
* conv1d takes one layout only, grouped and batch innermost: x (groups,
  channels, time, batch) with one kernel per group, so every tap gather
  moves whole batch rows and each group is one matrix product; a single
  convolution is a call with one group
* inputs to exp are clamped to [-20, 20] and the gradient is zero outside
  the clamp
* a Tape records operations in execution order, which is already a valid
  topological order, so a single reverse sweep propagates every gradient;
  the sweep consumes the tape, popping each node and freeing what its rule
  saved once the rule has run, so a tape supports one backward
* a node holds gradient slots (grad, requires_grad, shape), never tensors,
  and its rule saves only the arrays its formula reads (a bool mask for a
  sign or a clamp test), so an array no rule reads is freed with its tensor
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError

EXP_CLAMP = 20.0
CONV_BAND_MAX = 84  # conv1d multiplies by one banded matrix per group where n * max(in_ch, out_ch) <= this


class _Slot:
    """What the tape keeps of a tensor: its gradient, whether it takes one, and its shape."""

    __slots__ = ("grad", "requires_grad", "shape")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool = True):
        self.grad, self.requires_grad, self.shape = None, requires_grad, shape


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    ``data`` is always C-contiguous float64. ``grad`` is filled in by
    ``backward`` and holds the same shape as ``data``; a value of None means
    "no gradient accumulated yet". Both live in the gradient ``slot``, all the
    tape holds of a tensor, which is made when first needed. Operations never
    mutate their inputs' data arrays.
    """

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            idx = int(np.flatnonzero(~np.isfinite(np.ravel(arr)))[0])
            raise NumericError(f"non-finite value at flat index {idx} in tensor input")
        self.data = arr
        self._slot = _Slot(arr.shape) if requires_grad else None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Fast path for op outputs: skips the finite scan. exp and the
        # training loop re-check explicitly at the points where non-finite
        # values can actually be produced.
        t = object.__new__(cls)
        t.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        t._slot = _Slot(arr.shape) if requires_grad else None
        return t

    @property
    def slot(self) -> _Slot:
        if self._slot is None:
            self._slot = _Slot(self.data.shape, False)
        return self._slot

    requires_grad = property(lambda self: self._slot is not None and self._slot.requires_grad)
    grad = property(lambda self: None if self._slot is None else self._slot.grad,
                    lambda self, value: setattr(self.slot, "grad", value))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "rule")

    def __init__(self, inputs: tuple[_Slot, ...], output: _Slot, rule):
        self.inputs = inputs
        self.output = output
        self.rule = rule


class Tape:
    """Execution-ordered record of differentiable operations.

    Used as a context manager; ops record themselves onto the innermost
    active tape whenever an input requires a gradient. Because nodes are
    appended in the order they execute, every node's operands precede it,
    and one reverse iteration is a complete backward pass. ``backward``
    consumes the tape: it leaves ``nodes`` empty and sets ``consumed``.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STACK.pop()
        return False


_STACK: list[Tape] = []


def _taped(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` records a node: a tape is active and some input takes a gradient."""
    return bool(_STACK) and any(t.requires_grad for t in inputs)


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], rule) -> Tensor:
    track = _taped(inputs)
    out = Tensor._wrap(out_data, track)
    if track:
        _STACK[-1].nodes.append(_Node(tuple([t.slot for t in inputs]), out._slot, rule))
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    # each operand's gradient reads the other operand: keep only those, no product for a constant operand
    for_a, for_b = (bd if a.requires_grad else None), (ad if b.requires_grad else None)

    def rule(g):
        return (None if for_a is None else g * for_a), (None if for_b is None else g * for_b)

    return _emit(ad * bd, (a, b), rule)


def masked_scale(x: Tensor, keep: np.ndarray, scale: float) -> Tensor:
    """(x * keep) * scale for a constant bool mask ``keep`` of x's shape, such as a dropout mask. The rule
    keeps only ``keep`` and returns (g * keep) * scale; as keep is 0 or 1, both equal a product with the
    float mask keep * scale bit for bit."""
    out = x.data * keep
    out *= scale
    return _emit(out, (x,), lambda g: (g * keep * scale,))


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential with input clamped to [-EXP_CLAMP, EXP_CLAMP].

    Outside the clamp the output is constant, so its gradient there is zero.
    The model's only call reads a ``tanh`` output, which lies in [-1, 1], so
    the clamp never binds there; it guards other callers.
    """
    xd = x.data
    out = np.exp(np.clip(xd, -EXP_CLAMP, EXP_CLAMP))
    if not math.isfinite(out.sum()):  # at most e^20 per entry, so only a NaN makes the sum non-finite
        idx = int(np.flatnonzero(~np.isfinite(np.ravel(out)))[0])
        raise NumericError(f"exp produced a non-finite value at flat index {idx}")
    inside = np.abs(xd) < EXP_CLAMP if _taped((x,)) else None  # only the rule reads the clamp test
    return _emit(out, (x,), lambda g: (g * out * inside,))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit(out, (x,), lambda g: (g * (1.0 - out * out),))


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    xd = x.data
    nonneg = xd >= 0.0 if _taped((x,)) or not 0.0 <= slope <= 1.0 else None  # x's sign, all the rule reads
    if not 0.0 <= slope <= 1.0:
        return _emit(np.where(nonneg, xd, slope * xd), (x,), lambda g: (g * np.where(nonneg, 1.0, slope),))

    # for 0 <= slope <= 1 neither direction needs a masked select: max(x, slope*x) is x exactly where
    # x >= 0 (signed zeros included) and slope*x elsewhere, and (x >= 0)*(1 - slope) + slope is exactly
    # 1 or slope, because fl(fl(1 - slope) + slope) = 1 on [0, 1]
    def rule(g):
        factor = nonneg * (1.0 - slope)
        factor += slope
        factor *= g
        return (factor,)

    return _emit(np.maximum(xd, slope * xd), (x,), rule)


@functools.lru_cache(maxsize=64)
def _taps(n: int, k: int) -> np.ndarray:
    """Read-only index, at j*n + t, of the sample clip(t + j - (k-1)/2, 0, n-1), the replication
    padding, that conv1d's tap j reads at time t. It is in range, so gathers use mode="clip" and
    skip the raising check."""
    index = np.clip(np.arange(k)[:, None] + np.arange(n) - (k - 1) // 2, 0, n - 1).ravel()
    index.flags.writeable = False
    return index


def _cols(x: np.ndarray, k: int) -> np.ndarray:
    """im2col of one group's x (in_ch, n, batch): (in_ch*k, n*batch), row c*k + j holding tap j of channel
    c, x[c, clip(t+j-pad, 0, n-1), :], at columns t*batch .. t*batch + batch - 1. One gather along time
    through the cached tap index, so each copy moves a whole batch row."""
    in_ch, n, batch = x.shape
    return np.take(x, _taps(n, k), axis=1, mode="clip").reshape(in_ch * k, n * batch)


@functools.lru_cache(maxsize=64)
def _band_taps(n: int, k: int) -> np.ndarray:
    """Read-only 0/1 matrix (k, n*n) whose entry (j, t*n + s) is 1 where tap j reads sample s at time t."""
    band = (_taps(n, k).reshape(k, n, 1) == np.arange(n)).reshape(k, n * n).astype(np.float64)
    band.flags.writeable = False
    return band


def _band(wd: np.ndarray, n: int) -> np.ndarray:
    """w (G, out_ch, in_ch, k) as one banded matrix (out_ch*n, in_ch*n) per group on rows of n samples:
    entry (o*n + t, c*n + s) sums w[o, c, j] over the taps j that read sample s at time t."""
    groups, out_ch, in_ch, k = wd.shape
    band = np.matmul(wd.reshape(groups, out_ch * in_ch, k), _band_taps(n, k)).reshape(groups, out_ch, in_ch, n, n)
    return band.transpose(0, 1, 3, 2, 4).reshape(groups, out_ch * n, in_ch * n)


def _banded(n: int, in_ch: int, out_ch: int) -> bool:
    """Whether conv1d takes the banded kernel, from per-group sizes only."""
    return n * max(in_ch, out_ch) <= CONV_BAND_MAX


@functools.lru_cache(maxsize=64)
def _adjoint_taps(n: int, k: int) -> np.ndarray:
    """Read-only index, at j*n + s, into the output gradient extended along time (``_extend``) of the
    sum of g[t] over every t whose tap j reads sample s, the transpose of ``_taps``. That set of t is
    one range: a single sample inside the series, a prefix of g at s = 0 and a suffix at s = n-1,
    which the clamp collects, or no sample at all (the zero at the end)."""
    pad, s = (k - 1) // 2, np.arange(n)
    t = s - np.arange(k)[:, None] + pad  # the one t whose tap j reads s, before the clamp
    first = np.where(s == 0, 0, np.maximum(t, 0))
    last = np.where(s == n - 1, n - 1, np.minimum(t, n - 1))
    # no sample, one sample, a prefix sum, else a suffix sum
    index = np.select([first > last, first == last, first == 0], [n + 2 * pad + 2, first, n + last],
                      2 * n + pad - first).ravel()
    index.flags.writeable = False
    return index


def _extend(g: np.ndarray, pad: int) -> np.ndarray:
    """One group's g (C, n, batch) extended along time to n + 2*pad + 3 samples: g itself, pad+1 slots
    holding the prefix sums g[0] + ... + g[m], pad+1 holding the suffix sums g[n-1-m] + ... + g[n-1],
    then one zero sample. Sums reach at most the whole series (m < n); ``_adjoint_taps`` reads no slot
    past that, so those are left unset. The sums are explicit adds of whole (C, batch) slices, which
    keeps the batch rows contiguous."""
    n = g.shape[1]
    ext = np.empty((g.shape[0], n + 2 * pad + 3) + g.shape[2:])
    ext[:, :n] = g
    for base, first, step in ((n, 0, 1), (n + pad + 1, n - 1, -1)):
        ext[:, base] = g[:, first]
        for m in range(1, min(pad, n - 1) + 1):
            np.add(ext[:, base + m - 1], g[:, first + step * m], out=ext[:, base + m])
    ext[:, -1] = 0.0
    return ext


def _conv1d_grads(g: np.ndarray, xd: np.ndarray, wd: np.ndarray, with_input: bool = True):
    """Input, kernel and bias gradients of conv1d, x (G, in_ch, n, batch), for its output gradient g;
    the input gradient is None unless ``with_input``.

    On the banded kernel, per group, the input gradient is band^T @ g and the kernel gradient g @ x^T
    folded onto the taps through ``_band_taps``. On im2col, per group, one gather through the cached
    ``_adjoint_taps`` index builds the adjoint im2col of g, gcols (out_ch*k, n*batch), whose row
    o*k + j holds at sample s the sum of g[o, t] over every t whose tap j reads s. Both gradients are
    then one GEMM each with no fold over the taps: the input gradient is w2T (in_ch, out_ch*k) @ gcols
    and the kernel gradient gcols @ x2T, in (out_ch, k, in_ch) order. Each group writes into the
    preallocated results.
    """
    (groups, out_ch, in_ch, k), (_, _, n, batch) = wd.shape, xd.shape
    if _banded(n, in_ch, out_ch):
        g2 = g.reshape(groups, out_ch * n, batch)
        gx = np.matmul(_band(wd, n).transpose(0, 2, 1), g2).reshape(xd.shape) if with_input else None
        per_entry = np.matmul(g2, xd.reshape(groups, in_ch * n, batch).transpose(0, 2, 1))
        per_entry = per_entry.reshape(groups, out_ch, n, in_ch, n).transpose(0, 1, 3, 2, 4)
        gw = np.matmul(per_entry.reshape(groups, out_ch * in_ch, n * n), _band_taps(n, k).T)
        return gx, gw.reshape(wd.shape), g.sum(axis=(2, 3))
    gx, gw = (np.empty_like(xd) if with_input else None), np.empty_like(wd)
    for at in range(groups):
        gcols = np.take(_extend(g[at], (k - 1) // 2), _adjoint_taps(n, k), axis=1, mode="clip")
        gcols = gcols.reshape(out_ch * k, n * batch)
        per_row = gcols @ xd[at].reshape(in_ch, n * batch).T
        gw[at] = per_row.reshape(out_ch, k, in_ch).transpose(0, 2, 1)
        if with_input:
            np.matmul(wd[at].transpose(1, 0, 2).reshape(in_ch, out_ch * k), gcols, out=gx[at].reshape(in_ch, n * batch))
    return gx, gw, g.sum(axis=(2, 3))


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Grouped, length-preserving 1-D cross-correlation over the time axis, with replication padding.

    x (G, in_ch, n, batch), batch innermost, w (G, out_ch, in_ch, k) with k odd and b (G, out_ch)
    give out (G, out_ch, n, batch); group g convolves x[g] with w[g] and b[g]. With pad = (k-1)/2,
    out[g, o, t] = sum_{c,j} w[g,o,c,j] * x[g, c, clip(t+j-pad, 0, n-1)] + b[g, o].

    The kernel is picked from per-group sizes only (``_banded``), so a group's bits equal a one-group
    call's. Short rows fold w and the padding into one banded matrix per group (``_band``): out = band
    @ x.reshape(in_ch*n, batch) + b. Longer rows run im2col: one gather through the cached clamped tap
    index (``_taps``) builds cols (in_ch*k, n*batch) in the row order of w.reshape(out_ch, in_ch*k),
    so out = w2 @ cols + b, one GEMM per group.
    The backward rule keeps only x's and w's own arrays, so the tape holds no conv1d buffer, and
    builds both gradients on the forward's kernel (``_conv1d_grads``); when x takes no gradient, the
    rule skips its product.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 4 or wd.ndim != 4 or wd.shape[:1] + wd.shape[2:3] != xd.shape[:2] or bd.shape != wd.shape[:2]:
        raise DimensionError(f"conv1d: needs x (groups, in_ch, time, batch), w (groups, out_ch, in_ch, k) and "
                             f"b (groups, out_ch), got {xd.shape}, {wd.shape} and {bd.shape}")
    groups, out_ch, in_ch, k = wd.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d: kernel size must be odd, got {k}")
    _, _, n, batch = xd.shape
    if _banded(n, in_ch, out_ch):
        out = np.matmul(_band(wd, n), xd.reshape(groups, in_ch * n, batch)).reshape(groups, out_ch, n, batch)
    else:
        out = np.empty((groups, out_ch, n, batch))
        for at in range(groups):
            np.matmul(wd[at].reshape(out_ch, in_ch * k), _cols(xd[at], k), out=out[at].reshape(out_ch, n * batch))
    out += bd[:, :, None, None]

    def rule(g):
        return _conv1d_grads(g, xd, wd)

    def rule_without_input(g):  # x takes no gradient (the tree's input), so no input-gradient GEMM
        return _conv1d_grads(g, xd, wd, with_input=False)

    return _emit(out, (x, w, b), rule if x.requires_grad else rule_without_input)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map along the last axis: out[..., i] = sum_j x[..., j] w[i, j] + b[i].

    All leading axes are treated as batch axes. The weight is shared across
    them, so its gradient sums over every leading position.
    """
    xd, wd, bd = x.data, w.data, b.data
    if wd.ndim != 2 or bd.ndim != 1:
        raise DimensionError(f"linear: weight must be 2-d and bias 1-d, got {wd.shape} and {bd.shape}")
    n_out, n_in = wd.shape
    if xd.ndim < 1 or xd.shape[-1] != n_in:
        raise DimensionError(f"linear: input last axis is {xd.shape[-1:]}, weight expects {n_in}")
    if bd.shape[0] != n_out:
        raise DimensionError(f"linear: bias has {bd.shape[0]} entries, weight yields {n_out}")
    out = xd @ wd.T + bd

    def rule(g):
        g2 = g.reshape(-1, n_out)
        x2 = xd.reshape(-1, n_in)
        return g @ wd, g2.T @ x2, g2.sum(axis=0)

    return _emit(out, (x, w, b), rule)


def slice_time(x: Tensor, start: int, stop: int | None = None, step: int = 1) -> Tensor:
    """Slice the last axis. The gradient scatters back into zeros."""
    if step < 1:
        raise UsageError(f"slice_time: step must be positive, got {step}")
    shape, sl = x.data.shape, slice(start, stop, step)
    out = np.ascontiguousarray(x.data[..., sl])
    if out.shape[-1] == 0:
        raise DimensionError(f"slice_time: slice [{start}:{stop}:{step}] of length {shape[-1]} is empty")

    def rule(g):
        gx = np.zeros(shape)
        gx[..., sl] = g
        return (gx,)

    return _emit(out, (x,), rule)


def interleave_time(*parts: Tensor) -> Tensor:
    """Merge k equal-shape tensors so part j lands at indices j, j+k, j+2k, ... of the last axis."""
    for p in parts[1:]:
        _same_shape(parts[0], p, "interleave_time")
    k = len(parts)
    out = np.stack([p.data for p in parts], axis=-1).reshape(parts[0].data.shape[:-1] + (-1,))

    def rule(g):
        return tuple(np.ascontiguousarray(g[..., j::k]) for j in range(k))

    return _emit(out, parts, rule)


@functools.lru_cache(maxsize=64)
def _inverse(order: tuple[int, ...]) -> np.ndarray:
    """Read-only inverse of the permutation ``order``: ``order``'s rows or axes, moved back."""
    back = np.argsort(order)
    back.flags.writeable = False
    return back


def gather_groups(parts: Sequence[Tensor], order: Sequence[int] | None = None) -> Tensor:
    """Concatenate ``parts`` along their leading (group) axis, then put its rows in ``order``.

    ``order`` is a permutation of the concatenated rows (None keeps them as they are). A tensor may
    appear among the parts more than once; its gradients then add.
    """
    datas = [p.data for p in parts]
    for d in datas[1:]:
        if d.shape[1:] != datas[0].shape[1:]:
            raise DimensionError(f"gather_groups: group shapes differ, {datas[0].shape[1:]} vs {d.shape[1:]}")
    cat = datas[0] if len(datas) == 1 else np.concatenate(datas)
    out = cat.copy() if order is None else np.take(cat, order, axis=0)
    bounds = [0, *itertools.accumulate(d.shape[0] for d in datas)]

    def rule(g):
        if order is not None:
            g = np.take(g, _inverse(tuple(order)), axis=0)
        return tuple(g[a:b] for a, b in zip(bounds, bounds[1:]))

    return _emit(out, tuple(parts), rule)


def relayout(x: Tensor, split: Sequence[int], axes: Sequence[int], shape: Sequence[int]) -> Tensor:
    """``x.data.reshape(split).transpose(axes).reshape(shape)`` as a fresh array, never a view of x's data
    (not even for identity ``axes``). The rule moves the gradient back through the inverse permutation."""
    moved = x.data.reshape(split).transpose(axes)
    moved_shape, back, x_shape = moved.shape, _inverse(tuple(axes)), x.data.shape

    def rule(g):
        return (g.reshape(moved_shape).transpose(back).reshape(x_shape),)

    return _emit(moved.copy().reshape(shape), (x,), rule)  # copy() is in C order, so the reshape is a view of it


def concat_time(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; all other axes must match."""
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise DimensionError(f"concat_time: leading shapes differ, {a.data.shape} vs {b.data.shape}")
    na = a.data.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def rule(g):
        return np.ascontiguousarray(g[..., :na]), np.ascontiguousarray(g[..., na:])

    return _emit(out, (a, b), rule)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())
    shape = x.data.shape
    return _emit(out, (x,), lambda g: (np.full(shape, float(g)),))


def mean_all(x: Tensor) -> Tensor:
    size = x.data.size
    out = np.asarray(x.data.mean())
    shape = x.data.shape
    return _emit(out, (x,), lambda g: (np.full(shape, float(g) / size),))


def abs_(x: Tensor) -> Tensor:
    # the subgradient at exactly zero is taken as zero
    xd = x.data
    return _emit(np.abs(xd), (x,), lambda g: (g * np.sign(xd),))


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every tensor recorded on the tape.

    The sweep consumes the tape: each node is popped off ``tape.nodes`` before
    its rule runs, so the arrays the rule saved are freed as soon as it has
    run, and a second ``backward`` on the same tape raises ``UsageError``.
    Gradients add across multiple uses of the same tensor. Backward rules may
    return views or aliases of upstream gradient arrays, so consumers must
    never mutate a ``grad`` array in place; replace it instead.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if tape.consumed:
        raise UsageError("backward: this tape was already consumed by an earlier backward; record a new one")
    if not any(node.output is loss._slot for node in reversed(tape.nodes)):
        raise UsageError("backward: loss was not produced on this tape")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        g = node.output.grad
        if g is None:
            continue
        grads = node.rule(g)
        for inp, gi in zip(node.inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            inp.grad = gi if inp.grad is None else inp.grad + gi


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-6,
) -> float:
    """Compare taped gradients of ``f`` against central finite differences.

    ``f`` must be a deterministic closure over ``params`` returning a scalar.
    Every element of every param is perturbed by +-h in turn (and restored),
    so ``f`` is evaluated 2 * total_param_count times, untaped. Returns the
    worst relative error max(|a - n|) / max(|a|, |n|, 1e-8); any non-finite
    gradient makes the result inf.
    """
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    analytic = []
    for p in params:
        analytic.append(np.zeros_like(p.data) if p.grad is None else np.array(p.grad))
        p.grad = None
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.ravel()
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * h)
        a = a.ravel()
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(numeric))):
            return math.inf
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - numeric) / denom)))
    return worst
