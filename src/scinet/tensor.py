"""Dense float64 tensors with taped reverse-mode automatic differentiation.

Conventions fixed across the package:

* no implicit broadcasting: elementwise operands must match shapes exactly
* conv1d is a cross-correlation (kernels are not flipped) with replication
  padding, so output length equals input length; it reads its taps through
  one cached clamped index, so no padded copy of the input exists, and its
  backward rule keeps nothing but the input's and kernel's own arrays
* conv1d's grouped form runs one kernel per group in one call on
  (groups, channels, time, batch), batch innermost, so every tap gather
  moves whole batch rows and each group is one matrix product; a plain
  (batch, channels, time) call is one group of it
* inputs to exp are clamped to [-20, 20] and the gradient is zero outside
  the clamp
* a Tape records operations in execution order, which is already a valid
  topological order, so a single reverse sweep propagates every gradient;
  the sweep consumes the tape, popping each node and freeing what its rule
  saved once the rule has run, so a tape supports one backward
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError

EXP_CLAMP = 20.0
CONV_CHUNK_BYTES = 512 * 1024  # bound on the largest temporary of one chunk of conv1d groups


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    ``data`` is always C-contiguous float64. ``grad`` is filled in by
    ``backward`` and holds the same shape as ``data``; a value of None means
    "no gradient accumulated yet". Operations never mutate their inputs'
    data arrays.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            idx = int(np.flatnonzero(~np.isfinite(np.ravel(arr)))[0])
            raise NumericError(f"non-finite value at flat index {idx} in tensor input")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Fast path for op outputs: skips the finite scan. exp and the
        # training loop re-check explicitly at the points where non-finite
        # values can actually be produced.
        t = object.__new__(cls)
        t.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        t.requires_grad = requires_grad
        t.grad = None
        return t

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

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "rule")

    def __init__(self, inputs, output, rule):
        self.inputs = inputs
        self.output = output
        self.rule = rule


class Tape:
    """Execution-ordered record of differentiable operations.

    Used as a context manager; ops record themselves onto the innermost
    active tape whenever an input requires a gradient. Because nodes are
    appended in the order they execute, every node's operands precede it,
    and one reverse iteration is a complete backward pass. ``backward``
    consumes the tape: it leaves ``nodes`` empty.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._output_ids: set[int] = set()

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STACK.pop()
        return False

    def _record(self, inputs: tuple[Tensor, ...], output: Tensor, rule) -> None:
        self.nodes.append(_Node(inputs, output, rule))
        self._output_ids.add(id(output))

    def produced(self, t: Tensor) -> bool:
        return id(t) in self._output_ids


_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _STACK[-1] if _STACK else None


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], rule) -> Tensor:
    tape = active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, track)
    if track:
        tape._record(inputs, out, rule)
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

    def rule(g):  # no product for a constant operand, such as a dropout mask
        return (g * bd if a.requires_grad else None), (g * ad if b.requires_grad else None)

    return _emit(ad * bd, (a, b), rule)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential with input clamped to [-EXP_CLAMP, EXP_CLAMP].

    Outside the clamp the output is constant, so its gradient there is zero.
    """
    xd = x.data
    out = np.exp(np.clip(xd, -EXP_CLAMP, EXP_CLAMP))
    if not np.all(np.isfinite(out)):
        idx = int(np.flatnonzero(~np.isfinite(np.ravel(out)))[0])
        raise NumericError(f"exp produced a non-finite value at flat index {idx}")
    return _emit(out, (x,), lambda g: (g * out * (np.abs(xd) < EXP_CLAMP),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit(out, (x,), lambda g: (g * (1.0 - out * out),))


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    xd = x.data
    # for 0 <= slope <= 1, max(x, slope*x) is x exactly where x >= 0 (signed zeros included)
    # and slope*x elsewhere, without a masked select
    out = np.maximum(xd, slope * xd) if 0.0 <= slope <= 1.0 else np.where(xd >= 0.0, xd, slope * xd)
    return _emit(out, (x,), lambda g: (g * np.where(xd >= 0.0, 1.0, slope),))


@functools.lru_cache(maxsize=64)
def _taps(n: int, k: int) -> np.ndarray:
    """Read-only index, at j*n + t, of the sample clip(t + j - (k-1)/2, 0, n-1), the replication
    padding, that conv1d's tap j reads at time t. It is in range, so gathers use mode="clip" and
    skip the raising check."""
    index = np.clip(np.arange(k)[:, None] + np.arange(n) - (k - 1) // 2, 0, n - 1).ravel()
    index.flags.writeable = False
    return index


def _group_chunks(groups: int, per_group: int):
    """Slices of consecutive groups whose largest temporary, ``per_group`` doubles per group, fits
    CONV_CHUNK_BYTES (at least one group per slice)."""
    step = max(1, CONV_CHUNK_BYTES // (8 * per_group))
    return [slice(at, at + step) for at in range(0, groups, step)]


def _cols(x: np.ndarray, k: int) -> np.ndarray:
    """im2col of x (G, in_ch, n, batch): (G, in_ch*k, n*batch), row c*k + j holding tap j of channel c,
    x[:, c, clip(t+j-pad, 0, n-1), :], at columns t*batch .. t*batch + batch - 1. One gather along
    time through the cached tap index, so each copy moves a whole batch row."""
    groups, in_ch, n, batch = x.shape
    return np.take(x, _taps(n, k), axis=2, mode="clip").reshape(groups, in_ch * k, n * batch)


def _conv1d_grads(g: np.ndarray, xd: np.ndarray, wd: np.ndarray):
    """Input, kernel and bias gradients of grouped conv1d, x (G, in_ch, n, batch), for its output gradient g.

    Per group, g2 = g.reshape(out_ch, n*batch) is a view. The kernel gradient is g2 @ colsT, already
    in the kernel's (out_ch, in_ch, k) order. The input gradient is w2T @ g2, one (in_ch, n, batch)
    block per tap, added tap by tap into the range it read on a buffer with pad extra samples per
    side, whose ends then fold onto the edge samples they clamp to. Each chunk of groups writes into
    the preallocated results.
    """
    (groups, out_ch, in_ch, k), (_, _, n, batch) = wd.shape, xd.shape
    pad = (k - 1) // 2
    gx, gw = np.empty_like(xd), np.empty_like(wd)
    for at in _group_chunks(groups, batch * n * k * max(in_ch, out_ch)):
        g2 = g[at].reshape(-1, out_ch, n * batch)
        w2 = wd[at].reshape(-1, out_ch, in_ch * k)
        np.matmul(g2, _cols(xd[at], k).transpose(0, 2, 1), out=gw[at].reshape(w2.shape))
        per_tap = np.matmul(w2.transpose(0, 2, 1), g2).reshape(-1, in_ch, k, n, batch)
        gp = np.empty((per_tap.shape[0], in_ch, n + 2 * pad, batch))  # the first tap fills it, so no zeroing pass
        gp[:, :, :n] = per_tap[:, :, 0]
        gp[:, :, n:] = 0.0
        for j in range(1, k):
            gp[:, :, j:j + n] += per_tap[:, :, j]
        del per_tap
        gx[at] = gp[:, :, pad:pad + n]
        if pad:
            gx[at, :, 0] += gp[:, :, :pad].sum(axis=2)
            gx[at, :, -1] += gp[:, :, pad + n:].sum(axis=2)
    return gx, gw, g.sum(axis=(2, 3))


def _batch_last(a: np.ndarray) -> np.ndarray:
    """(batch, C, n) as one group of the grouped layout, (1, C, n, batch)."""
    return np.ascontiguousarray(a.transpose(1, 2, 0))[None]


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Length-preserving 1-D cross-correlation over the time axis, with replication padding.

    x: (batch, in_ch, n), w: (out_ch, in_ch, k) with k odd, b: (out_ch,). With pad = (k-1)/2,
    out[o, t] = sum_{c,j} w[o,c,j] * x[c, clip(t+j-pad, 0, n-1)] + b[o].

    Grouped form: x (G, in_ch, n, batch), batch innermost, w (G, out_ch, in_ch, k) and b (G, out_ch)
    give out (G, out_ch, n, batch); group g convolves x[g] with w[g] and b[g]. Per group the sum is
    one GEMM (im2col): one gather through the cached clamped tap index (``_taps``), with no padded
    buffer, builds cols (in_ch*k, n*batch) in the row order of w.reshape(out_ch, in_ch*k), so
    out = w2 @ cols + b is already (out_ch, n, batch). Groups run in chunks whose largest temporary
    stays under CONV_CHUNK_BYTES, each writing into the preallocated output; a group's output and
    gradients do not depend on the chunking. A 3-d call runs as one group, so it is bit-identical
    to that group of a grouped call. The backward rule keeps only x's and w's own arrays, so the
    tape holds no conv1d buffer.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim not in (3, 4):
        raise DimensionError(f"conv1d: input must be (batch, channels, time) or (groups, channels, time, batch), "
                             f"got {xd.shape}")
    if wd.ndim != xd.ndim or bd.ndim != xd.ndim - 2:
        raise DimensionError(f"conv1d: kernel and bias must match the input's grouping, got {wd.shape} and {bd.shape}")
    xg, wg, bg = (xd, wd, bd) if xd.ndim == 4 else (_batch_last(xd), wd[None], bd[None])  # 3-d: one group
    groups, out_ch, in_ch, k = wg.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d: kernel size must be odd, got {k}")
    if xg.shape[1] != in_ch:
        raise DimensionError(f"conv1d: input has {xg.shape[1]} channels, kernel expects {in_ch}")
    if bg.shape[1] != out_ch:
        raise DimensionError(f"conv1d: bias has {bg.shape[1]} channels, kernel yields {out_ch}")
    if xg.shape[0] != groups or bg.shape[0] != groups:
        raise DimensionError(f"conv1d: {xg.shape[0]} input groups, {groups} kernel and {bg.shape[0]} bias groups")
    _, _, n, batch = xg.shape
    out = np.empty((groups, out_ch, n, batch))
    for at in _group_chunks(groups, batch * n * k * max(in_ch, out_ch)):
        w2 = wg[at].reshape(-1, out_ch, in_ch * k)
        np.matmul(w2, _cols(xg[at], k), out=out[at].reshape(w2.shape[0], out_ch, n * batch))
    out += bg[:, :, None, None]

    def rule(g):
        if xd.ndim == 4:
            return _conv1d_grads(g, xd, wd)
        gx, gw, gb = _conv1d_grads(_batch_last(g), _batch_last(xd), wd[None])
        return np.ascontiguousarray(gx[0].transpose(2, 0, 1)), gw[0], gb[0]

    return _emit(out if xd.ndim == 4 else out[0].transpose(2, 0, 1), (x, w, b), rule)


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
    xd = x.data
    sl = slice(start, stop, step)
    out = np.ascontiguousarray(xd[..., sl])
    if out.shape[-1] == 0:
        raise DimensionError(f"slice_time: slice [{start}:{stop}:{step}] of length {xd.shape[-1]} is empty")

    def rule(g):
        gx = np.zeros_like(xd)
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


def ungroup_time(x: Tensor, order: Sequence[int]) -> Tensor:
    """Merge the leading axis of x (k, ..., m) into its last: out[..., t*k + j] = x[order[j], ..., t].

    ``order`` is a permutation of range(k); with the identity this is ``interleave_time`` of x's rows.
    """
    xd = x.data
    k = xd.shape[0]
    out = np.moveaxis(xd, 0, -1)[..., order].reshape(xd.shape[1:-1] + (-1,))

    def rule(g):
        gx = np.empty_like(xd)
        gx[order] = np.moveaxis(g.reshape(xd.shape[1:] + (k,)), -1, 0)
        return (gx,)

    return _emit(out, (x,), rule)


def gather_groups(parts: Sequence[Tensor], order: Sequence[int] | None = None) -> Tensor:
    """Concatenate ``parts`` along the leading (group) axis, then put its rows in ``order``.

    A 3-d part, a (batch, channels, time) series, counts as one group; any other part's leading
    axis is its group axis. ``order`` is a permutation of the concatenated rows (None keeps them
    as they are). A tensor may appear among the parts more than once; its gradients then add.
    """
    datas = [p.data[None] if p.data.ndim == 3 else p.data for p in parts]
    for d in datas[1:]:
        if d.shape[1:] != datas[0].shape[1:]:
            raise DimensionError(f"gather_groups: group shapes differ, {datas[0].shape[1:]} vs {d.shape[1:]}")
    cat = datas[0] if len(datas) == 1 else np.concatenate(datas)
    out = cat.copy() if order is None else cat[order]
    bounds = [0, *itertools.accumulate(d.shape[0] for d in datas)]
    shapes = [p.data.shape for p in parts]

    def rule(g):
        if order is not None:
            g = g[np.argsort(order)]
        return tuple(g[a:b].reshape(shape) for a, b, shape in zip(bounds, bounds[1:], shapes))

    return _emit(out, tuple(parts), rule)


def halves_to_groups(x: Tensor, swapped: bool = False) -> Tensor:
    """Split the time axis of x (G, batch, C, n) into its even and odd halves, stacked on the group axis
    with batch moved innermost: out (2G, C, n/2, batch), out[h*G + g, c, t, b] = x[g, b, c, 2t + h].

    ``swapped`` puts the odd halves first. A 3-d x, (batch, C, n), is one group.
    """
    xd = x.data
    xg = xd[None] if xd.ndim == 3 else xd
    if xg.ndim != 4 or xg.shape[-1] % 2:
        raise DimensionError(f"halves_to_groups: needs (groups, batch, channels, even time length), got {xd.shape}")
    groups, batch, ch, n = xg.shape
    step = -1 if swapped else 1
    out = xg.reshape(groups, batch, ch, n // 2, 2)[..., ::step].transpose(4, 0, 2, 3, 1)

    def rule(g):
        return (g.reshape(2, groups, ch, n // 2, batch)[::step].transpose(1, 4, 2, 3, 0).reshape(xd.shape),)

    return _emit(out.reshape(2 * groups, ch, n // 2, batch), (x,), rule)


def groups_to_children(x: Tensor, swapped: bool = False) -> Tensor:
    """Inverse layout of ``halves_to_groups``: x (2G, C, m, batch), the G even halves then the G odd halves
    (odd first if ``swapped``), becomes (2G, batch, C, m) with row 2g + h holding group g's half h."""
    xd = x.data
    if xd.ndim != 4 or xd.shape[0] % 2:
        raise DimensionError(f"groups_to_children: needs (2 * groups, channels, time, batch), got {xd.shape}")
    halves, ch, m, batch = xd.shape
    step = -1 if swapped else 1
    out = xd.reshape(2, halves // 2, ch, m, batch)[::step].transpose(1, 0, 4, 2, 3).reshape(halves, batch, ch, m)

    def rule(g):
        return (g.reshape(halves // 2, 2, batch, ch, m).transpose(1, 0, 3, 4, 2)[::step].reshape(xd.shape),)

    return _emit(out, (x,), rule)


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
    if not tape.produced(loss):
        raise UsageError("backward: loss was not produced on this tape")
    if not tape.nodes:  # the loss's own node was recorded, so only a sweep empties the tape
        raise UsageError("backward: this tape was already consumed by an earlier backward; record a new one")
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
