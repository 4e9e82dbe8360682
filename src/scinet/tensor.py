"""Dense float64 tensors with taped reverse-mode automatic differentiation.

Conventions fixed across the package:

* no implicit broadcasting: elementwise operands must match shapes exactly
* conv1d is a cross-correlation (kernels are not flipped) with replication
  padding, so output length equals input length; it reads its taps through
  one cached clamped index, so no padded copy of the input exists, and its
  backward rule keeps nothing but the input's and kernel's own arrays
* inputs to exp are clamped to [-20, 20] and the gradient is zero outside
  the clamp
* a Tape records operations in execution order, which is already a valid
  topological order, so a single reverse sweep propagates every gradient;
  the sweep consumes the tape, popping each node and freeing what its rule
  saved once the rule has run, so a tape supports one backward
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError

EXP_CLAMP = 20.0


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
    out = np.where(xd >= 0.0, xd, slope * xd)
    return _emit(out, (x,), lambda g: (g * np.where(xd >= 0.0, 1.0, slope),))


@functools.lru_cache(maxsize=64)
def _taps(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices of the sample clip(t + j - (k-1)/2, 0, n-1), the replication
    padding, that conv1d's tap j reads at time t: channel-major (j*n + t) and time-major
    (t*k + j). They are in range, so gathers use mode="clip" and skip the raising check."""
    src = np.clip(np.arange(n)[:, None] + np.arange(k) - (k - 1) // 2, 0, n - 1)  # [t, j]
    channel_major, time_major = src.T.ravel(), src.ravel()
    channel_major.flags.writeable = time_major.flags.writeable = False
    return channel_major, time_major


def _conv1d_grads(g: np.ndarray, xd: np.ndarray, wd: np.ndarray):
    """Input, kernel and bias gradients of conv1d for its output gradient g.

    Both GEMMs are time-major (g2 has a row per batch and time). The kernel gradient's other
    operand, k*in_ch taps per row, is gathered through the time-major tap index from a
    contiguous (batch, n, in_ch) copy of x, both temporaries freed before the fold allocates.
    The fold adds one (batch*n, in_ch) product per tap into the range it read on a buffer with
    pad extra samples per side, whose ends then fold onto the edge samples they clamp to.
    """
    (out_ch, in_ch, k), (batch, _, n) = wd.shape, g.shape
    pad = (k - 1) // 2
    g2 = g.transpose(0, 2, 1).reshape(batch * n, out_ch)
    gw = g2.T @ np.take(np.ascontiguousarray(xd.transpose(0, 2, 1)), _taps(n, k)[1], axis=1,
                        mode="clip").reshape(batch * n, k * in_ch)
    per_tap = np.matmul(g2, wd.transpose(2, 0, 1)).reshape(k, batch, n, in_ch)
    gp = np.empty((batch, n + 2 * pad, in_ch))  # the first tap fills it, so no zeroing pass
    gp[:, :n] = per_tap[0]
    gp[:, n:] = 0.0
    for j in range(1, k):
        gp[:, j:j + n] += per_tap[j]
    gx = np.ascontiguousarray(gp[:, pad:pad + n].transpose(0, 2, 1))
    if pad:
        gx[:, :, 0] += gp[:, :pad].sum(axis=1)
        gx[:, :, -1] += gp[:, pad + n:].sum(axis=1)
    return gx, np.ascontiguousarray(gw.reshape(out_ch, k, in_ch).transpose(0, 2, 1)), g.sum(axis=(0, 2))


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Length-preserving 1-D cross-correlation over the last axis, with replication padding.

    x: (batch, in_ch, n), w: (out_ch, in_ch, k) with k odd, b: (out_ch,). With pad = (k-1)/2,
    out[o, t] = sum_{c,j} w[o,c,j] * x[c, clip(t+j-pad, 0, n-1)] + b[o]. The sum is one GEMM
    (im2col): one gather through the cached clamped tap index (``_taps``), with no padded
    buffer, builds cols (batch, in_ch*k, n) with cols[:, c*k + j, t] = x[:, c, clip(t+j-pad)],
    the row order of w.reshape(out_ch, in_ch*k), so out = w2 @ cols + b. The backward rule
    keeps only x's and w's own arrays, so the tape holds no conv1d buffer.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 3:
        raise DimensionError(f"conv1d: input must be 3-d (batch, channels, time), got {xd.shape}")
    if wd.ndim != 3 or bd.ndim != 1:
        raise DimensionError(f"conv1d: kernel must be 3-d and bias 1-d, got {wd.shape} and {bd.shape}")
    out_ch, in_ch, k = wd.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d: kernel size must be odd, got {k}")
    if xd.shape[1] != in_ch:
        raise DimensionError(f"conv1d: input has {xd.shape[1]} channels, kernel expects {in_ch}")
    if bd.shape[0] != out_ch:
        raise DimensionError(f"conv1d: bias has {bd.shape[0]} channels, kernel yields {out_ch}")
    batch, _, n = xd.shape
    cols = np.take(xd, _taps(n, k)[0], axis=2, mode="clip").reshape(batch, in_ch * k, n)
    out = np.matmul(wd.reshape(out_ch, in_ch * k), cols)
    out += bd[:, None]

    def rule(g):
        return _conv1d_grads(g, xd, wd)

    return _emit(out, (x, w, b), rule)


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
