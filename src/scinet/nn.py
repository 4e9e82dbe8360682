"""Learnable components: interaction maps, dropout, and the horizon decoder."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .tensor import Tensor, conv1d, gather_groups, leaky_relu, linear, masked_scale, tanh


def kaiming_uniform_bound(fan_in: int, gain: float) -> float:
    # uniform(-b, b) has variance b^2 / 3; solving gain^2 / fan_in = b^2 / 3
    # gives b = gain * sqrt(3 / fan_in)
    return gain * math.sqrt(3.0 / fan_in)


def leaky_relu_gain(slope: float) -> float:
    return math.sqrt(2.0 / (1.0 + slope * slope))


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], gain: float) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    bound = kaiming_uniform_bound(fan_in, gain)
    return rng.uniform(-bound, bound, size=shape)


def dropout_forward(x: Tensor, p: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-p) so E[output] = input.

    Identity (returns ``x`` itself) when not training or p == 0.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise UsageError("dropout in training mode requires an rng")
    return masked_scale(x, rng.random(x.shape) >= p, 1.0 / (1.0 - p))


class InteractionModule:
    """Shape-preserving map: conv(k) -> leaky_relu -> dropout -> conv(k) -> tanh.

    Channel counts run d -> hidden_ratio*d -> d, so the output has exactly the
    input's shape and lies in (-1, 1). The module is ``groups`` such maps, one
    per row of its four weight tensors (slabs), and maps (groups, d, time,
    batch), batch innermost, with group g run by row g's weights; a tree level
    holds its blocks' modules as the rows of one module. The slabs start
    zeroed, and ``draw`` fills one row.
    """

    PARAMS = ("w_in", "b_in", "w_out", "b_out")

    def __init__(self, channels: int, hidden_ratio: int, kernel_size: int, leaky_slope: float, dropout_p: float,
                 groups: int = 1):
        if channels < 1 or hidden_ratio < 1:
            raise ConfigError(f"channels and hidden_ratio must be positive, got {channels}, {hidden_ratio}")
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be odd and positive, got {kernel_size}")
        if not 0.0 <= dropout_p < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {dropout_p}")
        hidden = channels * hidden_ratio
        self.channels = channels
        self.leaky_slope = leaky_slope
        self.dropout_p = dropout_p
        # zeros are finite, so the tensors skip the finite scan
        self.w_in = Tensor._wrap(np.zeros((groups, hidden, channels, kernel_size)), True)
        self.b_in = Tensor._wrap(np.zeros((groups, hidden)), True)
        self.w_out = Tensor._wrap(np.zeros((groups, channels, hidden, kernel_size)), True)
        self.b_out = Tensor._wrap(np.zeros((groups, channels)), True)

    def draw(self, group: int, rng: np.random.Generator, identity_init: bool = True) -> None:
        """Draw row ``group``: the opening conv Kaiming-uniform matched to the leaky-relu slope, then,
        unless ``identity_init``, the closing conv with gain 1. With ``identity_init`` the closing conv
        stays all-zero, making that group the zero map at initialisation."""
        self.w_in.data[group] = _kaiming_uniform(rng, self.w_in.shape[1:], leaky_relu_gain(self.leaky_slope))
        if not identity_init:
            self.w_out.data[group] = _kaiming_uniform(rng, self.w_out.shape[1:], 1.0)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """A grouped module given r times its group count (one block's weights filling r roles)
        runs each group's weights on r inputs, so their gradients add."""
        weights = [getattr(self, name) for name in self.PARAMS]
        groups = weights[0].shape[0]
        if x.data.ndim != 4 or x.shape[1] != self.channels or x.shape[0] % groups:
            raise DimensionError(f"interaction module expects (a multiple of {groups} groups, {self.channels}, "
                                 f"time, batch), got {x.shape}")
        if x.shape[0] != groups:
            weights = [gather_groups([t] * (x.shape[0] // groups)) for t in weights]
        w_in, b_in, w_out, b_out = weights
        h = conv1d(x, w_in, b_in)
        h = leaky_relu(h, self.leaky_slope)
        h = dropout_forward(h, self.dropout_p, training, rng)
        h = conv1d(h, w_out, b_out)
        return tanh(h)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}/{name}", getattr(self, name)) for name in self.PARAMS]


class DecoderLayer:
    """Affine map from the look-back axis to the horizon axis.

    One (horizon, look_back) weight shared by every variate: the same
    time-mixing matrix is applied to each channel independently. It is drawn
    Kaiming-uniform from ``rng``, or left zero without one.
    """

    def __init__(self, look_back: int, horizon: int, rng: np.random.Generator | None):
        bound, shape = kaiming_uniform_bound(look_back, 1.0), (horizon, look_back)
        self.weight = Tensor(np.zeros(shape) if rng is None else rng.uniform(-bound, bound, size=shape), True)
        self.bias = Tensor(np.zeros(horizon), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + "/weight", self.weight), (prefix + "/bias", self.bias)]
