"""Learnable components: interaction maps, dropout, and the horizon decoder."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .tensor import Tensor, conv1d, gather_groups, leaky_relu, linear, mul, tanh


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
    keep = np.multiply(rng.random(x.shape) >= p, 1.0 / (1.0 - p))
    return mul(x, Tensor._wrap(keep, False))


class InteractionModule:
    """Shape-preserving map: conv(k) -> leaky_relu -> dropout -> conv(k) -> tanh.

    Channel counts run d -> hidden_ratio*d -> d, so the output has exactly the
    input's shape and lies in (-1, 1). With ``identity_init`` the closing conv
    starts all-zero, making the whole module the zero map at initialisation;
    the opening conv is Kaiming-uniform matched to the leaky-relu slope.

    A module is one group: each of its four tensors has a leading group axis
    of length 1, and it maps (groups, d, time, batch), batch innermost.
    ``stacked`` joins several modules into one grouped module along that axis,
    which maps a tree level's halves with group g run by the g-th module's
    weights.
    """

    PARAMS = ("w_in", "b_in", "w_out", "b_out")

    def __init__(
        self,
        channels: int,
        hidden_ratio: int,
        kernel_size: int,
        leaky_slope: float,
        dropout_p: float,
        rng: np.random.Generator,
        identity_init: bool = True,
    ):
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
        gain = leaky_relu_gain(leaky_slope)
        # uniform draws and zeros are finite, so the tensors skip the finite scan
        self.w_in = Tensor._wrap(_kaiming_uniform(rng, (hidden, channels, kernel_size), gain)[None], True)
        self.b_in = Tensor._wrap(np.zeros((1, hidden)), True)
        if identity_init:
            self.w_out = Tensor._wrap(np.zeros((1, channels, hidden, kernel_size)), True)
        else:
            self.w_out = Tensor._wrap(_kaiming_uniform(rng, (channels, hidden, kernel_size), 1.0)[None], True)
        self.b_out = Tensor._wrap(np.zeros((1, channels)), True)

    @classmethod
    def stacked(cls, modules: list["InteractionModule"]) -> "InteractionModule":
        """One grouped module whose group g holds a copy of ``modules[g]``'s weights."""
        grouped = object.__new__(cls)
        first = modules[0]
        grouped.channels, grouped.leaky_slope, grouped.dropout_p = first.channels, first.leaky_slope, first.dropout_p
        for name in cls.PARAMS:
            setattr(grouped, name, Tensor._wrap(np.concatenate([getattr(m, name).data for m in modules]), True))
        return grouped

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
    time-mixing matrix is applied to each channel independently.
    """

    def __init__(self, look_back: int, horizon: int, rng: np.random.Generator):
        bound = kaiming_uniform_bound(look_back, 1.0)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(horizon, look_back)), requires_grad=True)
        self.bias = Tensor(np.zeros(horizon), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + "/weight", self.weight), (prefix + "/bias", self.bias)]
