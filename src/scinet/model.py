"""The forecasting network: even/odd blocks, binary tree, stacking, loss.

A block splits its input into the even- and odd-indexed sub-sequences, lets
each half rescale the other through exponentiated interaction maps, and adds
(or subtracts) cross corrections. Blocks form a complete binary tree: each
node halves the time axis and hands one sub-sequence to each child. The
leaves are realigned back into original time order, a residual connection
adds the raw input, and an affine decoder maps the look-back axis onto the
forecast horizon. Stacked copies refine the forecast, each re-using the most
recent input steps together with the previous stack's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .nn import DecoderLayer, InteractionModule
from .tensor import (
    Tensor,
    abs_,
    add,
    concat_time,
    exp,
    interleave_time,
    mean_all,
    mul,
    slice_time,
    sub,
)

SIGNS = ("add", "sub")
ROLES = ("scale_for_odd", "scale_for_even", "correct_odd", "correct_even")  # SCIBlock's modules, in order


@dataclass
class ModelConfig:
    look_back: int
    horizon: int
    n_variates: int
    levels: int = 1
    stacks: int = 1
    kernel_size: int = 5
    hidden_ratio: int = 2
    dropout: float = 0.5
    leaky_slope: float = 0.01
    sign: str = "add"
    identity_init: bool = True
    no_interlearn: bool = False
    weight_share: bool = False
    no_residual: bool = False
    no_decoder: bool = False
    seed: int = 42

    def validate(self) -> None:
        if self.look_back < 1 or self.horizon < 1 or self.n_variates < 1:
            raise ConfigError(
                f"look_back, horizon and n_variates must be positive, got "
                f"{self.look_back}, {self.horizon}, {self.n_variates}"
            )
        if self.levels < 1:
            raise ConfigError(f"levels must be at least 1, got {self.levels}")
        if self.stacks < 1:
            raise ConfigError(f"stacks must be at least 1, got {self.stacks}")
        if self.look_back % (1 << self.levels) != 0:
            raise ConfigError(
                f"look_back not divisible by 2^levels: {self.look_back} % {1 << self.levels} != 0"
            )
        if self.stacks >= 2 and self.horizon >= self.look_back:
            raise ConfigError(
                f"stacking needs horizon < look_back, got {self.horizon} >= {self.look_back}"
            )
        if self.no_decoder and self.horizon > self.look_back:
            raise ConfigError(
                f"without a decoder the horizon cannot exceed look_back "
                f"({self.horizon} > {self.look_back})"
            )
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.hidden_ratio < 1:
            raise ConfigError(f"hidden_ratio must be at least 1, got {self.hidden_ratio}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.sign not in SIGNS:
            raise ConfigError(f"sign must be one of {SIGNS}, got {self.sign!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def split_even_odd(x: Tensor) -> tuple[Tensor, Tensor]:
    """Split the last axis into even-indexed and odd-indexed sub-sequences (0-based)."""
    n = x.shape[-1]
    if n % 2 != 0:
        raise DimensionError(f"cannot split odd time length {n}")
    return slice_time(x, 0, None, 2), slice_time(x, 1, None, 2)


def realign(parts: list[Tensor]) -> Tensor:
    """Inverse of repeated even/odd splitting.

    ``parts`` holds 2^L equal-shape sub-sequences in tree order (even branch
    first at every level); the result restores original time order by
    interleaving pairs bottom-up.
    """
    count = len(parts)
    if count < 1 or count & (count - 1) != 0:
        raise DimensionError(f"realign needs a power-of-two part count, got {count}")
    if count == 1:
        return parts[0]
    half = count // 2
    return interleave_time(realign(parts[:half]), realign(parts[half:]))


class SCIBlock:
    """One split-and-interact unit.

    The even half produces a multiplicative scale (through exp) for the odd
    half and vice versa; each scaled half then receives an additive or
    subtractive correction computed from the other. ``no_interlearn`` removes
    the coupling entirely: each half just runs through its own two modules.
    """

    def __init__(
        self,
        scale_for_odd: InteractionModule,
        scale_for_even: InteractionModule,
        correct_odd: InteractionModule,
        correct_even: InteractionModule,
        sign: str,
        no_interlearn: bool,
    ):
        self.scale_for_odd = scale_for_odd
        self.scale_for_even = scale_for_even
        self.correct_odd = correct_odd
        self.correct_even = correct_even
        self.sign = sign
        self.no_interlearn = no_interlearn

    def forward(
        self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor]:
        even, odd = split_even_odd(x)
        if self.no_interlearn:
            new_odd = self.correct_odd.forward(self.scale_for_odd.forward(odd, training, rng), training, rng)
            new_even = self.correct_even.forward(self.scale_for_even.forward(even, training, rng), training, rng)
            return new_even, new_odd
        scaled_odd = mul(odd, exp(self.scale_for_odd.forward(even, training, rng)))
        scaled_even = mul(even, exp(self.scale_for_even.forward(odd, training, rng)))
        op = add if self.sign == "add" else sub
        new_odd = op(scaled_odd, self.correct_odd.forward(scaled_even, training, rng))
        new_even = op(scaled_even, self.correct_even.forward(scaled_odd, training, rng))
        return new_even, new_odd


class _TreeNode:
    __slots__ = ("block", "even_child", "odd_child")

    def __init__(self, block: SCIBlock, even_child: "_TreeNode | None", odd_child: "_TreeNode | None"):
        self.block = block
        self.even_child = even_child
        self.odd_child = odd_child

    def forward(self, x: Tensor, training: bool, rng) -> list[Tensor]:
        even, odd = self.block.forward(x, training, rng)
        if self.even_child is None:
            return [even, odd]
        return self.even_child.forward(even, training, rng) + self.odd_child.forward(odd, training, rng)


class SCINetTree:
    """One tree of blocks plus realign, residual connection, and decoder.

    The tree has ``levels`` split levels, so 2^levels - 1 blocks and leaf
    sub-sequences of length look_back / 2^levels. With every interaction
    module zeroed (identity init) each block passes its halves through
    untouched, realignment rebuilds the input exactly, and the residual
    doubles it: the pre-decoder representation is then 2x the input.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator, name: str):
        self.config = config
        self._named: list[tuple[str, Tensor]] = []
        self.root = self._build_node(config, rng, 1, name + "/b")
        if config.no_decoder:
            self.decoder = None
        else:
            self.decoder = DecoderLayer(config.look_back, config.horizon, rng)
            self._named.extend(self.decoder.named_parameters(name + "/decoder"))

    def _build_node(self, cfg: ModelConfig, rng, level: int, name: str) -> _TreeNode:
        # construction order fixes the rng draw order: the modules of a block
        # first, then the even subtree, then the odd subtree
        identity = cfg.identity_init and not cfg.no_interlearn
        make = lambda: InteractionModule(
            cfg.n_variates, cfg.hidden_ratio, cfg.kernel_size,
            cfg.leaky_slope, cfg.dropout, rng, identity_init=identity,
        )
        roles = ("shared",) if cfg.weight_share else ROLES
        modules = [make() for _ in roles]
        for role, m in zip(roles, modules):
            self._named.extend(m.named_parameters(f"{name}/{role}"))
        if cfg.weight_share:
            modules *= len(ROLES)  # the one module fills every role
        block = SCIBlock(*modules, sign=cfg.sign, no_interlearn=cfg.no_interlearn)
        if level == cfg.levels:
            return _TreeNode(block, None, None)
        return _TreeNode(
            block,
            self._build_node(cfg, rng, level + 1, name + "e"),
            self._build_node(cfg, rng, level + 1, name + "o"),
        )

    def representation(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """The realigned leaves plus, unless ``no_residual``, the input: what the decoder reads."""
        rep = realign(self.root.forward(x, training, rng))
        return rep if self.config.no_residual else add(rep, x)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        rep = self.representation(x, training, rng)
        if self.decoder is None:
            return slice_time(rep, self.config.look_back - self.config.horizon, self.config.look_back)
        return self.decoder.forward(rep)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)


class StackedSCINet:
    """A sequence of trees with intermediate supervision.

    Every stack emits a full-horizon forecast. Stack k+1 reads the most
    recent look_back - horizon steps of the original input followed by stack
    k's forecast, so its input again has length look_back.
    """

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.trees = [SCINetTree(config, rng, f"stack{i}") for i in range(config.stacks)]

    def forward(
        self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None
    ) -> list[Tensor]:
        cfg = self.config
        expect = (cfg.n_variates, cfg.look_back)
        if x.data.ndim != 3 or x.shape[1:] != expect:
            raise DimensionError(f"model expects input (batch, {expect[0]}, {expect[1]}), got {x.shape}")
        outputs: list[Tensor] = []
        current = x
        for i, tree in enumerate(self.trees):
            pred = tree.forward(current, training, rng)
            outputs.append(pred)
            if i + 1 < len(self.trees):
                tail = slice_time(x, cfg.horizon, cfg.look_back)
                current = concat_time(tail, pred)
        return outputs

    def representation(self, x: Tensor) -> Tensor:
        """Pre-decoder sequence (post realign and residual) of the first stack."""
        return self.trees[0].representation(x)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [pair for tree in self.trees for pair in tree.named_parameters()]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def build_model(config: ModelConfig) -> StackedSCINet:
    return StackedSCINet(config)


def compute_loss(outputs: list[Tensor], target: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Per-stack mean absolute error and their sum.

    Each component averages |prediction - target| over every horizon step,
    variate and batch element; the total simply adds the components, one per
    stack, so all stacks are supervised.
    """
    if not outputs:
        raise DimensionError("compute_loss: no outputs")
    components: list[Tensor] = []
    total: Tensor | None = None
    for out in outputs:
        if out.shape != target.shape:
            raise DimensionError(f"compute_loss: output shape {out.shape} vs target {target.shape}")
        comp = mean_all(abs_(sub(out, target)))
        components.append(comp)
        total = comp if total is None else add(total, comp)
    return total, components
