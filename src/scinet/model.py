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

import functools
import itertools
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
    gather_groups,
    mean_all,
    mul,
    relayout,
    slice_time,
    sub,
)

SIGNS = ("add", "sub")
ROLES = ("scale_for_odd", "scale_for_even", "correct_odd", "correct_even")  # a block's modules, in order
INFERENCE_BATCH = 64  # windows per untaped forward pass (predict_windows, pe_report): level arrays stay in L2


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
        if not np.isfinite(self.leaky_slope):
            raise ConfigError(f"leaky_slope must be finite, got {self.leaky_slope}")
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


def realign(parts: Tensor) -> Tensor:
    """Inverse of repeated even/odd splitting.

    ``parts`` holds 2^L equal-shape sub-sequences in tree order (even branch
    first at every level) along its leading axis, so leaf i holds the steps
    whose index mod 2^L is i with its L bits reversed; one relayout moves
    those bits, as L axes of size 2, after time in reverse order.
    """
    count, rest = parts.shape[0], parts.shape[1:]
    if count < 1 or count & (count - 1) != 0:
        raise DimensionError(f"realign needs a power-of-two part count, got {count}")
    bits = count.bit_length() - 1
    axes = (*range(bits, bits + len(rest)), *reversed(range(bits)))
    return relayout(parts, (2,) * bits + rest, axes, rest[:-1] + (rest[-1] * count,))


@functools.lru_cache(maxsize=64)
def _swap(groups: int) -> tuple[int, ...]:
    """Rows [second half; first half] of 2·groups, pairing each half with the other's map; a tuple, so
    gather_groups can cache its inverse."""
    return (*range(groups, 2 * groups), *range(groups))


class SCIBlock:
    """The split-and-interact units of one tree level, run as one grouped step.

    Level l applies G = 2^(l-1) blocks to disjoint sub-sequences of one length,
    held in the tree's layout as one (G, batch, C, n) tensor (the tree's input,
    (batch, C, n), is one group). One relayout moves them in: inside the level
    the halves are held batch innermost, (2G, C, n/2, batch), the G blocks'
    even halves, then their odd halves, so every conv1d gathers whole batch
    rows and makes one GEMM per group. In each block the even half produces a
    multiplicative scale (through exp) for the odd half and vice versa; each
    scaled half then receives an additive or subtractive correction computed
    from the other. ``scale`` is one grouped module over 2G groups holding the
    G blocks' scale_for_odd modules, then their scale_for_even modules;
    ``correct`` holds correct_odd, then correct_even. Under weight sharing
    both are the level's G shared modules. ``no_interlearn`` removes the
    coupling entirely: each half just runs through its own two modules, so
    the tree stacks the ``*_even`` rows first there. A second relayout moves
    the halves out in tree order and layout: (2G, batch, C, n/2), child 2g
    block g's even half and 2g+1 its odd half.
    """

    def __init__(self, scale: InteractionModule, correct: InteractionModule, sign: str, no_interlearn: bool):
        self.scale = scale
        self.correct = correct
        self.sign = sign
        self.no_interlearn = no_interlearn

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        if x.data.ndim not in (3, 4) or x.shape[-1] % 2:
            raise DimensionError(f"SCIBlock: needs (groups, batch, channels, even time length), got {x.shape}")
        groups, (batch, ch, n) = (1 if x.data.ndim == 3 else x.shape[0]), x.shape[-3:]
        halves = relayout(x, (groups, batch, ch, n // 2, 2), (4, 0, 2, 3, 1), (2 * groups, ch, n // 2, batch))
        if self.no_interlearn:  # [scale_for_even(even); scale_for_odd(odd)], then the corrections likewise
            new = self.correct.forward(self.scale.forward(halves, training, rng), training, rng)
        else:
            swap = _swap(groups)
            # [scale_for_odd(even); scale_for_even(odd)]; the swap pairs each scale with its half
            scaled = mul(halves, exp(gather_groups((self.scale.forward(halves, training, rng),), swap)))
            # [correct_odd(scaled_even); correct_even(scaled_odd)], paired by the swap likewise
            corrections = gather_groups((self.correct.forward(scaled, training, rng),), swap)
            new = add(scaled, corrections) if self.sign == "add" else sub(scaled, corrections)
        return relayout(new, (2, groups, ch, n // 2, batch), (1, 0, 4, 2, 3), (2 * groups, batch, ch, n // 2))


class _TreeNode:
    """One tree level: its grouped block, then the next level's node (None at the deepest)."""

    __slots__ = ("block", "child")

    def __init__(self, block: SCIBlock, child: "_TreeNode | None"):
        self.block = block
        self.child = child

    def forward(self, x: Tensor, training: bool, rng) -> Tensor:
        out = self.block.forward(x, training, rng)
        return out if self.child is None else self.child.forward(out, training, rng)


def _row(t: Tensor, index: int) -> Tensor:
    """Row ``index`` of a grouped parameter, sharing its data and any gradient; it is not taped."""
    view = Tensor._wrap(t.data[index], t.requires_grad)
    view.grad = None if t.grad is None else t.grad[index]
    return view


class SCINetTree:
    """One tree of blocks plus realign, residual connection, and decoder.

    The tree has ``levels`` split levels, so 2^levels - 1 blocks and leaf
    sub-sequences of length look_back / 2^levels. With every interaction
    module zeroed (identity init) each block passes its halves through
    untouched, realignment rebuilds the input exactly, and the residual
    doubles it: the pre-decoder representation is then 2x the input.

    Each level is one ``_TreeNode`` whose ``SCIBlock`` runs all the level's
    blocks at once, so a level's weights are grouped tensors (slabs) with one
    row per block and role, ``*_odd`` rows first (``*_even`` first under
    ``no_interlearn``, so each module meets its own half). One depth-first
    pass over the blocks draws each role's row straight into its slab and
    records in ``named_rows`` its tensors' names
    (``stack0/beo/scale_for_odd/w_in``), slab and row: the draw order is the
    checkpoint's order. A training forward draws its dropout masks level by
    level, as the grouped calls ask for them: the scale call's (2G, hidden,
    n, batch) mask, then the correction call's.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None, name: str):
        cfg = self.config = config
        identity = cfg.identity_init and not cfg.no_interlearn
        roles = ("shared",) if cfg.weight_share else ROLES
        slab = functools.partial(InteractionModule, cfg.n_variates, cfg.hidden_ratio, cfg.kernel_size,
                                 cfg.leaky_slope, cfg.dropout)
        blocks = []
        for level in range(1, cfg.levels + 1):
            groups = 1 << (level - 1)
            scale = slab(groups if cfg.weight_share else 2 * groups)
            correct = scale if cfg.weight_share else slab(2 * groups)
            blocks.append(SCIBlock(scale, correct, cfg.sign, cfg.no_interlearn))
        self.root = None
        for block in reversed(blocks):
            self.root = _TreeNode(block, self.root)
        first, second = (1, 0) if cfg.no_interlearn else (0, 1)
        self.named_rows: list[tuple[str, Tensor, int | None]] = []  # name, tensor or slab, slab row
        # a block's name spells its path from the root, e (even half) before o, so the sorted names run
        # depth-first, even subtree first; each row is drawn as it is named: the checkpoint's order
        paths = {"b" + "".join(bits): (level, g) for level in range(1, cfg.levels + 1)
                 for g, bits in enumerate(itertools.product("eo", repeat=level - 1))}
        for path in sorted(paths):
            level, g = paths[path]
            block, groups = blocks[level - 1], 1 << (level - 1)
            places = ((block.scale, g),) if cfg.weight_share else [
                (module, half * groups + g) for module in (block.scale, block.correct) for half in (first, second)]
            for role, (module, row) in zip(roles, places):
                if rng is not None:
                    module.draw(row, rng, identity)
                self.named_rows.extend((f"{name}/{path}/{role}/{p}", getattr(module, p), row) for p in module.PARAMS)
        if config.no_decoder:
            self.decoder = None
        else:
            self.decoder = DecoderLayer(config.look_back, config.horizon, rng)
            self.named_rows.extend((n, t, None) for n, t in self.decoder.named_parameters(name + "/decoder"))

    def representation(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """The realigned leaves plus, unless ``no_residual``, the input: what the decoder reads."""
        rep = realign(self.root.forward(x, training, rng))
        return rep if self.config.no_residual else add(rep, x)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        rep = self.representation(x, training, rng)
        if self.decoder is None:
            return slice_time(rep, self.config.look_back - self.config.horizon, self.config.look_back)
        return self.decoder.forward(rep)


class StackedSCINet:
    """A sequence of trees with intermediate supervision.

    Every stack emits a full-horizon forecast. Stack k+1 reads the most
    recent look_back - horizon steps of the original input followed by stack
    k's forecast, so its input again has length look_back.
    """

    def __init__(self, config: ModelConfig, _draw: bool = True):
        """``_draw=False`` leaves every parameter zero, for a loader that overwrites them all."""
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed) if _draw else None
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
        """Each block's tensors in checkpoint order; a slab row is a view of the slab's current data."""
        return [(name, t if row is None else _row(t, row)) for tree in self.trees for name, t, row in tree.named_rows]

    def parameters(self) -> list[Tensor]:
        """The slabs and the decoders' tensors, each once."""
        return list(dict.fromkeys(t for tree in self.trees for _, t, _ in tree.named_rows))


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
