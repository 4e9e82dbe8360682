"""Optimization loop, evaluation, early stopping, and checkpointing.

A checkpoint is one file: a UTF-8 JSON manifest, then a NUL byte, then the
raw little-endian float64 bytes of every named parameter in manifest order.
Nothing in the file depends on wall-clock time or machine identity, so two
identically seeded runs write byte-identical checkpoints.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError
from .metrics import MetricReport, compute_metrics
from .model import ModelConfig, StackedSCINet, build_model, compute_loss
from .data import WindowDataset, batch_iter
from .tensor import Tape, Tensor, backward

CHECKPOINT_VERSION = 1
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
PREDICT_BATCH = 256  # windows per forward pass when predicting


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 0.95
    patience: int = 10
    clip_norm: float = 5.0  # global gradient norm ceiling; 0 disables clipping
    seed: int = 42

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be positive, got {self.epochs}, {self.batch_size}")
        if self.lr < 0 or self.lr_decay <= 0 or self.lr_decay > 1:
            raise ConfigError(f"need lr >= 0 and 0 < lr_decay <= 1, got {self.lr}, {self.lr_decay}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.clip_norm < 0:
            raise ConfigError(f"clip_norm must be non-negative, got {self.clip_norm}")


class Adam:
    """Adam with bias correction and optional global-norm gradient clipping.

    The parameters are packed, in the order given, into one float64 vector
    ``flat`` and each ``data`` becomes a view of it, so rebinding a ``data``
    afterwards detaches that parameter. A missing ``grad`` counts as zero;
    ``step`` consumes and clears every ``grad``.
    """

    def __init__(self, params: list[Tensor], lr: float, clip_norm: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.step_count = 0
        self.flat = np.concatenate([p.data.ravel() for p in self.params])
        bounds = np.cumsum([0] + [p.size for p in self.params]).tolist()
        spans = list(zip(bounds, bounds[1:]))
        for p, (start, stop) in zip(self.params, spans):
            p.data = self.flat[start:stop].reshape(p.shape)
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self._grad, self._work = np.empty_like(self.flat), np.empty_like(self.flat)
        # per-parameter sums of squares, added in order: one whole-vector or reduceat sum moves the clip's bits
        self._work_parts = [self._work[start:stop] for start, stop in spans]

    def step(self) -> None:
        g, work = self._grad, self._work
        np.concatenate([np.zeros(p.size) if p.grad is None else p.grad.ravel() for p in self.params], out=g)
        if self.clip_norm > 0:
            np.multiply(g, g, out=work)
            total = math.sqrt(sum(float(part.sum()) for part in self._work_parts))
            if total > self.clip_norm:
                g *= self.clip_norm / total
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        self.m *= BETA1
        self.m += np.multiply(1.0 - BETA1, g, out=work)
        self.v *= BETA2
        self.v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=work), out=work)
        update = np.multiply(self.lr, np.divide(self.m, bc1, out=work), out=work)  # lr * m_hat
        denom = np.add(np.sqrt(np.divide(self.v, bc2, out=g), out=g), EPS, out=g)  # sqrt(v_hat) + eps
        self.flat -= np.divide(update, denom, out=work)
        for p in self.params:
            p.grad = None


@dataclass
class EpochStats:
    total: float
    components: list[float]


def _window_mean(batches, what: str) -> EpochStats:
    """Window-weighted mean losses over ``batches`` of (window count, total loss, per-stack loss tensors)."""
    n_seen = 0
    total_sum = 0.0
    comp_sums: list[float] = []
    for b, total, components in batches:
        n_seen += b
        total_sum += total * b
        weighted = [c.item() * b for c in components]
        comp_sums = [s + w for s, w in zip(comp_sums, weighted)] if comp_sums else weighted
    if n_seen == 0:
        raise ConfigError(f"{what} dataset produced no batches")
    return EpochStats(total=total_sum / n_seen, components=[s / n_seen for s in comp_sums])


def train_epoch(
    model: StackedSCINet,
    dataset: WindowDataset,
    optimizer: Adam,
    batch_size: int,
    rng: np.random.Generator,
) -> EpochStats:
    """One pass over the shuffled training windows; returns window-weighted mean losses."""
    shuffle_seed = int(rng.integers(0, 2**63 - 1))

    def steps():
        for index, (xb, yb) in enumerate(batch_iter(dataset, batch_size, shuffle=True, seed=shuffle_seed)):
            with Tape() as tape:
                outputs = model.forward(xb, training=True, rng=rng)
                total, components = compute_loss(outputs, yb)
            value = total.item()
            if not math.isfinite(value):
                biggest = float(np.max(np.abs(optimizer.flat)))
                raise NumericError(
                    f"non-finite training loss at batch {index}; largest parameter magnitude {biggest:.3e}"
                )
            backward(total, tape)
            optimizer.step()
            yield xb.shape[0], value, components

    return _window_mean(steps(), "training")


def validation_loss(model: StackedSCINet, dataset: WindowDataset, batch_size: int) -> EpochStats:
    def batches():
        for xb, yb in batch_iter(dataset, batch_size, shuffle=False):
            total, components = compute_loss(model.forward(xb, training=False), yb)
            yield xb.shape[0], total.item(), components

    return _window_mean(batches(), "validation")


def predict_windows(model: StackedSCINet, dataset: WindowDataset) -> tuple[np.ndarray, np.ndarray]:
    """Final-stack predictions and truths as (windows, variates, horizon) arrays."""
    pairs = [(model.forward(xb)[-1].data, yb.data) for xb, yb in batch_iter(dataset, PREDICT_BATCH)]
    return np.concatenate([p for p, _ in pairs]), np.concatenate([t for _, t in pairs])


def evaluate(model: StackedSCINet, dataset: WindowDataset) -> MetricReport:
    return compute_metrics(*predict_windows(model, dataset))


def should_stop(val_history: list[float], patience: int) -> bool:
    """True once the best (strictly smallest, earliest) value is ``patience`` epochs old."""
    if not val_history:
        return False
    best = min(range(len(val_history)), key=lambda i: (val_history[i], i))
    return len(val_history) - 1 - best >= patience


@dataclass
class FitResult:
    history: list[dict]
    best_epoch: int
    best_val: float
    stopped_early: bool


def fit(
    model: StackedSCINet,
    train_ds: WindowDataset,
    val_ds: WindowDataset,
    cfg: TrainConfig,
    log=None,
) -> FitResult:
    """Train with per-epoch validation, lr decay, early stopping.

    The parameters of the best validation epoch are restored into ``model``
    before returning; ``history`` carries one record per epoch run.
    """
    cfg.validate()
    optimizer = Adam(model.parameters(), lr=cfg.lr, clip_norm=cfg.clip_norm)
    rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []
    val_values: list[float] = []
    best_val = math.inf
    best_epoch = -1
    best_params: np.ndarray | None = None
    stopped = False
    for epoch in range(1, cfg.epochs + 1):
        stats = train_epoch(model, train_ds, optimizer, cfg.batch_size, rng)
        val = validation_loss(model, val_ds, cfg.batch_size)
        record = {
            "epoch": epoch,
            "train_total": stats.total,
            "train_components": stats.components,
            "val_total": val.total,
            "val_components": val.components,
            "lr": optimizer.lr,
        }
        history.append(record)
        val_values.append(val.total)
        if log is not None:
            comps = "|".join(f"{c:.6f}" for c in stats.components)
            log(
                f"epoch={epoch} train_loss={stats.total:.6f} train_components={comps} "
                f"val_loss={val.total:.6f} lr={optimizer.lr:.6g}"
            )
        if val.total < best_val:
            best_val = val.total
            best_epoch = epoch
            best_params = optimizer.flat.copy()
        if should_stop(val_values, cfg.patience):
            stopped = True
            break
        optimizer.lr *= cfg.lr_decay
    if best_params is not None:
        optimizer.flat[:] = best_params
    return FitResult(history=history, best_epoch=best_epoch, best_val=best_val, stopped_early=stopped)


def _tensor_table(named: list[tuple[str, Tensor]]) -> list[dict]:
    """The manifest's ``tensors`` entries: each parameter's name, shape and byte count, in payload order."""
    return [{"name": name, "shape": list(t.shape), "byte_length": t.size * 8} for name, t in named]


def save_checkpoint(path: str, model: StackedSCINet, extras: dict | None = None) -> None:
    """Write manifest + NUL + concatenated little-endian float64 parameter blobs.

    ``extras`` lands verbatim in the manifest (json-serializable values only);
    callers use it for normalization stats, training history, and the like.
    The bytes go to ``<path>.tmp``, are synced, and replace ``path`` in one
    rename, so a save that fails part-way leaves the previous file intact.
    """
    named = model.named_parameters()
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(model.config),
        "extras": extras or {},
        "tensors": _tensor_table(named),
    }
    payload = json.dumps(manifest, indent=2).encode("utf-8")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(b"\n\x00")
            for _, t in named:
                fh.write(t.data.astype("<f8", copy=False).tobytes(order="C"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> tuple[StackedSCINet, dict]:
    """Rebuild the model a checkpoint describes and load its parameters."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    sep = raw.find(b"\x00")
    if sep < 0:
        raise CheckpointError(f"checkpoint {path} has no manifest terminator")
    try:
        manifest = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"checkpoint {path} manifest is not valid json: {e}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"checkpoint {path} manifest is not a json object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint format version {version!r} unsupported; expected {CHECKPOINT_VERSION}")
    try:
        model = build_model(ModelConfig(**manifest["model_config"]))
    except (KeyError, TypeError, ConfigError) as e:
        raise CheckpointError(f"checkpoint {path} has an invalid model_config: {e}") from None
    named = model.named_parameters()
    stored, table = manifest.get("tensors"), _tensor_table(named)
    if stored != table:
        at, (got, want) = next(
            (i, pair) for i, pair in enumerate(zip_longest(stored if isinstance(stored, list) else [], table))
            if pair[0] != pair[1]
        )
        raise CheckpointError(f"checkpoint {path} tensor {at} is {got!r}; the model expects {want!r}")
    blob = raw[sep + 1:]
    offset = 0
    for name, t in named:
        length = t.size * 8
        chunk = blob[offset:offset + length]
        if len(chunk) < length:
            raise CheckpointError(f"tensor {name!r}: expected {length} bytes, file holds {len(chunk)}")
        t.data = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(t.shape)
        offset += length
    if offset != len(blob):
        raise CheckpointError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return model, manifest
