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

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError
from .metrics import MetricReport, compute_metrics
from .model import ModelConfig, StackedSCINet, build_model, compute_loss
from .data import WindowDataset, batch_iter
from .tensor import Tape, Tensor, backward

CHECKPOINT_VERSION = 1


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

    Parameters with no accumulated gradient are treated as having zero
    gradient. ``step`` consumes and clears every ``grad``.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float = 0.0,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in self.params]
        if self.clip_norm > 0:
            total = math.sqrt(sum(float((g * g).sum()) for g in grads))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                # grads may alias each other; scale by rebinding, never in place
                grads = [g * scale for g in grads]
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
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
                biggest = max(float(np.max(np.abs(p.data))) for p in model.parameters())
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


def predict_windows(model: StackedSCINet, dataset: WindowDataset, batch_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Final-stack predictions and truths as (windows, variates, horizon) arrays."""
    preds = []
    truths = []
    for xb, yb in batch_iter(dataset, batch_size, shuffle=False):
        outputs = model.forward(xb, training=False)
        preds.append(outputs[-1].data)
        truths.append(yb.data)
    return np.concatenate(preds, axis=0), np.concatenate(truths, axis=0)


def evaluate(model: StackedSCINet, dataset: WindowDataset, batch_size: int = 256) -> MetricReport:
    pred, truth = predict_windows(model, dataset, batch_size)
    return compute_metrics(pred, truth)


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
    best_params: list[np.ndarray] | None = None
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
            best_params = [p.data.copy() for p in model.parameters()]
        if should_stop(val_values, cfg.patience):
            stopped = True
            break
        optimizer.lr *= cfg.lr_decay
    if best_params is not None:
        for p, saved in zip(model.parameters(), best_params):
            p.data = saved
    return FitResult(history=history, best_epoch=best_epoch, best_val=best_val, stopped_early=stopped)


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
        "tensors": [
            {"name": name, "shape": list(t.shape), "byte_length": t.size * 8} for name, t in named
        ],
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
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint format version {version!r} unsupported; expected {CHECKPOINT_VERSION}")
    try:
        config = ModelConfig(**manifest["model_config"])
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"checkpoint {path} has an invalid model_config: {e}") from None
    model = build_model(config)
    named = model.named_parameters()
    entries = manifest.get("tensors", [])
    if len(entries) != len(named):
        raise CheckpointError(f"checkpoint lists {len(entries)} tensors, model has {len(named)}")
    blob = raw[sep + 1:]
    offset = 0
    for entry, (name, t) in zip(entries, named):
        if entry["name"] != name:
            raise CheckpointError(f"tensor order mismatch: checkpoint has {entry['name']!r}, model expects {name!r}")
        shape = tuple(entry["shape"])
        if shape != t.shape:
            raise CheckpointError(f"tensor {name!r}: checkpoint shape {shape} vs model shape {t.shape}")
        length = int(entry["byte_length"])
        if length != t.size * 8:
            raise CheckpointError(f"tensor {name!r}: declared byte length {length} does not match shape {shape}")
        chunk = blob[offset:offset + length]
        if len(chunk) < length:
            raise CheckpointError(f"tensor {name!r}: expected {length} bytes, file holds {len(chunk)}")
        t.data = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        offset += length
    if offset != len(blob):
        raise CheckpointError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return model, manifest
