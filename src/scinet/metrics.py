"""Forecast error metrics and permutation entropy.

Permutation entropy follows the ordinal-pattern recipe: embed the series in
windows of ``order`` samples spaced ``lag`` apart, map each window to the
permutation that sorts it (ties keep index order), and take the Shannon
entropy of the pattern distribution in natural log, normalized by
log(order!). The result lies in [0, 1]; a constant series scores 0 and the
score is invariant under any strictly increasing transform of the values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .model import INFERENCE_BATCH
from .tensor import Tensor

MAPE_FLOOR = 1e-8


@dataclass
class MetricReport:
    mae: float
    mse: float
    rmse: float
    mape: float
    window_count: int
    horizon: int
    variates: int

    def as_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]


def compute_metrics(pred: np.ndarray, truth: np.ndarray) -> MetricReport:
    """Means over all elements of (windows, variates, horizon) arrays.

    MAPE divides by max(|truth|, 1e-8) elementwise and is reported in
    percent, so near-zero truths cannot blow it up silently.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(f"metrics: prediction shape {pred.shape} vs truth {truth.shape}")
    if pred.ndim != 3:
        raise DimensionError(f"metrics: expected 3-d (windows, variates, horizon), got {pred.shape}")
    err = pred - truth
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err * err))
    mape = float(100.0 * np.mean(np.abs(err) / np.maximum(np.abs(truth), MAPE_FLOOR)))
    return MetricReport(
        mae=mae,
        mse=mse,
        rmse=math.sqrt(mse),
        mape=mape,
        window_count=pred.shape[0],
        horizon=pred.shape[2],
        variates=pred.shape[1],
    )


@dataclass(frozen=True)
class PEConfig:
    order: int = 6
    lag: int = 1

    def validate(self) -> None:
        if self.order < 2:
            raise ConfigError(f"permutation entropy order must be at least 2, got {self.order}")
        if self.lag < 1:
            raise ConfigError(f"permutation entropy lag must be at least 1, got {self.lag}")


def permutation_entropy(series: np.ndarray, cfg: PEConfig) -> float:
    cfg.validate()
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"permutation entropy expects a 1-d series, got shape {x.shape}")
    span = (cfg.order - 1) * cfg.lag + 1
    if x.size <= span:
        raise ConfigError(f"series of {x.size} samples too short for order {cfg.order}, lag {cfg.lag}")
    if not np.all(np.isfinite(x)):
        idx = int(np.flatnonzero(~np.isfinite(x))[0])
        raise NumericError(f"permutation entropy: non-finite sample {x[idx]} at index {idx}")
    order, n_win = cfg.order, x.size - span + 1
    # rank i counts the window's samples below its sample i (a view per i); of two equal samples the later
    # ranks above, as in a stable sort. The sorting permutation's code, sum over r of (index at rank r) *
    # order^r, is then the sum of i * order^rank_i
    cols = [x[i * cfg.lag:i * cfg.lag + n_win] for i in range(order)]
    ranks = [np.full(n_win, order - 1 - i, dtype=np.min_scalar_type(order)) for i in range(order)]
    for i, j in itertools.combinations(range(order), 2):
        above = cols[j] >= cols[i]
        ranks[j] += above
        ranks[i] -= above
    powers = order ** np.arange(order)
    codes = sum(i * powers[ranks[i]] for i in range(1, order))
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    entropy = float(-(p * np.log(p)).sum())
    return entropy / math.log(math.factorial(cfg.order))


@dataclass
class PEReport:
    original: np.ndarray
    enhanced: np.ndarray
    mean_original: float
    mean_enhanced: float

    def as_lines(self, variate_names: list[str] | None = None) -> list[str]:
        lines = []
        for i, (o, e) in enumerate(zip(self.original, self.enhanced)):
            name = variate_names[i] if variate_names else f"v{i}"
            lines.append(f"pe_original_{name}={float(o)!r}")
            lines.append(f"pe_enhanced_{name}={float(e)!r}")
        lines.append(f"pe_original_mean={self.mean_original!r}")
        lines.append(f"pe_enhanced_mean={self.mean_enhanced!r}")
        return lines


def pe_report(model, values: np.ndarray, cfg: PEConfig) -> PEReport:
    """Permutation entropy of a series before and after the first stack's tree.

    ``values`` is a (rows, variates) normalized series. Consecutive
    non-overlapping look-back windows tile the series; each tile's
    pre-decoder representation (post realign and residual) is computed and
    the tiles are concatenated back into one sequence per variate. Both
    entropies are measured on that common support, so an untrained
    identity-initialized model (representation = 2x input) reproduces the
    original entropy exactly.
    """
    cfg.validate()
    look_back = model.config.look_back
    n_var = model.config.n_variates
    if values.ndim != 2 or values.shape[1] != n_var:
        raise DimensionError(f"pe_report expects (rows, {n_var}) values, got {values.shape}")
    tiles = values.shape[0] // look_back
    if tiles < 1:
        raise ConfigError(f"need at least {look_back} rows for one window, got {values.shape[0]}")
    used = values[: tiles * look_back]
    batches = used.reshape(tiles, look_back, n_var).transpose(0, 2, 1)  # (tiles, variates, time)
    reps = [model.representation(Tensor(batches[at:at + INFERENCE_BATCH])).data for at in range(0, tiles, INFERENCE_BATCH)]
    enhanced_series = np.concatenate(reps, axis=0).transpose(1, 0, 2).reshape(n_var, tiles * look_back)
    original_series = used.T
    original = np.array([permutation_entropy(original_series[v], cfg) for v in range(n_var)])
    enhanced = np.array([permutation_entropy(enhanced_series[v], cfg) for v in range(n_var)])
    return PEReport(
        original=original,
        enhanced=enhanced,
        mean_original=float(original.mean()),
        mean_enhanced=float(enhanced.mean()),
    )
