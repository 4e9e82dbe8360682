"""Command line front end: train, eval, predict, pe, ablate.

Configuration is a flat key=value file (# starts a comment); any key can be
overridden on the command line as ``--key value``. Unknown keys are rejected
up front. Exit codes: 0 success, 1 runtime failure, 2 configuration or
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import NormStats, SplitSpec, TimeSeriesFrame, WindowDataset, fit_normalizer, load_csv, split
from .errors import CheckpointError, ConfigError, DimensionError, ScinetError
from .metrics import PEConfig, compute_metrics, pe_report, permutation_entropy
from .model import ModelConfig, build_model
from .train import TrainConfig, evaluate, fit, load_checkpoint, predict_windows, save_checkpoint

SEED_ENV = "SCINET_SEED"
ABLATION_VARIANTS = ("no_interlearn", "weight_share", "no_residual", "no_decoder")
SCALES = ("normalized", "original")
# the checkpoint extras `train` writes that eval, predict and pe --checkpoint read
RESTORE_EXTRAS = ("norm_mean", "norm_std", "timestamp_column", "split")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _with_library_fields(cls):
    """Make ``cls`` a dataclass that also has every ModelConfig and TrainConfig field it does
    not declare, with its default; n_variates is left out, because the data decides it."""
    for f in fields(ModelConfig) + fields(TrainConfig):
        if f.name != "n_variates" and f.name not in cls.__annotations__:
            cls.__annotations__[f.name] = f.type
            setattr(cls, f.name, f.default)
    return dataclass(cls)


@_with_library_fields
class RunConfig:
    """Every configuration key: the keys the CLI owns and the defaults where it
    differs from the library, then each ModelConfig and TrainConfig field
    (``seed`` feeds both)."""

    data_path: str = ""
    timestamp_column: str = "date"
    split: str = "ratio:6,2,2"
    metrics_scale: str = "normalized"
    checkpoint_path: str = "model.ckpt"
    look_back: int = 48
    horizon: int = 24
    levels: int = 3

    def _build(self, cls, **given):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}, **given)

    def model_config(self, n_variates: int) -> ModelConfig:
        return self._build(ModelConfig, n_variates=n_variates)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def canonical_lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)}" for f in sorted(fields(self), key=lambda f: f.name)]

    def config_hash(self) -> str:
        return hashlib.sha256("\n".join(self.canonical_lines()).encode("utf-8")).hexdigest()


_PARSERS = {str: str, int: int, float: float, bool: _parse_bool}
# each key parses as the type of its default
_KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_kv_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; duplicate keys are an error."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in out:
                raise ConfigError(f"{path} line {lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def parse_overrides(extra: list[str]) -> dict[str, str]:
    """Turn trailing ``--key value`` pairs into a dict."""
    out: dict[str, str] = {}
    i = 0
    while i < len(extra):
        token = extra[i]
        if not token.startswith("--") or len(token) == 2:
            raise ConfigError(f"expected --key value override, got {token!r}")
        key = token[2:]
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            if i + 1 >= len(extra):
                raise ConfigError(f"override --{key} is missing a value")
            value = extra[i + 1]
            i += 1
        out[key] = value
        i += 1
    return out


def resolve_config(file_kv: dict[str, str], overrides: dict[str, str], env: dict = None) -> RunConfig:
    """Defaults, then SCINET_SEED, then the config file, then command line flags."""
    env = os.environ if env is None else env
    cfg = RunConfig()
    if SEED_ENV in env:
        _assign(cfg, "seed", env[SEED_ENV], source=f"environment {SEED_ENV}")
    for source, table in (("config file", file_kv), ("command line", overrides)):
        for key, value in table.items():
            _assign(cfg, key, value, source=source)
    if cfg.metrics_scale not in SCALES:
        raise ConfigError(f"metrics_scale must be one of {SCALES}, got {cfg.metrics_scale!r}")
    SplitSpec.parse(cfg.split)
    return cfg


def _assign(cfg: RunConfig, key: str, value: str, source: str):
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown configuration key {key!r} (from {source})")
    try:
        setattr(cfg, key, _PARSERS[_KEY_TYPES[key]](value))
    except ValueError:
        raise ConfigError(
            f"bad value for {key!r} (from {source}): {value!r} is not a {_KEY_TYPES[key].__name__}"
        ) from None


def _timestamp_column(name: str) -> str | None:
    return None if name.strip().lower() == "none" else name


def _load_frame(path: str, timestamp_column: str) -> TimeSeriesFrame:
    if not os.path.exists(path):
        raise ConfigError(f"data file not found: {path}")
    frame = load_csv(path, _timestamp_column(timestamp_column))
    if frame.rejected_rows:
        print(f"rejected_rows={frame.rejected_rows}", file=sys.stderr)
    return frame


def _train_once(cfg: RunConfig, log=None):
    frame = _load_frame(cfg.data_path, cfg.timestamp_column)
    # surface hyperparameter contradictions before any windowing complaints
    model_cfg = cfg.model_config(frame.n_variates)
    model_cfg.validate()
    ranges = split(frame, SplitSpec.parse(cfg.split))
    stats = fit_normalizer(frame, ranges[0])
    values = stats.apply(frame.values)
    train_ds, val_ds, test_ds = (WindowDataset(values, r, cfg.look_back, cfg.horizon) for r in ranges)
    model = build_model(model_cfg)
    result = fit(model, train_ds, val_ds, cfg.train_config(), log=log)
    return frame, stats, model, result, (train_ds, val_ds, test_ds)


def _in_scale(stats: NormStats, scale: str, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """(windows, variates, horizon) arrays of normalized values, moved to ``scale``."""
    if scale == "original":
        return tuple(stats.invert(a.swapaxes(1, 2)).swapaxes(1, 2) for a in arrays)
    return arrays


def cmd_train(args, overrides: dict[str, str]) -> int:
    cfg = resolve_config(parse_kv_file(args.config), overrides)
    if not cfg.data_path:
        raise ConfigError("data_path is required for training")
    frame, stats, model, result, (train_ds, val_ds, test_ds) = _train_once(cfg, log=print)
    test_report = compute_metrics(*_in_scale(stats, cfg.metrics_scale, *predict_windows(model, test_ds)))
    extras = {
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "split": cfg.split,
        "timestamp_column": cfg.timestamp_column,
        "metrics_scale": cfg.metrics_scale,
        "variate_names": frame.variate_names,
        "norm_mean": [float(v) for v in stats.mean],
        "norm_std": [float(v) for v in stats.std],
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "history": result.history,
    }
    save_checkpoint(cfg.checkpoint_path, model, extras)
    print(f"best_epoch={result.best_epoch} best_val_loss={result.best_val:.6f}")
    for line in test_report.as_lines():
        print("test_" + line)
    print(f"checkpoint={cfg.checkpoint_path}")
    return 0


def _restore(checkpoint: str, data: str):
    """The checkpoint's model and extras, and the dataset normalized with its statistics."""
    model, manifest = load_checkpoint(checkpoint)
    extras = manifest["extras"]
    missing = [key for key in RESTORE_EXTRAS if key not in extras]
    if missing:
        raise CheckpointError(f"checkpoint {checkpoint} lacks the training extras {', '.join(missing)}")
    stats = NormStats(
        mean=np.asarray(extras["norm_mean"], dtype=np.float64),
        std=np.asarray(extras["norm_std"], dtype=np.float64),
    )
    frame = _load_frame(data, extras["timestamp_column"])
    if frame.n_variates != model.config.n_variates:
        raise ConfigError(f"checkpoint {checkpoint} has {model.config.n_variates} variates, {data} has {frame.n_variates}")
    return model, extras, stats, frame, stats.apply(frame.values)


def cmd_eval(args) -> int:
    model, extras, stats, frame, values = _restore(args.checkpoint, args.data)
    ranges = split(frame, SplitSpec.parse(extras["split"]))
    cfg = model.config
    test_ds = WindowDataset(values, ranges[2], cfg.look_back, cfg.horizon)
    scale = args.scale or extras.get("metrics_scale", "normalized")
    report = compute_metrics(*_in_scale(stats, scale, *predict_windows(model, test_ds)))
    lines = [f"scale={scale}"] + report.as_lines()
    for line in lines:
        print(line)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_predict(args) -> int:
    model, extras, stats, frame, values = _restore(args.checkpoint, args.data)
    cfg = model.config
    dataset = WindowDataset(values, (0, frame.length), cfg.look_back, cfg.horizon)
    scale = args.scale or extras.get("metrics_scale", "normalized")
    pred, truth = _in_scale(stats, scale, *predict_windows(model, dataset))
    with open(args.emit, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_id", "step", "variate", "truth", "prediction"])
        for w in range(pred.shape[0]):
            for s in range(pred.shape[2]):
                for v in range(pred.shape[1]):
                    writer.writerow([w, s + 1, v, repr(float(truth[w, v, s])), repr(float(pred[w, v, s]))])
    print(f"windows={pred.shape[0]} rows={pred.shape[0] * pred.shape[1] * pred.shape[2]} emitted={args.emit}")
    return 0


def cmd_pe(args) -> int:
    pe_cfg = PEConfig(order=args.order, lag=args.lag)
    if args.checkpoint:
        model, extras, stats, frame, values = _restore(args.checkpoint, args.data)
        report = pe_report(model, values, pe_cfg)
        for line in report.as_lines(frame.variate_names):
            print(line)
    else:
        frame = _load_frame(args.data, args.timestamp_column)
        scores = [permutation_entropy(frame.values[:, v], pe_cfg) for v in range(frame.n_variates)]
        for name, score in zip(frame.variate_names, scores):
            print(f"pe_original_{name}={score!r}")
        print(f"pe_original_mean={float(np.mean(scores))!r}")
    return 0


def cmd_ablate(args, overrides: dict[str, str]) -> int:
    if args.variant not in ABLATION_VARIANTS:
        raise ConfigError(f"variant must be one of {ABLATION_VARIANTS}, got {args.variant!r}")
    base_cfg = resolve_config(parse_kv_file(args.config), overrides)
    if not base_cfg.data_path:
        raise ConfigError("data_path is required for ablation")
    variant_cfg = replace(base_cfg, **{args.variant: True})
    rows = []
    for label, cfg in (("base", base_cfg), (args.variant, variant_cfg)):
        frame, stats, model, result, (train_ds, val_ds, test_ds) = _train_once(cfg)
        val_report = evaluate(model, val_ds)
        test_report = compute_metrics(*_in_scale(stats, cfg.metrics_scale, *predict_windows(model, test_ds)))
        rows.append((label, result.best_val, val_report.mse, test_report))
        print(f"{label}: best_val_loss={result.best_val:.6f} val_mse={val_report.mse:.6f} "
              f"test_mse={test_report.mse:.6f} test_mae={test_report.mae:.6f}")
    base_mse, variant_mse = rows[0][2], rows[1][2]
    print(f"val_mse_base={base_mse!r}")
    print(f"val_mse_variant={variant_mse!r}")
    print(f"base_beats_variant={str(base_mse < variant_mse).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scinet", description="Even/odd multi-resolution time series forecaster")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a key=value config file")
    p_train.add_argument("config")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test segment of a dataset")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("data")
    p_eval.add_argument("--out", default="eval_report.txt")
    p_eval.add_argument("--scale", choices=SCALES, default=None)

    p_pred = sub.add_parser("predict", help="emit forecasts for every window of a dataset")
    p_pred.add_argument("checkpoint")
    p_pred.add_argument("data")
    p_pred.add_argument("--emit", required=True)
    p_pred.add_argument("--scale", choices=SCALES, default=None)

    p_pe = sub.add_parser("pe", help="permutation entropy of a dataset, optionally also of a model's representation")
    p_pe.add_argument("data")
    p_pe.add_argument("--checkpoint", default=None)
    p_pe.add_argument("--order", type=int, default=6)
    p_pe.add_argument("--lag", type=int, default=1)
    p_pe.add_argument("--timestamp-column", default="date")

    p_abl = sub.add_parser("ablate", help="train base and one ablation variant with matched seeds")
    p_abl.add_argument("config")
    p_abl.add_argument("--variant", required=True, choices=list(ABLATION_VARIANTS))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command in ("train", "ablate"):
            overrides = parse_overrides(extra)
            return cmd_train(args, overrides) if args.command == "train" else cmd_ablate(args, overrides)
        if extra:
            raise ConfigError(f"unexpected arguments: {' '.join(extra)}")
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "predict":
            return cmd_predict(args)
        if args.command == "pe":
            return cmd_pe(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ScinetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
