"""Workload definitions, seeded inputs, and the timed rounds that drive scinet.

A run writes its inputs, plays one untimed toy round that warms every code
path, then whole rounds until the time budget is spent. A round is the same
fixed list of operations on every run: scinet's set-up (``Runner.prepare``),
train, infer, and the CLI commands eval, predict, pe and pe --checkpoint.
Each operation is timed alone; each metric is the upper quartile of the run's
durations of that operation (see ``slow_quartile``).

Every call into scinet goes through a module attribute (``train.fit``, not a
name bound at import), so the traced run's patched wrappers are the ones
called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import resource
import statistics
import time
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

import reference as ref
from scinet import cli, data, model, train

LOOK_BACK = 48
HORIZON = 24
EPOCHS = 1  # patience is the same, so early stopping cannot fire
NOISE = 0.15
SETUP_REPS = 5  # timed set-ups per round; cheap, and not counted as operations
PE_ORDER = 6
PE_LAG = 1
TRAIN_SEED = 42
SWAP_SEED = 20210617  # fixed: the column-swap inputs must not depend on --seed
SWAP_ROWS = 600
FORWARD_SAMPLES = 16
ETTH1_COLUMNS = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
START = datetime(2016, 7, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    variates: int
    levels: int
    stacks: int
    rows: int  # the series train and eval read; predict reads its test segment
    long_rows: int  # the series pe reads; the training series is its last `rows` rows
    periods: tuple[float, ...]
    via_cli: bool  # train with `scinet train` instead of train.fit
    swap_eval: bool  # add the column-swapped eval, which fails today
    reps: dict  # per-round repeats of each operation
    beats_repeat_last: bool = True  # check the trained model against the repeat-last forecast

    def toy(self) -> "Workload":
        """The same operations on a series a few seconds can train on; too small to beat repeat-last."""
        return dataclasses.replace(self, rows=400, long_rows=max(400, min(self.long_rows, 600)),
                                   reps={k: 1 for k in self.reps}, beats_repeat_last=False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_narrow", variates=3, levels=4, stacks=2, rows=2000, long_rows=2000,
                 periods=(24.0, 50.0, 168.0, 11.0), via_cli=False, swap_eval=False,
                 reps={"train": 1, "infer": 4, "eval": 3, "predict": 4, "pe": 10, "pe_ckpt": 5}),
        Workload("train_wide", variates=21, levels=3, stacks=1, rows=2000, long_rows=2000,
                 periods=(24.0, 50.0, 168.0, 11.0), via_cli=False, swap_eval=False,
                 reps={"train": 1, "infer": 2, "eval": 2, "predict": 1, "pe": 6, "pe_ckpt": 4}),
        Workload("forecast_cli", variates=7, levels=3, stacks=1, rows=2000, long_rows=17420,
                 periods=(24.0, 168.0, 12.0, 8.0), via_cli=True, swap_eval=True,
                 reps={"train": 2, "infer": 3, "eval": 3, "predict": 3, "pe": 3, "pe_ckpt": 3}),
    )
}

TIMED_OPS = ("setup", "train", "infer", "eval", "predict", "pe", "pe_ckpt")


def seasonal_series(seed: int, rows: int, variates: int, periods) -> np.ndarray:
    """Fixed mixtures of shared sinusoids plus white noise.

    The mixing weights depend only on the variate index, so a seed changes
    phases and noise but not how hard the series is to forecast; that keeps
    the trained loss steady across seeds.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    latent = np.stack([np.sin(2.0 * np.pi * t / p + rng.uniform(0.0, 2.0 * np.pi)) for p in periods], axis=1)
    k = np.arange(len(periods))[None, :]
    v = np.arange(variates)[:, None]
    mix = np.cos(1.3 * v * (k + 1) + 0.7 * k)
    level = 2.0 + np.arange(variates)
    return latent @ mix.T + level + NOISE * rng.standard_normal((rows, variates))


def column_names(variates: int) -> list[str]:
    return ETTH1_COLUMNS if variates == len(ETTH1_COLUMNS) else [f"v{i}" for i in range(variates)]


def write_series(path: str, values: np.ndarray, names: list[str]) -> None:
    stamps = [(START + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S") for i in range(values.shape[0])]
    with open(path, "w") as fh:
        fh.write(",".join(["date"] + names) + "\n")
        for stamp, row in zip(stamps, values.tolist()):
            fh.write(stamp + "," + ",".join(map(repr, row)) + "\n")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Runner:
    """One workload at one seed: its inputs, its rounds, and their checks."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)
        self.paths = {name: os.path.join(workdir, name) for name in (
            "series.csv", "recent.csv", "long.csv", "model.ckpt", "train.cfg", "report.txt", "forecast.csv",
            "swap.csv", "swap.ckpt", "swap_report.txt")}
        self.names = column_names(workload.variates)
        self.samples: dict[str, list[float]] = {op: [] for op in TIMED_OPS}
        self.best_val: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: dict[str, str] | None = None
        self.rss_after_first_round: float | None = None

    # ---- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Generate and write the inputs, then prepare them once."""
        w = self.w
        self.long_values = seasonal_series(self.seed, w.long_rows, w.variates, w.periods)
        self.values = self.long_values[w.long_rows - w.rows:]
        write_series(self.paths["series.csv"], self.values, self.names)
        # the test segment alone, so predict emits exactly the windows eval scores
        self.recent = self.values[ref.ratio_split(w.rows)[2][0]:]
        write_series(self.paths["recent.csv"], self.recent, self.names)
        if w.long_rows != w.rows:
            write_series(self.paths["long.csv"], self.long_values, self.names)
        else:
            self.paths["long.csv"] = self.paths["series.csv"]
        self.model_config = model.ModelConfig(
            look_back=LOOK_BACK, horizon=HORIZON, n_variates=w.variates, levels=w.levels,
            stacks=w.stacks, dropout=0.5, seed=TRAIN_SEED)
        self.train_config = train.TrainConfig(epochs=EPOCHS, batch_size=32, patience=EPOCHS, seed=TRAIN_SEED)
        if w.via_cli:
            with open(self.paths["train.cfg"], "w") as fh:
                fh.write(f"data_path={self.paths['series.csv']}\nlook_back={LOOK_BACK}\nhorizon={HORIZON}\n"
                         f"levels={w.levels}\nstacks={w.stacks}\nepochs={EPOCHS}\npatience={EPOCHS}\n"
                         f"dropout=0.5\nbatch_size=32\nseed={TRAIN_SEED}\n"
                         f"checkpoint_path={self.paths['model.ckpt']}\n")
        if w.swap_eval:
            self._setup_swap()
        self.prepare()

    def prepare(self) -> float:
        """scinet's part of set-up: read the series, split, normalize, window; returns its wall time."""
        t0 = time.perf_counter()
        frame = data.load_csv(self.paths["series.csv"])
        ranges = data.split(frame, data.SplitSpec.parse("ratio:6,2,2"))
        self.stats = data.fit_normalizer(frame, ranges[0])
        normed = self.stats.apply(frame.values)
        self.datasets = [data.WindowDataset(normed, r, LOOK_BACK, HORIZON) for r in ranges]
        return time.perf_counter() - t0

    def _setup_swap(self) -> None:
        """A fixed series, an untrained cross-mixing checkpoint, and the series with its columns reversed."""
        values = seasonal_series(SWAP_SEED, SWAP_ROWS, self.w.variates, self.w.periods)
        train_rows = values[:ref.ratio_split(SWAP_ROWS)[0][1]]
        cfg = dataclasses.replace(self.model_config, levels=2, stacks=1, identity_init=False, seed=SWAP_SEED)
        net = model.build_model(cfg)
        extras = {"split": "ratio:6,2,2", "timestamp_column": "date", "metrics_scale": "normalized",
                  "variate_names": self.names, "norm_mean": train_rows.mean(axis=0).tolist(),
                  "norm_std": train_rows.std(axis=0).tolist()}
        train.save_checkpoint(self.paths["swap.ckpt"], net, extras)
        order = list(reversed(range(self.w.variates)))
        write_series(self.paths["swap.csv"], values[:, order], [self.names[i] for i in order])
        manifest, tensors = ref.read_checkpoint(self.paths["swap.ckpt"])
        normed = (values - np.asarray(extras["norm_mean"])) / np.asarray(extras["norm_std"])
        start, stop = ref.ratio_split(SWAP_ROWS)[2]
        xs, ys = ref.windows(normed, range(start, stop - LOOK_BACK - HORIZON + 1), LOOK_BACK, HORIZON)
        err = ref.reference_forward(manifest, tensors, xs) - ys
        self.swap_truth = {"mae": float(np.mean(np.abs(err))), "mse": float(np.mean(err * err))}

    # ---- one round ------------------------------------------------------------

    def round(self) -> float:
        """Run each operation `reps` times; returns the summed wall of the timed calls."""
        w = self.w
        outputs: dict[str, str] = {}
        wall = 0.0

        def timed(fn, *args):
            nonlocal wall
            gc.collect()
            t0 = time.perf_counter()
            result = fn(*args)
            dt = time.perf_counter() - t0
            wall += dt
            self.attempted += 1
            return result, dt

        def command(op, argv, out_key):
            (code, out, err), dt = timed(run_cli, argv)
            if code != 0:
                self.failed += 1
                self.problems.append(f"{op}: exit {code}: {err.strip()}")
                return None
            self.samples[op].append(dt)
            digest = hashlib.sha256(out.encode()).hexdigest()
            if outputs.setdefault(out_key, digest) != digest:
                self.problems.append(f"{op}: output changed between repeats")
            return out

        for _ in range(SETUP_REPS):
            gc.collect()
            self.samples["setup"].append(self.prepare())
        for _ in range(w.reps["train"]):
            net, best_val, dt = self._train(timed)
            self.samples["train"].append(dt)
            self.best_val.append(best_val)
            digest = _digest(self.paths["model.ckpt"])
            if outputs.setdefault("checkpoint", digest) != digest:
                self.problems.append("train: checkpoint changed between repeats")

        for _ in range(w.reps["infer"]):
            (val, test), dt = timed(lambda: (train.predict_windows(net, self.datasets[1]),
                                                      train.predict_windows(net, self.datasets[2])))
            self.samples["infer"].append(dt)
            digest = _array_digest(*val, *test)
            if outputs.setdefault("infer", digest) != digest:
                self.problems.append("infer: predictions changed between repeats")

        ckpt, series, long_csv = self.paths["model.ckpt"], self.paths["series.csv"], self.paths["long.csv"]
        for _ in range(w.reps["eval"]):
            eval_text = command("eval", ["eval", ckpt, series, "--out", self.paths["report.txt"]], "eval")
        if w.swap_eval:
            self._swap_eval(timed)
        for _ in range(w.reps["predict"]):
            command("predict", ["predict", ckpt, self.paths["recent.csv"], "--emit", self.paths["forecast.csv"]],
                    "predict")
            digest = _digest(self.paths["forecast.csv"])
            if outputs.setdefault("forecast", digest) != digest:
                self.problems.append("predict: emitted rows changed between repeats")
        for _ in range(w.reps["pe"]):
            pe_text = command("pe", ["pe", long_csv], "pe")
        for _ in range(w.reps["pe_ckpt"]):
            pe_ckpt_text = command("pe_ckpt", ["pe", long_csv, "--checkpoint", ckpt], "pe_ckpt")

        if self.first_outputs is None:
            self.rss_after_first_round = peak_rss_mb()
            self.first_outputs = outputs
            if None not in (eval_text, pe_text, pe_ckpt_text):
                self._check(net, val, test, eval_text, pe_text, pe_ckpt_text)
        elif outputs != self.first_outputs:
            changed = sorted(k for k in outputs if outputs[k] != self.first_outputs.get(k))
            self.problems.append(f"outputs changed between rounds: {changed}")
        if len(set(self.best_val)) != 1:
            self.problems.append(f"best_val_loss changed between repeats: {sorted(set(self.best_val))}")
        return wall

    def _train(self, timed):
        """One timed training run; returns the trained model, its best validation loss and the wall."""
        if self.w.via_cli:
            (code, _, err), dt = timed(run_cli, ["train", self.paths["train.cfg"]])
            if code != 0:
                raise RuntimeError(f"scinet train exited {code}: {err.strip()}")
            net, manifest = train.load_checkpoint(self.paths["model.ckpt"])
            return net, float(manifest["extras"]["best_val"]), dt
        net = model.build_model(self.model_config)
        result, dt = timed(train.fit, net, self.datasets[0], self.datasets[1], self.train_config)
        train.save_checkpoint(self.paths["model.ckpt"], net, {
            "split": "ratio:6,2,2", "timestamp_column": "date", "metrics_scale": "normalized",
            "variate_names": self.names, "norm_mean": self.stats.mean.tolist(),
            "norm_std": self.stats.std.tolist(), "best_val": float(result.best_val)})
        return net, float(result.best_val), dt

    def _swap_eval(self, timed) -> None:
        """Counted as failed unless the mismatch is refused by name or is harmless."""
        (code, out, err), _ = timed(run_cli, [
            "eval", self.paths["swap.ckpt"], self.paths["swap.csv"], "--out", self.paths["swap_report.txt"]])
        if code == 2 and any(name in err for name in self.names):
            return
        got = ref.parse_lines(out)
        if code == 0 and all(abs(got.get(k, np.nan) - v) <= 1e-9 * abs(v) for k, v in self.swap_truth.items()):
            return
        self.failed += 1

    # ---- checks against the reference ------------------------------------------

    def _check(self, net, val, test, eval_text, pe_text, pe_ckpt_text) -> None:
        w = self.w
        manifest, tensors = ref.read_checkpoint(self.paths["model.ckpt"])
        problems = ref.check_norm(manifest, self.values)
        if problems:
            self.problems += problems
            return
        extras = manifest["extras"]
        normed = (self.values - np.asarray(extras["norm_mean"])) / np.asarray(extras["norm_std"])
        rng = np.random.default_rng(self.seed)
        segments = ref.ratio_split(w.rows)
        for (pred, truth), (start, stop), name in ((val, segments[1], "val"), (test, segments[2], "test")):
            pick = rng.choice(len(pred), size=min(FORWARD_SAMPLES, len(pred)), replace=False)
            xs, ys = ref.windows(normed, start + pick, LOOK_BACK, HORIZON)
            if not np.allclose(truth[pick], ys, rtol=0.0, atol=ref.CELL_TOL):
                problems.append(f"infer: {name} targets differ from the normalized source rows")
            problems += ref.check_forward(manifest, tensors, xs, pred[pick], f"infer on {name} windows")
        val_mae = float(np.mean(np.abs(val[0] - val[1])))
        baseline = ref.repeat_last_mae(normed, segments[1], LOOK_BACK, HORIZON)
        if w.beats_repeat_last and not val_mae < baseline:
            problems.append(f"final-stack validation MAE {val_mae:.4f} does not beat repeat-last {baseline:.4f}")
        rows = ref.read_predictions(self.paths["forecast.csv"], w.variates, HORIZON)
        n_win = rows.shape[0]
        pick = np.sort(rng.choice(n_win, size=min(FORWARD_SAMPLES, n_win), replace=False)) if n_win else []
        problems += ref.check_rows(rows, self.recent, manifest, tensors, pick)
        problems += ref.check_eval(eval_text, rows)
        problems += ref.check_pe(pe_text, self.long_values, self.names, PE_ORDER, PE_LAG)
        tiled = (w.long_rows // LOOK_BACK) * LOOK_BACK
        problems += ref.check_pe(pe_ckpt_text, self.long_values, self.names, PE_ORDER, PE_LAG, prefix_rows=tiled)
        self.problems += problems
        self.val_mae, self.baseline_mae = val_mae, baseline

    # ---- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        t = {op: slow_quartile(s) for op, s in self.samples.items()}
        # A run holds only two to eight trainings, too few for a quartile to
        # reach past the median, so training reads the slowest of them.
        t["train"] = max(self.samples["train"])
        return {
            "setup_s": (t["setup"], "s"),
            "train.windows_per_s": (len(self.datasets[0]) * EPOCHS / t["train"], "windows/s"),
            "train.best_val_loss": (self.best_val[0], "nMAE"),
            "infer.windows_per_s": ((len(self.datasets[1]) + len(self.datasets[2])) / t["infer"], "windows/s"),
            "cmd.eval_s": (t["eval"], "s"),
            "cmd.predict_s": (t["predict"], "s"),
            "cmd.pe_s": (t["pe"], "s"),
            "cmd.pe_ckpt_s": (t["pe_ckpt"], "s"),
        }


def slow_quartile(times: list[float]) -> float:
    """Upper quartile of a run's durations.

    The host alternates between phases in which everything runs up to 1.6x
    faster; a median moves with the share of fast phases a run happens to
    get, while the upper quartile reads the slow phase every run contains.
    """
    return statistics.quantiles(times, n=4, method="inclusive")[2] if len(times) > 1 else times[0]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
