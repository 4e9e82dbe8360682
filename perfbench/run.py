"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --grid

Run from the root of a checkout; scinet is imported from its ``src``
directory and nowhere else. With ``--trace 0`` the last line of standard
output is a JSON object with every end-to-end metric; with ``--trace 1``
untraced and traced rounds alternate and the object holds every per-layer
metric, the tracing overhead and the share of traced time the layer spans
cover. ``--grid`` prints the training and inference grid of README.md.
"""

from __future__ import annotations

import os
import sys

# Set before NumPy loads: one BLAS thread keeps the second vCPU's contention out of the timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402


def _import_program():
    try:
        import scinet
    except ImportError as e:
        sys.exit(f"error: cannot import scinet from {SRC}: {e}")
    if not os.path.abspath(scinet.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: scinet was imported from {scinet.__file__}, not from {SRC}")


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def within(seconds: float, step) -> None:
    """Call step() whole, again while one more call as long as the last fits the budget."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import workloads
    from tracing import Tracer

    spec = workloads.WORKLOADS[workload_name]
    runner = workloads.Runner(spec, seed, workdir)
    runner.setup()
    warm = workloads.Runner(spec.toy(), seed, os.path.join(workdir, "warm"))
    warm.setup()
    warm.round()
    problems = [f"toy round: {p}" for p in warm.problems]

    if not trace:
        within(seconds, runner.round)
        metrics = runner.metrics()
        metrics["peak_rss_mb"] = (runner.rss_after_first_round, "MB")
    else:
        tracer = Tracer(workloads.LOOK_BACK)
        plain, traced = [], []

        def pair():
            plain.append(runner.round())
            with tracer.patched():
                traced.append(runner.round())

        within(seconds, pair)
        metrics = tracer.layer_metrics(len(traced))
        predict_bytes = os.path.getsize(runner.paths["forecast.csv"])
        windows = len(runner.recent) - workloads.LOOK_BACK - workloads.HORIZON + 1
        metrics.update({
            "train.checkpoint_bytes": (float(os.path.getsize(runner.paths["model.ckpt"])), "bytes"),
            "cli.predict.rows": (float(spec.reps["predict"] * windows * workloads.HORIZON * spec.variates), "count"),
            "cli.predict.bytes": (float(spec.reps["predict"] * predict_bytes), "bytes"),
            "trace.overhead_pct": (100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%"),
            "trace.coverage_pct": (tracer.coverage_pct(), "%"),
        })
        if tracer.coverage_pct() < 90.0:
            problems.append(f"layer spans cover {tracer.coverage_pct():.1f}% of the traced wall time, under 90%")
    problems += runner.problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}


def grid(seed: int) -> None:
    """Epoch time, training and inference throughput over variates x levels, one stack."""
    import numpy as np
    import workloads
    from scinet import data, model, train

    print("| d | levels | train epoch | train win/s | inference win/s (batch 256) |")
    print("|---|---|---|---|---|")
    for d, levels in ((3, 3), (7, 3), (21, 3), (3, 4), (7, 4), (21, 4)):
        values = workloads.seasonal_series(seed, 2000, d, (24.0, 50.0, 168.0, 11.0))
        frame = data.TimeSeriesFrame(values, workloads.column_names(d))
        ranges = data.split(frame, data.SplitSpec.parse("ratio:6,2,2"))
        normed = data.fit_normalizer(frame, ranges[0]).apply(values)
        tr, va, te = (data.WindowDataset(normed, r, workloads.LOOK_BACK, workloads.HORIZON) for r in ranges)
        cfg = model.ModelConfig(workloads.LOOK_BACK, workloads.HORIZON, d, levels=levels, dropout=0.5)
        epochs, infers = [], []
        for _ in range(3):
            net = model.build_model(cfg)
            opt = train.Adam(net.parameters(), lr=1e-3, clip_norm=5.0)
            t0 = time.perf_counter()
            train.train_epoch(net, tr, opt, 32, np.random.default_rng(seed))
            epochs.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            train.predict_windows(net, va)
            train.predict_windows(net, te)
            infers.append((len(va) + len(te)) / (time.perf_counter() - t0))
        epoch = statistics.median(epochs)
        print(f"| {d} | {levels} | {epoch:.2f} s | {len(tr) / epoch:.0f} | {statistics.median(infers):.0f} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", action="store_true")
    args = parser.parse_args()
    _import_program()
    if args.grid:
        grid(args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(_result(**result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
