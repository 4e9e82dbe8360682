"""Time ``data.load_csv`` and the ``scinet predict`` emission over a grid of CSV shapes.

    python3 scripts/io_grid.py --src OTHER/src --src src --rounds 5 > grid.json

Each ``--src`` is a scinet source tree. The inputs are written once, before
any timing, into a temporary directory: an hourly CSV with a ``date`` column
and repr floats (as ``perfbench`` writes its series) for every rows x
variates pair of the grid. A round runs one worker process per tree, in the
rotating order of ``trees.py``, and a worker times, per shape, the median of
REPEATS calls and the minor page faults per call ("_faults" keys; the others
are milliseconds per call):

- ``load``: ``data.load_csv`` of the file, rows {400, 2000, 17420} x
  variates {3, 7, 21}.
- ``emit``: ``cli.cmd_predict`` with the checkpoint restore and the model's
  forward replaced by fixed arrays, so what is timed is the windowing and the
  writing of the forecast CSV, at look-back 48 and horizon 24 (perfbench's).
  The patched restore returns the file's values as the normalized series. A
  tree whose predict takes the truth column from that series (each cell
  formatted once) never reads the patched forward's random ``truth`` array;
  the timing still covers the whole emission, which writes the same number
  of rows and cells either way.
  Rows {400, 2000} x variates {3, 7, 21}: 400 rows at 21 variates emit
  165,816 rows, the size of ``train_wide``'s predict. 17,420 rows are left
  out here: at 21 variates they would emit 8.7 million rows (0.4 GB of text)
  per call.

The output gives, per tree and key, the median and quartiles over the rounds,
and the machine it ran on.
"""

import csv
import json
import os
import statistics
import sys
import tempfile
import time

import trees

REPEATS = 5
EMIT_REPEATS = 3
LOAD_GRID = [(rows, d) for rows in (400, 2000, 17420) for d in (3, 7, 21)]
EMIT_GRID = [(rows, d) for rows in (400, 2000) for d in (3, 7, 21)]
LOOK_BACK, HORIZON = 48, 24


def _name(rows: int, d: int) -> str:
    return f"r{rows}_d{d}"


def write_inputs(directory: str) -> None:
    import datetime

    import numpy as np

    rng = np.random.default_rng(0)
    start = datetime.datetime(2016, 7, 1)
    for rows, d in LOAD_GRID:
        values = rng.normal(size=(rows, d)).cumsum(axis=0)
        with open(os.path.join(directory, _name(rows, d) + ".csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date"] + [f"v{i}" for i in range(d)])
            for t, row in enumerate(values.tolist()):
                writer.writerow([str(start + datetime.timedelta(hours=t))] + row)


def _timed(fn, repeats: int) -> tuple[float, float]:
    """Median milliseconds per call and minor page faults per call, after one untimed call."""
    fn()
    before, times = trees.minflt(), []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, (trees.minflt() - before) / repeats


def worker(directory: str) -> None:
    import contextlib
    import io
    from types import SimpleNamespace

    import numpy as np
    from scinet import cli, data

    out = {}
    for rows, d in LOAD_GRID:
        path = os.path.join(directory, _name(rows, d) + ".csv")
        out[f"load_{_name(rows, d)}"], out[f"load_{_name(rows, d)}_faults"] = _timed(
            lambda: data.load_csv(path), REPEATS)
    rng = np.random.default_rng(1)
    for rows, d in EMIT_GRID:
        path = os.path.join(directory, _name(rows, d) + ".csv")
        frame = data.load_csv(path)
        windows = rows - LOOK_BACK - HORIZON + 1
        pred, truth = rng.normal(size=(2, windows, d, HORIZON))
        model = SimpleNamespace(config=SimpleNamespace(look_back=LOOK_BACK, horizon=HORIZON))
        stats = data.NormStats(mean=np.zeros(d), std=np.ones(d))
        cli._restore = lambda checkpoint, path, frame=frame: (
            model, {"metrics_scale": "normalized"}, stats, frame, frame.values)
        cli.predict_windows = lambda model, dataset, pred=pred, truth=truth: (pred, truth)
        args = SimpleNamespace(checkpoint="", data=path, emit=os.path.join(directory, f"emit-{os.getpid()}.csv"),
                               scale=None)

        def emit():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.cmd_predict(args)

        out[f"emit_{_name(rows, d)}"], out[f"emit_{_name(rows, d)}_faults"] = _timed(emit, EMIT_REPEATS)
        os.remove(args.emit)
    print(json.dumps(out))


def main() -> None:
    args = trees.parse(__doc__, rounds=5)
    runs = {src: [] for src in args.src}
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        for order in trees.rotations(args.src, args.rounds):
            for src in order:
                runs[src].append(trees.run(__file__, src, directory))
    print(json.dumps({"machine": trees.machine(), "rounds": args.rounds, "repeats": REPEATS,
                      "emit_repeats": EMIT_REPEATS, "look_back": LOOK_BACK, "horizon": HORIZON,
                      "timings": {src: trees.summarize(rounds, 2, "ms") for src, rounds in runs.items()}}, indent=1))


if __name__ == "__main__":
    trees.dispatch(worker, main)
