"""Time inference and one training epoch of scinet source trees, alternating.

    python3 scripts/step_ab.py --src OTHER/src --src src --rounds 8 > step.json

Each ``--src`` is a scinet source tree. One worker process per tree imports
scinet from it with one BLAS thread (as ``perfbench/run.py`` does) and stays
up for the whole run. Every round feeds each workload shape to the workers in
turn, the order of the trees rotating from round to round, so slow phases of
the host fall on every tree alike. A worker times ``predict_windows`` over
the validation and the test windows, then one ``fit`` epoch (validation
included) of a freshly built model, and counts the minor page faults
(``ru_minflt``) of each, since the heap's faults can move a timing more than
the code does.

The shapes are the benchmark workloads' models: look-back 48, horizon 24,
batch 32, dropout 0.5 on a 2000-row seeded series split 6:2:2, with
d / levels / stacks 3 / 4 / 2 (train_narrow), 21 / 3 / 1 (train_wide) and
7 / 3 / 1 (forecast_cli). The output gives per tree and workload the median
and quartiles of windows/s over the rounds, each round's ratio of every tree
to the first one, the median minor faults per inferred and per trained
window, and the best validation loss each tree reached.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from conv1d_grid import machine

SHAPES = {"train_narrow": (3, 4, 2), "train_wide": (21, 3, 1), "forecast_cli": (7, 3, 1)}
ROWS, LOOK_BACK, HORIZON, SEED = 2000, 48, 24, 42


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def worker() -> None:
    from scinet import data, model, train

    cases = {}
    for name, (variates, levels, stacks) in SHAPES.items():
        frame = data.synthetic_frame(ROWS, variates, seed=SEED)
        ranges = data.split(frame, data.SplitSpec.parse("ratio:6,2,2"))
        normed = data.fit_normalizer(frame, ranges[0]).apply(frame.values)
        cfg = model.ModelConfig(look_back=LOOK_BACK, horizon=HORIZON, n_variates=variates, levels=levels,
                                stacks=stacks, dropout=0.5, seed=SEED)
        cases[name] = cfg, [data.WindowDataset(normed, r, LOOK_BACK, HORIZON) for r in ranges]
    for line in sys.stdin:
        cfg, (train_ds, val_ds, test_ds) = cases[line.strip()]
        net = model.build_model(cfg)
        faults, t0 = _minflt(), time.perf_counter()
        for ds in (val_ds, test_ds):
            train.predict_windows(net, ds)
        infer_s, infer_faults = time.perf_counter() - t0, _minflt() - faults
        faults, t0 = _minflt(), time.perf_counter()
        result = train.fit(net, train_ds, val_ds, train.TrainConfig(epochs=1, batch_size=32, patience=1, seed=SEED))
        train_s, train_faults = time.perf_counter() - t0, _minflt() - faults
        inferred = len(val_ds) + len(test_ds)
        print(json.dumps({"infer": inferred / infer_s, "train": len(train_ds) / train_s,
                          "infer_faults": infer_faults / inferred, "train_faults": train_faults / len(train_ds),
                          "best_val": repr(float(result.best_val))}), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", action="append", required=True, help="a scinet source tree (repeatable)")
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 to give quartiles")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workers = {src: subprocess.Popen([sys.executable, __file__, "--worker"], env=dict(env, PYTHONPATH=src),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for src in args.src}
    runs = {src: {name: [] for name in SHAPES} for src in args.src}
    try:
        for r in range(args.rounds):
            for name in SHAPES:
                for src in args.src[r % len(args.src):] + args.src[:r % len(args.src)]:
                    proc = workers[src]
                    proc.stdin.write(name + "\n")
                    proc.stdin.flush()
                    runs[src][name].append(json.loads(proc.stdout.readline()))
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    first = args.src[0]
    result = {}
    for src in args.src:
        result[src] = {}
        for name, rounds in runs[src].items():
            entry = {}
            for metric in ("infer", "train"):
                q1, med, q3 = statistics.quantiles([run[metric] for run in rounds], n=4, method="inclusive")
                ratios = [run[metric] / base[metric] for run, base in zip(rounds, runs[first][name])]
                entry[metric + "_windows_per_s"] = {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1),
                                                    "ratio_to_first": [round(x, 3) for x in ratios]}
            for metric in ("infer_faults", "train_faults"):
                entry[metric + "_per_window"] = round(statistics.median(run[metric] for run in rounds), 2)
            entry["best_val"] = sorted({run["best_val"] for run in rounds})
            result[src][name] = entry
    print(json.dumps({"machine": machine(), "rounds": args.rounds, "shapes": SHAPES, "results": result}, indent=1))


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        main()
