"""Time inference and one training epoch of scinet source trees, alternating.

    python3 scripts/step_ab.py --src OTHER/src --src src --rounds 8 > step.json

Each ``--src`` is a scinet source tree. One worker process per tree (as
``trees.py`` starts them) stays up for the whole run. Every round feeds each
workload shape to the workers in turn, in the rotating order of ``trees.py``.
A worker times ``predict_windows`` over the validation and the test windows,
then one ``fit`` epoch (validation included) of a freshly built model, and
counts the minor page faults (``ru_minflt``) of each, since the heap's faults
can move a timing more than the code does.

After the timed rounds each worker runs one extra, untimed training step
(forward, backward and Adam on the first shuffled batch of a fresh model) per
shape and reports two memory figures: ``tape_mb``, the buffers that step's
tape alone keeps alive after the forward (``trees.tape_bytes``), and
``step_peak_mb``, the ``tracemalloc`` peak of the whole step.

The shapes are the benchmark workloads' models: look-back 48, horizon 24,
batch 32, dropout 0.5 on a 2000-row seeded series split 6:2:2, with
d / levels / stacks 3 / 4 / 2 (train_narrow), 21 / 3 / 1 (train_wide) and
7 / 3 / 1 (forecast_cli). The output gives per tree and workload the median
and quartiles of windows/s over the rounds, each round's ratio of every tree
to the first one, the median minor faults per inferred and per trained
window, the two memory figures, and the best validation loss each tree
reached. The memory figures also cover the paper's long look-back, 336 at
d / levels / stacks 7 / 3 / 1 (``lookback_336``), which is not timed.
"""

import json
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import trees

SHAPES = {"train_narrow": (3, 4, 2), "train_wide": (21, 3, 1), "forecast_cli": (7, 3, 1)}
LONG_SHAPES = {"lookback_336": (7, 3, 1, 336)}  # (variates, levels, stacks, look-back): memory figures only
ROWS, LOOK_BACK, HORIZON, SEED, BATCH = 2000, 48, 24, 42, 32


def memory(model, train, tensor, cfg, batch) -> dict:
    """``tape_mb`` and ``step_peak_mb`` of a training step of a fresh model on ``batch``. The first step
    counts the tape and fills the caches; ``tracemalloc`` watches the second."""
    xb, yb = batch
    figures = {}
    for watched in (False, True):
        net = model.build_model(cfg)
        optimizer = train.Adam(net.parameters(), lr=1e-3, clip_norm=5.0)
        if watched:
            tracemalloc.start()
        with tensor.Tape() as tape:
            total, _ = model.compute_loss(net.forward(xb, training=True, rng=np.random.default_rng(SEED)), yb)
        if not watched:
            figures["tape_mb"] = round(trees.tape_bytes(tape, net.parameters()) / 1e6, 2)
        tensor.backward(total, tape)
        optimizer.step()
    figures["step_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    tracemalloc.stop()
    return figures


def worker() -> None:
    from scinet import data, model, tensor, train

    cases = {}
    for name, (variates, levels, stacks, look_back) in {**{n: s + (LOOK_BACK,) for n, s in SHAPES.items()},
                                                        **LONG_SHAPES}.items():
        frame = data.synthetic_frame(ROWS, variates, seed=SEED)
        ranges = data.split(frame, data.SplitSpec.parse("ratio:6,2,2"))
        normed = data.fit_normalizer(frame, ranges[0]).apply(frame.values)
        cfg = model.ModelConfig(look_back=look_back, horizon=HORIZON, n_variates=variates, levels=levels,
                                stacks=stacks, dropout=0.5, seed=SEED)
        cases[name] = cfg, [data.WindowDataset(normed, r, look_back, HORIZON) for r in ranges]
    for line in sys.stdin:
        if line.strip() == "memory":
            print(json.dumps({name: memory(model, train, tensor, cfg,
                                           next(data.batch_iter(datasets[0], BATCH, shuffle=True, seed=SEED)))
                              for name, (cfg, datasets) in cases.items()}), flush=True)
            continue
        cfg, (train_ds, val_ds, test_ds) = cases[line.strip()]
        net = model.build_model(cfg)
        faults, t0 = trees.minflt(), time.perf_counter()
        for ds in (val_ds, test_ds):
            train.predict_windows(net, ds)
        infer_s, infer_faults = time.perf_counter() - t0, trees.minflt() - faults
        faults, t0 = trees.minflt(), time.perf_counter()
        result = train.fit(net, train_ds, val_ds, train.TrainConfig(epochs=1, batch_size=BATCH, patience=1, seed=SEED))
        train_s, train_faults = time.perf_counter() - t0, trees.minflt() - faults
        inferred = len(val_ds) + len(test_ds)
        print(json.dumps({"infer": inferred / infer_s, "train": len(train_ds) / train_s,
                          "infer_faults": infer_faults / inferred, "train_faults": train_faults / len(train_ds),
                          "best_val": repr(float(result.best_val))}), flush=True)


def main() -> None:
    args = trees.parse(__doc__, rounds=8)
    workers = {src: trees.spawn(__file__, src, stdin=subprocess.PIPE, stdout=subprocess.PIPE) for src in args.src}
    runs = {src: {name: [] for name in SHAPES} for src in args.src}

    def ask(src: str, line: str) -> dict:
        workers[src].stdin.write(line + "\n")
        workers[src].stdin.flush()
        return json.loads(workers[src].stdout.readline())

    try:
        for order in trees.rotations(args.src, args.rounds):
            for name in SHAPES:
                for src in order:
                    runs[src][name].append(ask(src, name))
        memories = {src: ask(src, "memory") for src in args.src}
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
                ratios = [run[metric] / base[metric] for run, base in zip(rounds, runs[first][name])]
                entry[metric + "_windows_per_s"] = dict(trees.summary([run[metric] for run in rounds], 1),
                                                        ratio_to_first=[round(x, 3) for x in ratios])
            for metric in ("infer_faults", "train_faults"):
                entry[metric + "_per_window"] = round(statistics.median(run[metric] for run in rounds), 2)
            entry.update(memories[src][name])
            entry["best_val"] = sorted({run["best_val"] for run in rounds})
            result[src][name] = entry
        result[src].update({name: memories[src][name] for name in LONG_SHAPES})
    print(json.dumps({"machine": trees.machine(), "rounds": args.rounds, "shapes": {**SHAPES, **LONG_SHAPES},
                      "results": result}, indent=1))


if __name__ == "__main__":
    trees.dispatch(worker, main)
