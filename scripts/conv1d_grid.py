"""Time ``tensor.conv1d`` forward and forward+backward over a shape grid.

    python3 scripts/conv1d_grid.py --src OTHER/src --src src --rounds 7 > grid.json

Each ``--src`` is a scinet source tree. A round runs one worker process per
tree, in the rotating order of ``trees.py``, and a worker times every shape:
the median of REPEATS loops of calls, each about LOOP_S long. The output gives,
per tree and shape, the median and quartiles over the rounds, and the machine.

The grid is one-group calls of the interaction module's two convolutions,
variates d to hidden 2d and back, at kernel 5, for d in {3, 21}, time length
n in {3, 6, 24} (the tree levels' lengths at look-back 48 and below) and batch
in {32, 256} (training runs 32; inference runs INFERENCE_BATCH = 64, which the
grouped rows time). Long rows add d = 7 at batch 32 with n in {96, 360} (the
first levels at look-backs 192 and 720), so a cost that grows faster than
linearly in n shows.

Grouped rows are the level-batched tree's shapes at look-back 48: a level's
grouped module call over G in {2, 4, 8, 16} groups at n = 48 / G, for the
channel pairs of d in {3, 7, 21} (7 is forecast_cli's, where conv1d's switch
from im2col to the banded kernel falls between its levels 2 and 3) at batch
32 (training) and 64 (inference). Each times forward plus backward as G
separate one-group calls ("sep") and as one grouped call ("grp"), and the
grouped call's forward alone ("grp_fwd"), and counts the minor page faults
per call ("_faults" keys; the others are microseconds per call).
"""

import json
import statistics
import sys
import time

import trees

REPEATS = 5
LOOP_S = 0.01
KERNEL = 5
GRID = [(b, c, o, n) for b in (32, 256) for d in (3, 21) for c, o in ((d, 2 * d), (2 * d, d)) for n in (3, 6, 24)]
GRID += [(32, c, o, n) for c, o in ((7, 14), (14, 7)) for n in (96, 360)]
GROUPED = [(b, g, c, o, 48 // g) for b in (32, 64) for d in (3, 7, 21) for c, o in ((d, 2 * d), (2 * d, d))
           for g in (2, 4, 8, 16)]


def _per_call(fn) -> float:
    """Median seconds per call over REPEATS loops of about LOOP_S each."""
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(LOOP_S / (time.perf_counter() - t0)))
    loops = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        loops.append((time.perf_counter() - t0) / calls)
    return statistics.median(loops)


def worker() -> None:
    import numpy as np
    from scinet import tensor

    rng = np.random.default_rng(0)

    def grouped(x):  # drawn as (G, batch, C, n), held as the tree's (G, C, n, batch)
        return tensor.Tensor(np.ascontiguousarray(x.transpose(0, 2, 3, 1)), requires_grad=True)

    def forward_backward(x, w, b):
        with tensor.Tape() as tape:
            loss = tensor.sum_all(tensor.conv1d(x, w, b))
        tensor.backward(loss, tape)

    out = {}
    for batch, in_ch, out_ch, n in GRID:
        x = grouped(rng.normal(size=(1, batch, in_ch, n)))
        w = tensor.Tensor(rng.normal(size=(1, out_ch, in_ch, KERNEL)), requires_grad=True)
        b = tensor.Tensor(rng.normal(size=(1, out_ch)), requires_grad=True)
        for mode, fn in (("fwd", lambda: tensor.conv1d(x, w, b)), ("fwd_bwd", lambda: forward_backward(x, w, b))):
            out[f"b{batch}_c{in_ch}_o{out_ch}_n{n}_{mode}"] = _per_call(fn) * 1e6
    for batch, groups, in_ch, out_ch, n in GROUPED:
        xs = rng.normal(size=(groups, batch, in_ch, n))
        ws, bs = rng.normal(size=(groups, out_ch, in_ch, KERNEL)), rng.normal(size=(groups, out_ch))
        whole = [grouped(xs), tensor.Tensor(ws, requires_grad=True), tensor.Tensor(bs, requires_grad=True)]
        parts = [[grouped(xs[at]), tensor.Tensor(ws[at], requires_grad=True), tensor.Tensor(bs[at], requires_grad=True)]
                 for at in (slice(g, g + 1) for g in range(groups))]
        modes = {"sep_fwd_bwd": lambda: [forward_backward(*part) for part in parts],
                 "grp_fwd_bwd": lambda: forward_backward(*whole), "grp_fwd": lambda: tensor.conv1d(*whole)}
        for mode, fn in modes.items():
            key = f"b{batch}_g{groups}_c{in_ch}_o{out_ch}_n{n}_{mode}"
            out[key] = _per_call(fn) * 1e6
            out[key + "_faults"] = trees.faults_per_call(fn, 20)
    print(json.dumps(out))


def main() -> None:
    args = trees.parse(__doc__, rounds=7)
    runs = {src: [] for src in args.src}
    for order in trees.rotations(args.src, args.rounds):
        for src in order:
            runs[src].append(trees.run(__file__, src))
    print(json.dumps({"machine": trees.machine(), "rounds": args.rounds, "repeats": REPEATS, "kernel": KERNEL,
                      "timings": {src: trees.summarize(rounds, 1, "us") for src, rounds in runs.items()}}, indent=1))


if __name__ == "__main__":
    trees.dispatch(worker, main)
