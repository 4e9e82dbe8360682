"""Time ``tensor.conv1d`` forward and forward+backward over a shape grid.

    python3 scripts/conv1d_grid.py --src OTHER/src --src src --rounds 7 > grid.json

Each ``--src`` is a scinet source tree. A round runs one worker process per
tree, with the order of the trees rotating from round to round, so slow
phases of the host fall on every tree alike. A worker imports scinet from its
tree with one BLAS thread (as ``perfbench/run.py`` does) and times every
shape: the median of REPEATS loops of calls, each loop about LOOP_S long.
The output gives, per tree and shape, the median and quartiles over the
rounds in microseconds per call, and the machine it ran on.

The grid is the interaction module's two convolutions, variates d to hidden
2d and back, at kernel 5, for d in {3, 21}, time length n in {3, 6, 24} (the
tree levels' lengths at look-back 48 and below) and batch in {32, 256}
(training and inference batches). Long rows add d = 7 at batch 32 with n in
{96, 360} (the first levels at look-backs 192 and 720), so a cost that grows
faster than linearly in n shows.

Every call is a grouped call, in the layout the tree's conv1d accepts: a
probe whose axis sizes all differ finds batch innermost, (G, C, n, batch), or
the earlier (G, batch, C, n). The output names it per tree
("grouped_layout"); a tree whose conv1d takes no group axis is refused. The
plain rows above are one-group calls.

Grouped rows are the level-batched tree's shapes at look-back 48: a level's
grouped module call over G in {2, 4, 8, 16} groups at n = 48 / G, for the
channel pairs of d in {3, 7, 21} (7 is forecast_cli's, where conv1d's switch
from im2col to the banded kernel falls between its levels 2 and 3) at batch
32 (training) and 64 (inference). Each times forward plus backward as G
separate one-group calls ("sep") and as one grouped call ("grp"), and the
grouped call's forward alone ("grp_fwd"), and counts the minor page faults
per call ("_faults" keys; the others are microseconds per call).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

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


def _faults_per_call(fn, calls: int = 20) -> float:
    import resource

    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


LAYOUTS = {"(G, C, n, batch)": (0, 2, 3, 1), "(G, batch, C, n)": (0, 1, 2, 3)}  # from (G, batch, C, n)


def grouped_layout(tensor):
    """The name of the grouped input layout this tree's conv1d accepts, or None."""
    import numpy as np

    x = np.zeros((2, 3, 5, 7))  # (G, batch, C, n), every axis a different size
    w, b = tensor.Tensor(np.zeros((2, 4, 5, 3))), tensor.Tensor(np.zeros((2, 4)))
    for name, axes in LAYOUTS.items():
        try:
            tensor.conv1d(tensor.Tensor(x.transpose(axes)), w, b)
        except tensor.DimensionError:
            continue
        return name
    return None


def worker() -> None:
    import numpy as np
    from scinet import tensor

    rng = np.random.default_rng(0)
    layout = grouped_layout(tensor)
    if layout is None:
        sys.exit("error: this tree's conv1d takes no group axis")

    def grouped(x):  # (G, batch, C, n) in the tree's layout
        return tensor.Tensor(np.ascontiguousarray(x.transpose(LAYOUTS[layout])), requires_grad=True)

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
            out[key + "_faults"] = _faults_per_call(fn)
    print(json.dumps({"grouped_layout": layout, "timings": out}))


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": 1,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", action="append", required=True, help="a scinet source tree (repeatable)")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 to give quartiles")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {src: [] for src in args.src}
    for r in range(args.rounds):
        order = args.src[r % len(args.src):] + args.src[:r % len(args.src)]
        for src in order:
            done = subprocess.run([sys.executable, __file__, "--worker"], env=dict(env, PYTHONPATH=src),
                                  capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"{src}: {done.stderr.strip()}")
            runs[src].append(json.loads(done.stdout))
    result, layouts = {}, {}
    for src, rounds in runs.items():
        result[src], layouts[src] = {}, rounds[0]["grouped_layout"]
        for key in rounds[0]["timings"]:
            q1, med, q3 = statistics.quantiles([run["timings"][key] for run in rounds], n=4, method="inclusive")
            unit = "faults" if key.endswith("_faults") else "us"
            result[src][key] = {f"median_{unit}": round(med, 1), f"q1_{unit}": round(q1, 1),
                                f"q3_{unit}": round(q3, 1)}
    print(json.dumps({"machine": machine(), "rounds": args.rounds, "repeats": REPEATS, "kernel": KERNEL,
                      "grouped_layout": layouts, "timings": result}, indent=1))


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        main()
