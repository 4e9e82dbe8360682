"""What the A/B scripts here share: source trees run side by side on one BLAS thread.

Each script takes scinet source trees as repeatable ``--src`` flags and runs
its body as ``script --worker ARGS`` in a process per tree, with ``PYTHONPATH``
at the tree and one BLAS thread (as ``perfbench/run.py`` does), reading the
JSON it prints. Timing scripts take ``--rounds`` and rotate the order of the
trees from round to round, so slow phases of the host fall on every tree alike.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import types

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def parser(doc: str) -> argparse.ArgumentParser:
    """A parser titled by the script's docstring, with the repeatable ``--src``."""
    p = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    p.add_argument("--src", action="append", required=True, help="a scinet source tree (repeatable)")
    return p


def parse(doc: str, rounds: int, argv: list[str] | None = None) -> argparse.Namespace:
    """A timing script's ``--src`` and ``--rounds`` (default ``rounds``, at least 2)."""
    p = parser(doc)
    p.add_argument("--rounds", type=int, default=rounds)
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be at least 2 to give quartiles")
    return args


def rotations(srcs: list[str], rounds: int):
    """The order of the trees in each round: round r starts at tree r mod len(srcs)."""
    for r in range(rounds):
        yield srcs[r % len(srcs):] + srcs[:r % len(srcs)]


def spawn(script: str, src: str, *args: str, **popen) -> subprocess.Popen:
    """``script --worker ARGS`` importing scinet from ``src``, on one BLAS thread."""
    return subprocess.Popen([sys.executable, os.path.abspath(script), "--worker", *args],
                            env=dict(ENV, PYTHONPATH=os.path.abspath(src)), text=True, **popen)


def dispatch(worker, main) -> None:
    """Call ``worker(*ARGS)`` in a process started as ``script --worker ARGS``, else ``main()``."""
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:])
    else:
        main()


def run(script: str, src: str, *args: str, cwd: str | None = None):
    """The JSON a worker prints; a failed worker ends the script with the tree's error."""
    proc = spawn(script, src, *args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate()
    if proc.returncode:
        sys.exit(f"{src}: {err.strip()}")
    return json.loads(out)


def summary(values, digits: int, unit: str = "") -> dict:
    """Median and quartiles (inclusive) of ``values``, rounded to ``digits``; keys end in ``_unit`` if given."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    tail = f"_{unit}" if unit else ""
    return {f"median{tail}": round(med, digits), f"q1{tail}": round(q1, digits), f"q3{tail}": round(q3, digits)}


def summarize(rounds: list[dict], digits: int, unit: str) -> dict:
    """Per key of the workers' outputs, its summary over the rounds; ``_faults`` keys count faults."""
    return {key: summary([run[key] for run in rounds], digits, "faults" if key.endswith("_faults") else unit)
            for key in rounds[0]}


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def faults_per_call(fn, calls: int) -> float:
    """Minor page faults per call of ``fn`` over ``calls`` calls, after one call that is not counted."""
    fn()
    before = minflt()
    for _ in range(calls):
        fn()
    return (minflt() - before) / calls


def tape_bytes(tape, params) -> int:
    """Bytes of the buffers that ``tape``'s nodes alone keep alive: every array they reach (through
    their operands, whether tensors or gradient slots, and their rules' closures, not through module
    globals), counted once per base buffer, less the buffers of ``params``, which live anyway."""
    import numpy as np

    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    skip = {id(base(p.data)) for p in params}
    seen, held, stack = set(), {}, list(tape.nodes)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            buf = base(obj)
            if id(buf) not in skip:
                held[id(buf)] = buf.nbytes
        elif isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
        elif not isinstance(obj, (type, types.ModuleType)):
            stack.extend(gc.get_referents(obj))
    return sum(held.values())


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": 1}
