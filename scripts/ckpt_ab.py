"""Check that scinet source trees write byte-identical checkpoints and command outputs.

    python3 scripts/ckpt_ab.py --src OTHER/src --src src [--variates 21]

Each ``--src`` is a scinet source tree. The series is ``synthetic_frame(600,
N, seed=5)`` with N = ``--variates`` (3 by default), written once by the
first tree as a CSV without a timestamp column. At look-back 16 the tree's
rows are 8 and 4 samples long, so 3 variates run conv1d's banded kernel and
21 never do. One worker process per tree imports scinet from it and runs the CLI
in its own scratch directory, with the same relative paths in every tree, so
the configuration hash a checkpoint records is the same too. For each of
seven model configurations, at ``dropout=0 clip_norm=0`` and at
``dropout=0.5 clip_norm=5``, it runs ``train`` (look-back 16, horizon 4,
levels 2, stacks 2, 2 epochs, seed 5), then ``eval``, ``predict`` and ``pe
--checkpoint`` on the checkpoint. Every output is hashed: the exit code and
printed text of each command, the checkpoint, the eval report and the
emitted forecasts.

It prints one line per output with its sha256 in each tree, in ``--src``
order, and exits 1 if any output differs between the trees.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import trees

BASE = dict(data_path="data.csv", timestamp_column="none", look_back=16, horizon=4, levels=2, stacks=2, epochs=2,
            seed=5)
VARIANTS = {"default": {}, "sign=sub": {"sign": "sub"}, "weight_share": {"weight_share": True},
            "no_interlearn": {"no_interlearn": True}, "no_residual": {"no_residual": True},
            "no_decoder": {"no_decoder": True}, "identity_init=False": {"identity_init": False}}
REGULARISATION = {"dropout=0 clip_norm=0": {"dropout": 0.0, "clip_norm": 0.0},
                  "dropout=0.5 clip_norm=5": {"dropout": 0.5, "clip_norm": 5.0}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return _sha(fh.read())


def worker() -> None:
    """Run every configuration through the CLI in the current directory; print {output: sha256} as JSON."""
    from scinet import cli

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return _sha(f"{rc}\n{out.getvalue()}\n{err.getvalue()}".encode("utf-8"))

    hashes = {}
    cases = [(f"{variant}, {regularisation}", dict(flags, **knobs))
             for variant, flags in VARIANTS.items() for regularisation, knobs in REGULARISATION.items()]
    for tag, (case, settings) in enumerate(cases):
        with open(f"{tag}.cfg", "w") as fh:
            fh.write("".join(f"{key}={value}\n" for key, value in dict(BASE, checkpoint_path=f"{tag}.ckpt",
                                                                       **settings).items()))
        hashes[f"{case}: train"] = run(["train", f"{tag}.cfg"])
        hashes[f"{case}: checkpoint"] = _file_sha(f"{tag}.ckpt")
        hashes[f"{case}: eval"] = run(["eval", f"{tag}.ckpt", "data.csv", "--out", f"{tag}.eval"])
        hashes[f"{case}: eval --out"] = _file_sha(f"{tag}.eval")
        hashes[f"{case}: predict"] = run(["predict", f"{tag}.ckpt", "data.csv", "--emit", f"{tag}.pred"])
        hashes[f"{case}: predict --emit"] = _file_sha(f"{tag}.pred")
        hashes[f"{case}: pe --checkpoint"] = run(["pe", "data.csv", "--checkpoint", f"{tag}.ckpt"])
    print(json.dumps(hashes))


def main() -> None:
    parser = trees.parser(__doc__)
    parser.add_argument("--variates", type=int, default=3, help="variates of the synthetic series (default 3)")
    args = parser.parse_args()
    if args.variates < 1:
        parser.error("--variates must be positive")
    with tempfile.TemporaryDirectory(prefix="ckpt_ab_") as scratch:
        data = os.path.join(scratch, "data.csv")
        subprocess.run([sys.executable, "-c", "import sys; from scinet.data import synthetic_frame, write_csv; "
                        "write_csv(synthetic_frame(600, int(sys.argv[2]), seed=5), sys.argv[1])", data, str(args.variates)],
                       env=dict(trees.ENV, PYTHONPATH=args.src[0]), check=True)
        per_tree = []
        for i, src in enumerate(args.src):
            directory = os.path.join(scratch, str(i))
            os.mkdir(directory)
            os.link(data, os.path.join(directory, "data.csv"))
            per_tree.append(trees.run(__file__, src, cwd=directory))
    differ = 0
    for output in per_tree[0]:
        shas = [tree.get(output, "missing") for tree in per_tree]
        same = len(set(shas)) == 1
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  {output}  {'  '.join(shas)}")
    print(f"{len(per_tree[0])} outputs, {differ} differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    trees.dispatch(worker, main)
