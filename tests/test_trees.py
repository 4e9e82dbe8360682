"""The harness the A/B scripts under ``scripts/`` share (``scripts/trees.py``)."""

import importlib.util
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("trees", SCRIPTS / "trees.py")
trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trees)


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_rotation_puts_every_tree_in_every_position_once(count):
    srcs = [f"tree{i}" for i in range(count)]
    orders = list(trees.rotations(srcs, count))
    assert all(sorted(order) == srcs for order in orders)
    for position in range(count):
        assert sorted(order[position] for order in orders) == srcs


def test_rotation_repeats_after_one_turn():
    srcs = ["a", "b", "c"]
    assert list(trees.rotations(srcs, 7)) == [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]] * 2 + [["a", "b", "c"]]


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=12), st.integers(0, 3))
def test_summary_is_the_inclusive_quartiles_rounded(values, digits):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert trees.summary(values, digits) == {"median": round(med, digits), "q1": round(q1, digits),
                                             "q3": round(q3, digits)}
    assert trees.summary(values, digits, "us") == {"median_us": round(med, digits), "q1_us": round(q1, digits),
                                                   "q3_us": round(q3, digits)}


def test_summarize_counts_faults_under_their_own_unit():
    rounds = [{"a": 1.0, "a_faults": 0.0}, {"a": 3.0, "a_faults": 4.0}]
    assert trees.summarize(rounds, 1, "ms") == {"a": {"median_ms": 2.0, "q1_ms": 1.5, "q3_ms": 2.5},
                                                "a_faults": {"median_faults": 2.0, "q1_faults": 1.0,
                                                             "q3_faults": 3.0}}


def test_one_round_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_:
        trees.parse(__doc__, 7, ["--src", "src", "--rounds", "1"])
    assert exit_.value.code == 2
    assert "--rounds must be at least 2 to give quartiles" in capsys.readouterr().err
    assert trees.parse(__doc__, 7, ["--src", "a", "--src", "b"]).rounds == 7


@pytest.mark.parametrize("script", ["conv1d_grid.py", "io_grid.py", "step_ab.py"])
def test_every_timing_script_rejects_one_round(script):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--src", "src", "--rounds", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "--rounds must be at least 2 to give quartiles" in done.stderr


def test_a_worker_runs_on_its_tree_with_one_blas_thread(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text("import json, os, sys\n"
                      "print(json.dumps({'argv': sys.argv[1:], 'cwd': os.getcwd(), 'path': os.environ['PYTHONPATH'],"
                      " 'blas': os.environ['OPENBLAS_NUM_THREADS']}))\n")
    (tmp_path / "tree").mkdir()
    out = trees.run(str(script), str(tmp_path / "tree"), "x", cwd=str(tmp_path))
    assert out == {"argv": ["--worker", "x"], "cwd": str(tmp_path), "path": str(tmp_path / "tree"), "blas": "1"}


def test_a_failed_worker_ends_the_script_with_its_error(tmp_path):
    script = tmp_path / "broken.py"
    script.write_text("import sys\nsys.exit('no such op')\n")
    with pytest.raises(SystemExit, match="tree: no such op"):
        trees.run(str(script), "tree")


def test_dispatch_runs_the_worker_with_its_arguments(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "argv", ["script.py", "--worker", "dir"])
    trees.dispatch(lambda *args: calls.append(args), lambda: calls.append("main"))
    monkeypatch.setattr(sys, "argv", ["script.py", "--src", "src"])
    trees.dispatch(lambda *args: calls.append(args), lambda: calls.append("main"))
    assert calls == [("dir",), "main"]
