"""Self-tests of the benchmark: toy-size runs, the reference against the program, and
each correctness check failing on a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scinet import metrics as sc_metrics  # noqa: E402
from scinet import model as sc_model  # noqa: E402
from scinet import tensor, train  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """One toy round of forecast_cli, whose outputs the corruption tests start from."""
    runner = workloads.Runner(workloads.WORKLOADS["forecast_cli"].toy(), 5, str(tmp_path_factory.mktemp("toy")))
    runner.setup()
    runner.round()
    assert runner.problems == []
    manifest, tensors = ref.read_checkpoint(runner.paths["model.ckpt"])
    rows = ref.read_predictions(runner.paths["forecast.csv"], runner.w.variates, workloads.HORIZON)
    return runner, manifest, tensors, rows


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_reports_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, workloads.WORKLOADS[name].toy())
    result = run.run(name, 3, 0.0, trace, str(tmp_path))
    assert result["correct"]
    spec = workloads.WORKLOADS[name]
    per_round = sum(spec.reps.values()) + spec.swap_eval
    assert result["attempted"] == per_round * (2 if trace else 1)
    assert result["failed"] == spec.swap_eval * (2 if trace else 1)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: u for k, (_, u) in result["metrics"].items()}
    json.loads(run._result(**result))
    if trace:
        assert result["metrics"]["trace.coverage_pct"][0] >= 90.0


def test_tracer_restores_the_program(tmp_path):
    before = {(m, a): getattr(m, a) for m in (tensor, sc_model, train) for a in ("conv1d", "backward", "fit")
              if hasattr(m, a)}
    runner = workloads.Runner(workloads.WORKLOADS["train_narrow"].toy(), 4, str(tmp_path))
    runner.setup()
    with Tracer(workloads.LOOK_BACK).patched() as tracer:
        runner.round()
    assert {k: getattr(*k) for k in before} == before
    assert sc_model.SCIBlock.forward.__qualname__ == "SCIBlock.forward"
    assert tracer.calls["model.level4"] > 0 and tracer.calls["tensor.conv1d.bwd"] > 0
    assert runner.problems == []


@pytest.mark.parametrize("change", [
    {}, {"sign": "sub"}, {"no_interlearn": True}, {"weight_share": True}, {"no_residual": True},
    {"no_decoder": True}, {"stacks": 2, "levels": 3},
])
def test_reference_forward_matches_the_program(change, tmp_path):
    cfg = sc_model.ModelConfig(look_back=16, horizon=8, n_variates=3, levels=2, identity_init=False, seed=9)
    for key, value in change.items():
        setattr(cfg, key, value)
    net = sc_model.build_model(cfg)
    path = str(tmp_path / "m.ckpt")
    train.save_checkpoint(path, net, {})
    x = np.random.default_rng(0).standard_normal((5, 3, 16))
    got = net.forward(tensor.Tensor(x))[-1].data
    manifest, tensors = ref.read_checkpoint(path)
    assert ref.check_forward(manifest, tensors, x, got, "program") == []


def test_reference_pe_matches_the_program_with_ties():
    x = np.random.default_rng(1).integers(0, 4, size=400).astype(float)
    cfg = sc_metrics.PEConfig(order=5, lag=2)
    assert abs(ref.permutation_entropy(x, 5, 2) - sc_metrics.permutation_entropy(x, cfg)) < 1e-12


def test_repeat_last_mae_on_a_ramp():
    ramp = np.arange(100.0)[:, None]
    assert ref.repeat_last_mae(ramp, (0, 100), 8, 4) == pytest.approx(2.5)


def test_nudged_weight_is_caught(toy):
    runner, manifest, tensors, rows = toy
    nudged = dict(tensors)
    name = next(n for n in nudged if n.endswith("/w_in"))
    nudged[name] = nudged[name] + 1e-6
    problems = ref.check_rows(rows, runner.recent, manifest, nudged, np.arange(rows.shape[0]))
    assert any("reference forward" in p for p in problems)


def test_swapped_prediction_and_truth_columns_are_caught(toy):
    runner, manifest, tensors, rows = toy
    swapped = rows[..., [0, 1, 2, 4, 3]]
    problems = ref.check_rows(swapped, runner.recent, manifest, tensors, np.arange(rows.shape[0]))
    assert any("truth cells" in p for p in problems)
    assert any("reference forward" in p for p in problems)


def test_truth_cell_off_by_one_row_is_caught(toy):
    runner, manifest, tensors, rows = toy
    shifted = rows.copy()
    shifted[0, 0, 0, 3] = shifted[0, 1, 0, 3]
    problems = ref.check_rows(shifted, runner.recent, manifest, tensors, np.arange(1))
    assert any("truth cells" in p for p in problems)


def test_eval_that_disagrees_with_predict_is_caught(toy):
    runner, _, _, rows = toy
    err = rows[..., 4] - rows[..., 3]
    good = f"mae={float(np.mean(np.abs(err)))!r}\nmse={float(np.mean(err * err))!r}\nwindow_count={rows.shape[0]}\n"
    assert ref.check_eval(good, rows) == []
    assert ref.check_eval(good.replace("mae=", "mae=1"), rows)
    assert ref.check_eval(good, rows[1:])


def test_pe_off_in_the_last_digits_is_caught(toy):
    runner = toy[0]
    code, out, _ = workloads.run_cli(["pe", runner.paths["long.csv"]])
    assert code == 0
    args = (runner.long_values, runner.names, workloads.PE_ORDER, workloads.PE_LAG)
    assert ref.check_pe(out, *args) == []
    key = f"pe_original_{runner.names[0]}="
    value = float(out.split(key)[1].split()[0])
    assert ref.check_pe(out.replace(key + repr(value), key + repr(value + 1e-9)), *args)


def test_norm_stats_off_the_training_rows_are_caught(toy):
    runner, manifest, _, _ = toy
    bad = json.loads(json.dumps(manifest))
    bad["extras"]["norm_std"][0] *= 1.0 + 1e-9
    assert ref.check_norm(manifest, runner.values) == []
    assert ref.check_norm(bad, runner.values)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "train_narrow", "--seed", "1", "--seconds", "1",
                                             "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
