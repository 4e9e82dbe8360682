"""Acceptance gate: criteria A1 through A9, one test and one verdict line each.

Budgets for the trained fixtures were probed on two seeds before being
frozen; the synthetic fixture and its training settings are shared across
A4, A6, and A7 so the suite trains the full model once.
"""

import os
import time
from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from scinet.cli import main
from scinet.data import SplitSpec, WindowDataset, fit_normalizer, load_csv, split, synthetic_frame, write_csv
from scinet.metrics import PEConfig, pe_report, permutation_entropy
from scinet.model import ModelConfig, SCIBlock, build_model, compute_loss, realign, split_even_odd
from scinet.nn import InteractionModule
from scinet.tensor import (
    Tensor,
    add,
    conv1d,
    exp,
    finite_diff_check,
    leaky_relu,
    linear,
    mul,
    sub,
    sum_all,
    tanh,
)
from scinet.train import TrainConfig, evaluate, fit, load_checkpoint, save_checkpoint

GRADCHECK_TOL = 1e-4
REPRESENTATION_TOL = 1e-12
LOSS_SUM_TOL = 1e-12
PE_EXAMPLE = 0.5888
PE_EXAMPLE_TOL = 1e-4

# shared synthetic fixture: d=3, N=2000, look-back 48, horizon 24, 3 levels,
# single stack; training budget chosen well inside the 200-epoch ceiling
SYN = SimpleNamespace(
    n=2000, d=3, look_back=48, horizon=24, levels=3,
    data_seed=7, train_seed=0, epochs=8, batch_size=32, lr=3e-3, lr_decay=0.97,
)

ETTH1_ENV = "SCINET_ETTH1"


def syn_model_config(**flags):
    return ModelConfig(
        look_back=SYN.look_back,
        horizon=SYN.horizon,
        n_variates=SYN.d,
        levels=SYN.levels,
        stacks=1,
        kernel_size=5,
        hidden_ratio=2,
        dropout=0.0,
        seed=SYN.train_seed,
        **flags,
    )


def syn_train_config():
    return TrainConfig(
        epochs=SYN.epochs,
        batch_size=SYN.batch_size,
        lr=SYN.lr,
        lr_decay=SYN.lr_decay,
        patience=SYN.epochs,
        seed=SYN.train_seed,
    )


@pytest.fixture(scope="module")
def syn_data():
    frame = synthetic_frame(SYN.n, SYN.d, seed=SYN.data_seed)
    ranges = split(frame, SplitSpec.parse("ratio:6,2,2"))
    stats = fit_normalizer(frame, ranges[0])
    values = stats.apply(frame.values)
    train_ds, val_ds, test_ds = (
        WindowDataset(values, r, SYN.look_back, SYN.horizon) for r in ranges
    )
    return SimpleNamespace(values=values, train_ds=train_ds, val_ds=val_ds, test_ds=test_ds)


@pytest.fixture(scope="module")
def trained_full(syn_data):
    model = build_model(syn_model_config())
    start = time.perf_counter()
    result = fit(model, syn_data.train_ds, syn_data.val_ds, syn_train_config())
    elapsed = time.perf_counter() - start
    return SimpleNamespace(model=model, result=result, elapsed=elapsed)


def test_a1_gradients_match_finite_differences(record_criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst: dict[str, float] = {}

    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3, 4)))
    worst["add"] = finite_diff_check(lambda: sum_all(mul(add(a, b), probe)), [a, b])
    worst["sub"] = finite_diff_check(lambda: sum_all(mul(sub(a, b), probe)), [a, b])
    worst["mul"] = finite_diff_check(lambda: sum_all(mul(mul(a, b), probe)), [a, b])
    worst["exp"] = finite_diff_check(lambda: sum_all(mul(exp(a), probe)), [a])
    worst["tanh"] = finite_diff_check(lambda: sum_all(mul(tanh(a), probe)), [a])
    worst["leaky_relu"] = finite_diff_check(lambda: sum_all(mul(leaky_relu(a, 0.01), probe)), [a])

    cx = Tensor(rng.normal(size=(1, 3, 6, 2)), requires_grad=True)
    cw = Tensor(rng.normal(size=(1, 4, 3, 3)) * 0.5, requires_grad=True)
    cb = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    cp = Tensor(rng.normal(size=(1, 4, 6, 2)))
    worst["conv1d"] = finite_diff_check(lambda: sum_all(mul(conv1d(cx, cw, cb), cp)), [cx, cw, cb])

    lx = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    lw = Tensor(rng.normal(size=(4, 8)) * 0.5, requires_grad=True)
    lb = Tensor(rng.normal(size=(4,)), requires_grad=True)
    lp = Tensor(rng.normal(size=(2, 3, 4)))
    worst["linear"] = finite_diff_check(lambda: sum_all(mul(linear(lx, lw, lb), lp)), [lx, lw, lb])

    module = InteractionModule(channels=2, hidden_ratio=2, kernel_size=3, leaky_slope=0.01, dropout_p=0.0)
    module.draw(0, np.random.default_rng(1), identity_init=False)
    mx = Tensor(rng.normal(size=(1, 2, 6, 2)), requires_grad=True)
    mp = Tensor(rng.normal(size=(1, 2, 6, 2)))
    m_params = [p for _, p in module.named_parameters("m")] + [mx]
    worst["interaction_module"] = finite_diff_check(
        lambda: sum_all(mul(module.forward(mx), mp)), m_params
    )

    # one block: (scale_for_odd, scale_for_even) and (correct_odd, correct_even) as grouped modules
    scale, correct = (InteractionModule(channels=2, hidden_ratio=1, kernel_size=3, leaky_slope=0.01,
                                        dropout_p=0.0, groups=2) for _ in range(2))
    for row in range(2):
        scale.draw(row, np.random.default_rng(10 + row), identity_init=False)
        correct.draw(row, np.random.default_rng(12 + row), identity_init=False)
    block = SCIBlock(scale, correct, sign="add", no_interlearn=False)
    bx = Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
    pe_probe = Tensor(rng.normal(size=(2, 2, 4)))
    po_probe = Tensor(rng.normal(size=(2, 2, 4)))
    probe = Tensor(np.stack([pe_probe.data, po_probe.data]))  # the block's output: even half, then odd half

    def block_loss():
        return sum_all(mul(block.forward(bx), probe))

    b_params = [p for m in (block.scale, block.correct) for _, p in m.named_parameters("b")] + [bx]
    worst["sci_block"] = finite_diff_check(block_loss, b_params)

    net = build_model(
        ModelConfig(
            look_back=8, horizon=4, n_variates=2, levels=2, stacks=1,
            kernel_size=3, hidden_ratio=1, dropout=0.0, identity_init=False, seed=14,
        )
    )
    nx = Tensor(rng.normal(size=(1, 2, 8)), requires_grad=True)
    np_probe = Tensor(rng.normal(size=(1, 2, 4)))
    worst["scinet_l2"] = finite_diff_check(
        lambda: sum_all(mul(net.forward(nx)[0], np_probe)), net.parameters() + [nx]
    )

    elapsed = time.perf_counter() - start
    peak = max(worst, key=worst.get)
    ok = max(worst.values()) < GRADCHECK_TOL and elapsed < 60.0
    record_criterion(
        "A1", ok,
        f"max rel err {worst[peak]:.3e} ({peak}), tol {GRADCHECK_TOL:g}, {elapsed:.1f}s",
    )


def test_a2_split_realign_identity_and_identity_init(record_criterion):
    rng = np.random.default_rng(1)

    def tree_split(t, depth):
        if depth == 0:
            return [t]
        even, odd = split_even_odd(t)
        return tree_split(even, depth - 1) + tree_split(odd, depth - 1)

    grid_ok = True
    for levels in range(1, 6):
        for j in range(1, 9):
            length = (1 << levels) * j
            x = Tensor(rng.normal(size=(2, 3, length)))
            out = realign(Tensor(np.stack([leaf.data for leaf in tree_split(x, levels)])))
            if not np.array_equal(out.data, x.data):
                grid_ok = False

    worst_rep = 0.0
    for levels in range(1, 6):
        length = (1 << levels) * 2
        cfg = ModelConfig(
            look_back=length, horizon=max(1, length // 2), n_variates=2, levels=levels,
            stacks=1, kernel_size=3, hidden_ratio=1, dropout=0.0, seed=3,
        )
        model = build_model(cfg)
        x = Tensor(rng.normal(size=(2, 2, length)))
        rep = model.representation(x)
        worst_rep = max(worst_rep, float(np.max(np.abs(rep.data - 2.0 * x.data))))

    ok = grid_ok and worst_rep <= REPRESENTATION_TOL
    record_criterion(
        "A2", ok,
        f"permutation grid exact: {grid_ok}; max |rep - 2x| = {worst_rep:.2e} (tol {REPRESENTATION_TOL:g})",
    )


def test_a3_permutation_entropy_oracle(record_criterion):
    example = permutation_entropy(
        np.array([4.0, 7.0, 9.0, 10.0, 6.0, 11.0, 3.0]), PEConfig(order=3, lag=1)
    )
    example_ok = abs(example - PE_EXAMPLE) <= PE_EXAMPLE_TOL
    constant_ok = permutation_entropy(np.full(64, 2.5), PEConfig(order=4, lag=1)) == 0.0

    series = np.random.default_rng(2).normal(size=300)
    invariance_ok = True
    for cfg in (PEConfig(order=3, lag=1), PEConfig(order=6, lag=1)):
        base = permutation_entropy(series, cfg)
        for transformed in (3.0 * series + 7.0, np.exp(series), series**3):
            if permutation_entropy(transformed, cfg) != base:
                invariance_ok = False

    ok = example_ok and constant_ok and invariance_ok
    record_criterion(
        "A3", ok,
        f"example {example:.4f} (want {PE_EXAMPLE}±{PE_EXAMPLE_TOL}), constant zero: {constant_ok}, "
        f"monotone invariance exact: {invariance_ok}",
    )


def test_a4_learns_past_repeat_last_baseline(record_criterion, syn_data, trained_full):
    xs, ys = syn_data.test_ds.gather(np.arange(len(syn_data.test_ds)))
    baseline_pred = np.repeat(xs.data[:, :, -1:], SYN.horizon, axis=2)
    baseline_mse = float(((baseline_pred - ys.data) ** 2).mean())
    model_mse = evaluate(trained_full.model, syn_data.test_ds).mse
    ok = (
        model_mse <= 0.5 * baseline_mse
        and SYN.epochs <= 200
        and trained_full.elapsed < 300.0
    )
    record_criterion(
        "A4", ok,
        f"test mse {model_mse:.4f} vs 0.5x baseline {0.5 * baseline_mse:.4f} "
        f"({SYN.epochs} epochs, {trained_full.elapsed:.0f}s)",
    )


def _etth1_path():
    override = os.environ.get(ETTH1_ENV)
    if override:
        return override if os.path.exists(override) else None
    default = os.path.join(os.path.dirname(__file__), "..", "data", "ETTh1.csv")
    return default if os.path.exists(default) else None


def test_a5_etth1_accuracy(record_criterion):
    path = _etth1_path()
    if path is None:
        record_criterion(
            "A5", None,
            f"dataset not present; place it at data/ETTh1.csv or set ${ETTH1_ENV}",
        )
    frame = load_csv(path, timestamp_column="date")
    ranges = split(frame, SplitSpec.parse("ratio:6,2,2"))
    stats = fit_normalizer(frame, ranges[0])
    values = stats.apply(frame.values)
    train_ds, val_ds, test_ds = (WindowDataset(values, r, 48, 24) for r in ranges)
    model = build_model(
        ModelConfig(
            look_back=48, horizon=24, n_variates=frame.n_variates, levels=3, stacks=1,
            kernel_size=5, hidden_ratio=2, dropout=0.5, seed=42,
        )
    )
    fit(model, train_ds, val_ds, TrainConfig(seed=42))
    report = evaluate(model, test_ds)
    ok = report.mse <= 0.50 and report.mae <= 0.48
    record_criterion(
        "A5", ok,
        f"normalized test mse {report.mse:.4f} (<=0.50), mae {report.mae:.4f} (<=0.48)",
    )


def test_a6_entropy_direction_after_training(record_criterion, syn_data, trained_full):
    report = pe_report(trained_full.model, syn_data.values, PEConfig(order=6, lag=1))
    ok = report.mean_enhanced < report.mean_original
    record_criterion(
        "A6", ok,
        f"mean PE enhanced {report.mean_enhanced:.4f} vs original {report.mean_original:.4f} "
        "(directional claim: enhanced < original)",
    )


def test_a7_full_model_beats_ablations(record_criterion, syn_data, trained_full):
    full_val = evaluate(trained_full.model, syn_data.val_ds).mse
    variant_val = {}
    for flag in ("no_interlearn", "weight_share", "no_residual", "no_decoder"):
        model = build_model(syn_model_config(**{flag: True}))
        fit(model, syn_data.train_ds, syn_data.val_ds, syn_train_config())
        variant_val[flag] = evaluate(model, syn_data.val_ds).mse
    wins = sum(full_val < v for v in variant_val.values())
    detail = ", ".join(f"{k} {v:.4f}" for k, v in variant_val.items())
    ok = wins >= 3
    record_criterion("A7", ok, f"full {full_val:.4f} wins {wins}/4 on val mse ({detail})")


def test_a8_deterministic_checkpoints(record_criterion, tmp_path):
    frame = synthetic_frame(160, 2, seed=3)
    start = datetime(2021, 1, 1)
    frame.timestamps = [
        (start + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S") for i in range(160)
    ]
    data = tmp_path / "series.csv"
    write_csv(frame, data)
    ckpt = tmp_path / "model.ckpt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"data_path={data}",
                "look_back=8",
                "horizon=4",
                "levels=1",
                "kernel_size=3",
                "hidden_ratio=1",
                "dropout=0.25",
                "epochs=2",
                "batch_size=16",
                "lr=0.005",
                "patience=10",
                "seed=5",
                f"checkpoint_path={ckpt}",
            ]
        )
        + "\n"
    )
    assert main(["train", str(cfg)]) == 0
    first = ckpt.read_bytes()
    assert main(["train", str(cfg)]) == 0
    second = ckpt.read_bytes()
    runs_identical = first == second

    model = build_model(
        ModelConfig(
            look_back=8, horizon=4, n_variates=2, levels=1, stacks=1,
            kernel_size=3, hidden_ratio=1, dropout=0.0, identity_init=False, seed=9,
        )
    )
    x = Tensor(np.random.default_rng(11).normal(size=(3, 2, 8)))
    before = model.forward(x)[-1].data.tobytes()
    direct = tmp_path / "direct.ckpt"
    save_checkpoint(direct, model)
    loaded, _ = load_checkpoint(direct)
    after = loaded.forward(x)[-1].data.tobytes()
    round_trip_identical = before == after

    ok = runs_identical and round_trip_identical
    record_criterion(
        "A8", ok,
        f"repeated training runs byte-identical: {runs_identical}; "
        f"save/load/forward bit-identical: {round_trip_identical}",
    )


def test_a9_stacked_loss_decomposition(record_criterion):
    model = build_model(
        ModelConfig(
            look_back=16, horizon=4, n_variates=2, levels=1, stacks=3,
            kernel_size=3, hidden_ratio=1, dropout=0.0, identity_init=False, seed=6,
        )
    )
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5, 2, 16)))
    y = Tensor(rng.normal(size=(5, 2, 4)))
    total, components = compute_loss(model.forward(x), y)
    gap = abs(total.item() - sum(c.item() for c in components))
    ok = len(components) == 3 and gap <= LOSS_SUM_TOL
    record_criterion(
        "A9", ok,
        f"{len(components)} stack components, |total - sum| = {gap:.2e} (tol {LOSS_SUM_TOL:g})",
    )
