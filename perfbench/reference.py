"""Computations made apart from the program, used to check its outputs.

Nothing here imports scinet. The checkpoint is parsed from its bytes, the
forward pass is rebuilt from the tensors it names, and permutation entropy
uses a rank-vector encoding of ordinal patterns instead of the program's
argsort codes. Every check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

EXP_CLAMP = 20.0
FORWARD_TOL = 1e-9
METRIC_RTOL = 1e-12
CELL_TOL = 1e-12
PE_TOL = 1e-12


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Manifest and name -> float64 array, read straight from the file layout."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sep = raw.index(b"\x00")
    manifest = json.loads(raw[:sep].decode("utf-8"))
    blob = raw[sep + 1:]
    tensors = {}
    offset = 0
    for entry in manifest["tensors"]:
        count = int(np.prod(entry["shape"], dtype=np.int64))
        tensors[entry["name"]] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(entry["shape"])
        offset += 8 * count
    if offset != len(blob):
        raise ValueError(f"checkpoint {path}: {len(blob) - offset} bytes left after the listed tensors")
    return manifest, tensors


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Edge-padded cross-correlation, one kernel tap at a time."""
    k = w.shape[2]
    pad = (k - 1) // 2
    n = x.shape[2]
    xp = np.concatenate([np.repeat(x[:, :, :1], pad, axis=2), x, np.repeat(x[:, :, -1:], pad, axis=2)], axis=2)
    out = np.broadcast_to(b[None, :, None], (x.shape[0], w.shape[0], n)).copy()
    for j in range(k):
        out += np.einsum("oc,bct->bot", w[:, :, j], xp[:, :, j:j + n])
    return out


def _module(x: np.ndarray, t: dict, prefix: str, slope: float) -> np.ndarray:
    h = _conv(x, t[prefix + "/w_in"], t[prefix + "/b_in"])
    h = np.where(h >= 0.0, h, slope * h)
    return np.tanh(_conv(h, t[prefix + "/w_out"], t[prefix + "/b_out"]))


def _block(x: np.ndarray, t: dict, name: str, cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    even, odd = x[..., 0::2], x[..., 1::2]
    slope = cfg["leaky_slope"]

    def m(role, v):
        return _module(v, t, f"{name}/shared" if cfg["weight_share"] else f"{name}/{role}", slope)

    if cfg["no_interlearn"]:
        return m("correct_even", m("scale_for_even", even)), m("correct_odd", m("scale_for_odd", odd))
    scaled_odd = odd * np.exp(np.clip(m("scale_for_odd", even), -EXP_CLAMP, EXP_CLAMP))
    scaled_even = even * np.exp(np.clip(m("scale_for_even", odd), -EXP_CLAMP, EXP_CLAMP))
    sgn = 1.0 if cfg["sign"] == "add" else -1.0
    return scaled_even + sgn * m("correct_even", scaled_odd), scaled_odd + sgn * m("correct_odd", scaled_even)


def _leaves(x: np.ndarray, t: dict, name: str, level: int, cfg: dict) -> list[np.ndarray]:
    even, odd = _block(x, t, name, cfg)
    if level == cfg["levels"]:
        return [even, odd]
    return _leaves(even, t, name + "e", level + 1, cfg) + _leaves(odd, t, name + "o", level + 1, cfg)


def _leaf_positions(n: int, levels: int) -> list[np.ndarray]:
    """Original time index of every leaf sample, by splitting an index ramp."""
    parts = [np.arange(n)]
    for _ in range(levels):
        parts = [q for p in parts for q in (p[0::2], p[1::2])]
    return parts


def reference_forward(manifest: dict, tensors: dict, x: np.ndarray) -> np.ndarray:
    """Final-stack forecast for inputs x of shape (batch, variates, look_back)."""
    cfg = manifest["model_config"]
    look_back, horizon = cfg["look_back"], cfg["horizon"]
    positions = _leaf_positions(look_back, cfg["levels"])
    current = x
    pred = None
    for s in range(cfg["stacks"]):
        leaves = _leaves(current, tensors, f"stack{s}/b", 1, cfg)
        rep = np.empty_like(current)
        for pos, leaf in zip(positions, leaves):
            rep[..., pos] = leaf
        if not cfg["no_residual"]:
            rep = rep + current
        if cfg["no_decoder"]:
            pred = rep[..., look_back - horizon:]
        else:
            pred = rep @ tensors[f"stack{s}/decoder/weight"].T + tensors[f"stack{s}/decoder/bias"]
        current = np.concatenate([x[..., horizon:], pred], axis=-1)
    return pred


def windows(values: np.ndarray, starts, look_back: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(windows, variates, time) inputs and targets starting at the given rows."""
    xs = np.stack([values[s:s + look_back].T for s in starts])
    ys = np.stack([values[s + look_back:s + look_back + horizon].T for s in starts])
    return xs, ys


def ratio_split(rows: int, parts=(6, 2, 2)) -> list[tuple[int, int]]:
    total = sum(parts)
    n_val = rows * parts[1] // total
    n_test = rows * parts[2] // total
    n_train = rows - n_val - n_test
    return [(0, n_train), (n_train, n_train + n_val), (n_train + n_val, rows)]


def permutation_entropy(x: np.ndarray, order: int, lag: int) -> float:
    """Normalized PE; a pattern is the vector of within-window ranks (ties: earlier first)."""
    n_win = x.size - (order - 1) * lag
    emb = np.stack([x[i * lag:i * lag + n_win] for i in range(order)], axis=1)
    ranks = np.zeros((n_win, order), dtype=np.int64)
    for i in range(order):
        for j in range(order):
            if j != i:
                ranks[:, i] += (emb[:, j] < emb[:, i]) | ((emb[:, j] == emb[:, i]) & (j < i))
    codes = ranks @ (order ** np.arange(order, dtype=np.int64))
    counts = np.bincount(codes)
    p = counts[counts > 0] / n_win
    return float(-(p * np.log(p)).sum() / math.log(math.factorial(order)))


def parse_lines(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


def read_predictions(path: str, n_variates: int, horizon: int) -> np.ndarray:
    """Rows of `predict --emit` as an array (windows, horizon, variates, 5)."""
    arr = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    return arr.reshape(-1, horizon, n_variates, 5)


# ---- checks ---------------------------------------------------------------


def check_forward(manifest: dict, tensors: dict, x: np.ndarray, pred: np.ndarray, what: str) -> list[str]:
    ref = reference_forward(manifest, tensors, x)
    err = float(np.max(np.abs(ref - pred)))
    return [] if err <= FORWARD_TOL else [f"{what}: forecast differs from the reference forward pass by {err:.3e}"]


def check_rows(rows: np.ndarray, values: np.ndarray, manifest: dict, tensors: dict, sample: np.ndarray) -> list[str]:
    """Layout, truth cells and sampled predictions of `predict --emit` rows."""
    cfg = manifest["model_config"]
    look_back, horizon = cfg["look_back"], cfg["horizon"]
    n_win = values.shape[0] - look_back - horizon + 1
    problems = []
    if rows.shape[0] != n_win:
        return [f"predict: {rows.shape[0]} windows emitted, series has {n_win}"]
    w, s, v = np.meshgrid(np.arange(n_win), np.arange(1, horizon + 1), np.arange(values.shape[1]), indexing="ij")
    if not (np.array_equal(rows[..., 0], w) and np.array_equal(rows[..., 1], s) and np.array_equal(rows[..., 2], v)):
        problems.append("predict: window_id/step/variate columns are out of order")
    extras = manifest["extras"]
    normed = (values - np.asarray(extras["norm_mean"])) / np.asarray(extras["norm_std"])
    truth = normed[w + look_back + s - 1, v]
    err = float(np.max(np.abs(truth - rows[..., 3])))
    if err > CELL_TOL:
        problems.append(f"predict: truth cells differ from the normalized source rows by {err:.3e}")
    xs, _ = windows(normed, sample, look_back, horizon)
    pred = rows[sample, :, :, 4].transpose(0, 2, 1)
    return problems + check_forward(manifest, tensors, xs, pred, "predict")


def check_norm(manifest: dict, values: np.ndarray) -> list[str]:
    start, stop = ratio_split(values.shape[0])[0]
    chunk = values[start:stop]
    extras = manifest["extras"]
    err = max(float(np.max(np.abs(chunk.mean(axis=0) - extras["norm_mean"]))),
              float(np.max(np.abs(chunk.std(axis=0) - extras["norm_std"]))))
    return [] if err <= CELL_TOL else [f"checkpoint norm stats differ from the training rows by {err:.3e}"]


def check_eval(eval_text: str, rows: np.ndarray) -> list[str]:
    """`eval` mae/mse against the same test windows recomputed from `predict` rows."""
    err = rows[..., 4] - rows[..., 3]
    want = {"mae": float(np.mean(np.abs(err))), "mse": float(np.mean(err * err))}
    got = parse_lines(eval_text)
    problems = []
    if int(got.get("window_count", -1)) != rows.shape[0]:
        problems.append(f"eval: window_count={got.get('window_count')!r}, predict emitted {rows.shape[0]} windows")
    for key, value in want.items():
        if key not in got or abs(got[key] - value) > METRIC_RTOL * max(abs(value), 1e-300):
            problems.append(f"eval: {key}={got.get(key)!r}, recomputed from predict rows {value!r}")
    return problems


def check_pe(pe_text: str, values: np.ndarray, names: list[str], order: int, lag: int, prefix_rows=None) -> list[str]:
    """pe_original_* (series alone, or the tiled prefix under --checkpoint) against the rank-vector PE."""
    got = parse_lines(pe_text)
    used = values if prefix_rows is None else values[:prefix_rows]
    want = [permutation_entropy(used[:, i], order, lag) for i in range(len(names))]
    problems = []
    for name, value in zip(names, want):
        key = f"pe_original_{name}"
        if key not in got or abs(got[key] - value) > PE_TOL:
            problems.append(f"pe: {key}={got.get(key)!r}, reference {value!r}")
    if abs(got.get("pe_original_mean", math.nan) - float(np.mean(want))) > PE_TOL:
        problems.append(f"pe: pe_original_mean={got.get('pe_original_mean')!r}, reference {float(np.mean(want))!r}")
    if prefix_rows is not None:
        enhanced = [got.get(f"pe_enhanced_{n}", math.nan) for n in names]
        if not all(0.0 <= e <= 1.0 for e in enhanced):
            problems.append(f"pe: enhanced entropies outside [0, 1]: {enhanced}")
    return problems


def repeat_last_mae(normed: np.ndarray, segment: tuple[int, int], look_back: int, horizon: int) -> float:
    """MAE of forecasting every horizon step as the last look-back value."""
    start, stop = segment
    xs, ys = windows(normed, range(start, stop - look_back - horizon + 1), look_back, horizon)
    return float(np.mean(np.abs(xs[:, :, -1:] - ys)))
