import json
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinet.data import WindowDataset, fit_normalizer, synthetic_frame
from scinet.errors import CheckpointError, ConfigError, NumericError
from scinet.model import ModelConfig, build_model
from scinet.tensor import Tensor
from scinet.train import (
    Adam,
    TrainConfig,
    fit,
    load_checkpoint,
    save_checkpoint,
    should_stop,
    train_epoch,
    validation_loss,
)


def small_config(**kw):
    base = dict(
        look_back=8,
        horizon=2,
        n_variates=1,
        levels=1,
        stacks=1,
        kernel_size=3,
        hidden_ratio=1,
        dropout=0.0,
        identity_init=False,
        seed=21,
    )
    base.update(kw)
    return ModelConfig(**base)


def small_dataset(n=80, seed=0, look_back=8, horizon=2):
    frame = synthetic_frame(n, 1, seed=seed)
    stats = fit_normalizer(frame, (0, n))
    values = stats.apply(frame.values)
    return WindowDataset(values, (0, n), look_back=look_back, horizon=horizon)


class TestAdam:
    def test_first_step_worked_example(self):
        # unit gradient, lr 1e-3: bias correction makes the first update
        # lr * g / (|g| + eps), within a hair of -1e-3
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        Adam([p], lr=1e-3).step()
        assert p.data[0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
        assert p.grad is None

    def test_missing_grad_means_no_movement(self):
        p = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        Adam([p], lr=0.5).step()
        npt.assert_array_equal(p.data, [2.0, 3.0])

    def test_zero_lr_is_a_no_op(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        p.grad = np.array([7.0])
        Adam([p], lr=0.0).step()
        npt.assert_array_equal(p.data, [1.5])

    def test_identical_states_update_identically(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(3, 4))
        grad = rng.normal(size=(3, 4))
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        oa, ob = Adam([a], lr=1e-2), Adam([b], lr=1e-2)
        for _ in range(3):
            a.grad, b.grad = grad.copy(), grad.copy()
            oa.step()
            ob.step()
        npt.assert_array_equal(a.data, b.data)

    def test_clipping_rescales_to_the_ceiling(self):
        # gradient norm 50 clipped to 5 must behave exactly like a gradient
        # that already had norm 5 in the same direction
        data = np.array([0.0, 0.0])
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        oa = Adam([a], lr=1e-2, clip_norm=5.0)
        ob = Adam([b], lr=1e-2, clip_norm=0.0)
        a.grad = np.array([30.0, 40.0])
        b.grad = np.array([3.0, 4.0])
        oa.step()
        ob.step()
        npt.assert_allclose(a.data, b.data, rtol=1e-12)

    def test_clipping_leaves_small_gradients_alone(self):
        data = np.array([1.0, -1.0])
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        oa = Adam([a], lr=1e-2, clip_norm=100.0)
        ob = Adam([b], lr=1e-2, clip_norm=0.0)
        a.grad = np.array([3.0, 4.0])
        b.grad = np.array([3.0, 4.0])
        oa.step()
        ob.step()
        npt.assert_array_equal(a.data, b.data)

    def test_clip_spans_all_parameters_jointly(self):
        # two params with per-tensor norms 3 and 4: global norm 5 triggers a
        # clip at 4.9 even though each tensor alone is under it
        p1 = Tensor(np.array([0.0]), requires_grad=True)
        p2 = Tensor(np.array([0.0]), requires_grad=True)
        q1 = Tensor(np.array([0.0]), requires_grad=True)
        q2 = Tensor(np.array([0.0]), requires_grad=True)
        op = Adam([p1, p2], lr=1e-2, clip_norm=4.9)
        oq = Adam([q1, q2], lr=1e-2, clip_norm=0.0)
        p1.grad, p2.grad = np.array([3.0]), np.array([4.0])
        q1.grad, q2.grad = np.array([3.0 * 0.98]), np.array([4.0 * 0.98])
        op.step()
        oq.step()
        npt.assert_allclose(p1.data, q1.data, rtol=1e-12)
        npt.assert_allclose(p2.data, q2.data, rtol=1e-12)


class ReferenceAdam:
    """The per-tensor Adam the flat vector replaced, kept as the bitwise reference."""

    def __init__(self, params, lr, clip_norm=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.clip_norm = lr, clip_norm
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in self.params]
        if self.clip_norm > 0:
            total = math.sqrt(sum(float((g * g).sum()) for g in grads))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                grads = [g * scale for g in grads]
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None


class TestFlatAdam:
    # 0.05 clips every step, 0 disables clipping, 1e9 never fires
    @pytest.mark.parametrize("clip_norm", [0.05, 0.0, 1e9])
    def test_matches_per_tensor_reference_bitwise(self, clip_norm):
        cfg = small_config(levels=2, stacks=2, n_variates=2, hidden_ratio=2)
        ref_model, flat_model = build_model(cfg), build_model(cfg)
        ref = ReferenceAdam(ref_model.parameters(), lr=1e-2, clip_norm=clip_norm)
        flat = Adam(flat_model.parameters(), lr=1e-2, clip_norm=clip_norm)
        shapes = [p.shape for p in flat_model.parameters()]
        rng = np.random.default_rng(3)
        for step in range(5):
            for i, (a, b) in enumerate(zip(ref_model.parameters(), flat_model.parameters())):
                if (i + step) % 4 == 0:
                    continue  # some grads stay None
                a.grad = rng.normal(scale=2.0, size=a.shape)
                b.grad = a.grad.copy()
            ref.step()
            flat.step()
        for a, b in zip(ref_model.parameters(), flat_model.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
            assert b.grad is None
        for p, shape in zip(flat_model.parameters(), shapes):
            assert np.shares_memory(p.data, flat.flat)
            assert p.shape == shape

    def test_clears_grads_and_packs_in_order(self):
        p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        q = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        p.grad = np.ones((1, 2))
        opt = Adam([p, q], lr=0.0)
        npt.assert_array_equal(opt.flat, [1.0, 2.0, 3.0, 4.0])
        opt.step()
        assert p.grad is None and q.grad is None
        opt.flat[:] = [5.0, 6.0, 7.0, 8.0]
        npt.assert_array_equal(p.data, [[5.0, 6.0]])
        npt.assert_array_equal(q.data, [[7.0], [8.0]])

class TestShouldStop:
    def test_empty_history_continues(self):
        assert not should_stop([], 3)

    def test_flat_history_stops_after_patience(self):
        assert not should_stop([1.0, 1.0, 1.0], 3)
        assert should_stop([1.0, 1.0, 1.0, 1.0], 3)

    def test_improvement_resets_the_clock(self):
        assert not should_stop([3.0, 2.0, 1.0], 2)
        assert not should_stop([3.0, 2.0, 1.0, 1.5], 2)
        assert should_stop([3.0, 2.0, 1.0, 1.5, 1.4], 2)

    def test_tie_does_not_reset(self):
        # equalling the best is not an improvement
        assert should_stop([1.0, 2.0, 1.0], 2)

    def test_monotone_improvement_never_stops(self):
        history = [1.0 / (i + 1) for i in range(50)]
        assert not should_stop(history, 1)


class TestTrainEpoch:
    def test_zero_lr_epoch_loss_matches_validation(self):
        # with lr 0 the parameters never move, so the shuffled training mean
        # equals the deterministic validation mean over the same windows
        model = build_model(small_config())
        ds = small_dataset()
        opt = Adam(model.parameters(), lr=0.0)
        stats = train_epoch(model, ds, opt, batch_size=16, rng=np.random.default_rng(0))
        val = validation_loss(model, ds, batch_size=16)
        assert stats.total == pytest.approx(val.total, rel=1e-12)

    def test_loss_drops_over_epochs(self):
        model = build_model(small_config(identity_init=True))
        ds = small_dataset(n=120)
        opt = Adam(model.parameters(), lr=5e-3, clip_norm=5.0)
        rng = np.random.default_rng(1)
        first = train_epoch(model, ds, opt, batch_size=16, rng=rng).total
        last = first
        for _ in range(4):
            last = train_epoch(model, ds, opt, batch_size=16, rng=rng).total
        assert last < first

    def test_non_finite_loss_aborts_with_diagnostics(self, monkeypatch):
        model = build_model(small_config())
        ds = small_dataset()
        opt = Adam(model.parameters(), lr=1e-3)

        def poisoned_loss(outputs, target):
            t = Tensor(np.zeros(()))
            t.data = np.array(np.nan)
            return t, [t]

        monkeypatch.setattr("scinet.train.compute_loss", poisoned_loss)
        with pytest.raises(NumericError, match="batch 0"):
            train_epoch(model, ds, opt, batch_size=16, rng=np.random.default_rng(0))

    def test_stack_components_reported_per_stack(self):
        model = build_model(small_config(stacks=2, horizon=2))
        ds = small_dataset()
        opt = Adam(model.parameters(), lr=0.0)
        stats = train_epoch(model, ds, opt, batch_size=16, rng=np.random.default_rng(0))
        assert len(stats.components) == 2
        assert stats.total == pytest.approx(sum(stats.components), rel=1e-12)


class TestTrainConfig:
    def test_validation(self):
        TrainConfig().validate()
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lr_decay=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(patience=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(clip_norm=-0.1).validate()


class TestFit:
    def test_learning_and_history_shape(self):
        model = build_model(small_config(identity_init=True))
        train_ds = small_dataset(n=160, seed=2)
        val_ds = small_dataset(n=60, seed=3)
        cfg = TrainConfig(epochs=4, batch_size=16, lr=5e-3, patience=10, seed=0)
        result = fit(model, train_ds, val_ds, cfg)
        assert len(result.history) == 4
        assert result.history[-1]["train_total"] < result.history[0]["train_total"]
        assert not result.stopped_early
        for i, record in enumerate(result.history):
            assert record["epoch"] == i + 1
            assert record["lr"] == pytest.approx(cfg.lr * cfg.lr_decay**i)

    def test_best_parameters_restored(self):
        model = build_model(small_config(identity_init=True))
        train_ds = small_dataset(n=160, seed=2)
        val_ds = small_dataset(n=60, seed=3)
        cfg = TrainConfig(epochs=5, batch_size=16, lr=5e-3, patience=10, seed=0)
        result = fit(model, train_ds, val_ds, cfg)
        after = validation_loss(model, val_ds, cfg.batch_size).total
        assert after == pytest.approx(result.best_val, rel=1e-12)
        # restored in place: every parameter is still a view of one vector
        assert len({id(p.data.base) for p in model.parameters()}) == 1
        assert result.best_val == min(r["val_total"] for r in result.history)

    def test_early_stop_on_flat_validation(self):
        # lr 0 leaves validation identical each epoch: the first epoch stays
        # best and training stops after patience further epochs
        model = build_model(small_config())
        train_ds = small_dataset(n=80, seed=2)
        val_ds = small_dataset(n=60, seed=3)
        cfg = TrainConfig(epochs=50, batch_size=16, lr=0.0, patience=3, seed=0)
        result = fit(model, train_ds, val_ds, cfg)
        assert result.stopped_early
        assert result.best_epoch == 1
        assert len(result.history) == 4

    def test_log_lines_emitted(self):
        model = build_model(small_config())
        ds = small_dataset()
        lines = []
        cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-3, patience=10, seed=0)
        fit(model, ds, ds, cfg, log=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("epoch=1 ")
        assert "val_loss=" in lines[0] and "lr=" in lines[0]


class TestCheckpoint:
    @staticmethod
    def fresh_model(**kw):
        return build_model(small_config(levels=2, stacks=2, horizon=2, **kw))

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.fresh_model()
        path = tmp_path / "m.ckpt"
        extras = {"seed": 21, "note": "x", "norm_mean": [0.5], "norm_std": [1.25]}
        save_checkpoint(path, model, extras)
        loaded, manifest = load_checkpoint(path)
        assert manifest["extras"] == extras
        for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert a.data.tobytes() == b.data.tobytes()
        x = Tensor(np.random.default_rng(7).normal(size=(3, 1, 8)))
        out_a = model.forward(x)[-1].data
        out_b = loaded.forward(x)[-1].data
        assert out_a.tobytes() == out_b.tobytes()

    def test_config_round_trips(self, tmp_path):
        model = self.fresh_model(sign="sub", weight_share=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == model.config

    def test_identical_saves_identical_bytes(self, tmp_path):
        model = self.fresh_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, {"seed": 1})
        save_checkpoint(p2, model, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        class Unwritable(np.ndarray):
            def tobytes(self, order="C"):
                raise OSError("disk full")

        model = self.fresh_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, {"seed": 1})
        good = path.read_bytes()
        param = model.parameters()[-1]
        param.data = param.data.view(Unwritable)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, {"seed": 2})
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_no_manifest_terminator(self, tmp_path):
        p = tmp_path / "c.ckpt"
        p.write_bytes(b'{"format_version": 1}')
        with pytest.raises(CheckpointError, match="terminator"):
            load_checkpoint(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "c.ckpt"
        p.write_bytes(b"not json at all\x00")
        with pytest.raises(CheckpointError, match="json"):
            load_checkpoint(p)

    @staticmethod
    def rewrite_manifest(path, mutate):
        raw = Path(path).read_bytes()
        sep = raw.find(b"\x00")
        manifest = json.loads(raw[:sep].decode("utf-8"))
        mutate(manifest)
        Path(path).write_bytes(json.dumps(manifest).encode("utf-8") + b"\x00" + raw[sep + 1:])

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self.fresh_model())
        self.rewrite_manifest(p, lambda m: m.update(format_version=99))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_tensor_order_mismatch_names_tensors(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self.fresh_model())

        def swap(m):
            m["tensors"][0]["name"] = "bogus"

        self.rewrite_manifest(p, swap)
        with pytest.raises(CheckpointError, match="bogus"):
            load_checkpoint(p)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self.fresh_model())

        def reshape(m):
            entry = m["tensors"][0]
            entry["shape"] = [1] + entry["shape"]

        self.rewrite_manifest(p, reshape)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(p)

    def test_truncated_payload_names_tensor(self, tmp_path):
        p = tmp_path / "c.ckpt"
        model = self.fresh_model()
        save_checkpoint(p, model)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        last_name = model.named_parameters()[-1][0]
        with pytest.raises(CheckpointError, match=last_name):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self.fresh_model())
        p.write_bytes(p.read_bytes() + b"\x00" * 4)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(p)

    def test_loaded_model_is_trainable(self, tmp_path):
        # parameters restored from frombuffer must remain writable
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self.fresh_model())
        loaded, _ = load_checkpoint(p)
        ds = small_dataset()
        opt = Adam(loaded.parameters(), lr=1e-3)
        train_epoch(loaded, ds, opt, batch_size=16, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A levels 2, stacks 2 checkpoint's bytes, its manifest length, and a scratch file to load from."""
    root = tmp_path_factory.mktemp("robust")
    good = root / "good.ckpt"
    save_checkpoint(good, build_model(small_config(levels=2, stacks=2)), {"norm_mean": [0.5], "note": "x"})
    raw = good.read_bytes()
    return raw, raw.index(b"\x00"), root / "probe.ckpt"


class TestCheckpointRobustness:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_truncation_raises_checkpoint_error(self, saved_checkpoint, data):
        raw, _, probe = saved_checkpoint
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        probe.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(probe)

    @given(data=st.data(), value=st.one_of(st.sampled_from(b'-019e." \x00'), st.integers(0, 255)))
    @settings(max_examples=300, deadline=None)
    def test_manifest_byte_overwrite_loads_or_raises_checkpoint_error(self, saved_checkpoint, data, value):
        raw, sep, probe = saved_checkpoint
        at = data.draw(st.integers(0, sep - 1), label="at")
        probe.write_bytes(raw[:at] + bytes([value]) + raw[at + 1:])
        try:
            load_checkpoint(probe)
        except CheckpointError:
            pass
