import contextlib
import csv
import io
import json
import os
import tempfile
from dataclasses import fields
from datetime import datetime, timedelta
from types import SimpleNamespace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinet import cli
from scinet.cli import (
    SCALES,
    RunConfig,
    main,
    parse_kv_file,
    parse_overrides,
    resolve_config,
)
from scinet.data import TimeSeriesFrame, load_csv, synthetic_frame, write_csv
from scinet.errors import ConfigError
from scinet.model import ModelConfig
from scinet.train import TrainConfig, load_checkpoint, predict_windows, save_checkpoint


def write_dataset(path, n=120, d=2, seed=0):
    frame = synthetic_frame(n, d, seed=seed)
    start = datetime(2021, 1, 1)
    frame.timestamps = [(start + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S") for i in range(n)]
    write_csv(frame, path)
    return frame


def write_config(path, data_path, checkpoint_path, **kw):
    base = dict(
        data_path=data_path,
        look_back=8,
        horizon=4,
        levels=1,
        kernel_size=3,
        hidden_ratio=1,
        dropout=0.0,
        epochs=2,
        batch_size=16,
        lr=0.005,
        patience=10,
        seed=3,
        checkpoint_path=checkpoint_path,
    )
    base.update(kw)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


class TestParseKvFile:
    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# full line comment\n\nlr=0.01  # trailing comment\nseed = 5\n")
        assert parse_kv_file(p) == {"lr": "0.01", "seed": "5"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lr=0.01\nlr=0.02\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("this is not a key value line\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_kv_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_kv_file(tmp_path / "absent.cfg")

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"\xef\xbb\xbfdata_path=d.csv\nseed=5\n")  # as a spreadsheet's "UTF-8" export starts
        assert parse_kv_file(p) == {"data_path": "d.csv", "seed": "5"}


class TestParseOverrides:
    def test_space_separated(self):
        assert parse_overrides(["--lr", "0.1", "--seed", "9"]) == {"lr": "0.1", "seed": "9"}

    def test_equals_form(self):
        assert parse_overrides(["--lr=0.1"]) == {"lr": "0.1"}

    def test_missing_value(self):
        with pytest.raises(ConfigError, match="missing a value"):
            parse_overrides(["--lr"])

    def test_bare_token_rejected(self):
        with pytest.raises(ConfigError, match="expected --key"):
            parse_overrides(["lr=0.1"])


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config({}, {}, env={})
        assert cfg == RunConfig()
        assert cfg.seed == 42

    def test_env_seed_beats_default(self):
        cfg = resolve_config({}, {}, env={"SCINET_SEED": "7"})
        assert cfg.seed == 7

    def test_file_beats_env(self):
        cfg = resolve_config({"seed": "9"}, {}, env={"SCINET_SEED": "7"})
        assert cfg.seed == 9

    def test_flag_beats_file_and_env(self):
        cfg = resolve_config({"seed": "9"}, {"seed": "11"}, env={"SCINET_SEED": "7"})
        assert cfg.seed == 11

    def test_unknown_file_key_names_source(self):
        with pytest.raises(ConfigError, match="config file"):
            resolve_config({"learning_rate": "0.1"}, {}, env={})

    def test_unknown_override_key_names_source(self):
        with pytest.raises(ConfigError, match="command line"):
            resolve_config({}, {"learning_rate": "0.1"}, env={})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="not a int"):
            resolve_config({"epochs": "ten"}, {}, env={})

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="not a bool"):
            resolve_config({"no_decoder": "maybe"}, {}, env={})

    def test_bad_metrics_scale(self):
        with pytest.raises(ConfigError, match="metrics_scale"):
            resolve_config({"metrics_scale": "raw"}, {}, env={})

    def test_bad_split(self):
        with pytest.raises(ConfigError):
            resolve_config({"split": "ratio:1"}, {}, env={})

    @pytest.mark.parametrize("text, value", [
        ("true", True), (" TRUE ", True), ("1", True), ("Yes", True),
        ("false", False), (" False", False), ("0", False), ("NO ", False),
    ])
    def test_bool_spellings(self, text, value):
        assert resolve_config({"no_decoder": text}, {}, env={}).no_decoder is value

    def test_config_hash_tracks_content(self):
        a = resolve_config({}, {}, env={})
        b = resolve_config({"lr": "0.002"}, {}, env={})
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == resolve_config({}, {}, env={}).config_hash()

    def test_default_config_hash_is_pinned(self):
        # checkpoints record this hash, so the default configuration must not drift
        assert resolve_config({}, {}, env={}).config_hash() == (
            "6ca40b76bf47bc62942dec7da6196452ba5567b51e2a5d296388eb49db216f11"
        )

    def test_keys_are_the_library_fields_plus_the_cli_keys(self):
        library = {f.name for f in fields(ModelConfig) + fields(TrainConfig)} - {"n_variates"}
        cli_keys = {"data_path", "timestamp_column", "split", "metrics_scale", "checkpoint_path"}
        assert {f.name for f in fields(RunConfig)} == library | cli_keys


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "series.csv"
    frame = write_dataset(data)
    ckpt = root / "model.ckpt"
    cfg = write_config(root / "run.cfg", data, ckpt)
    rc = main(["train", str(cfg)])
    assert rc == 0
    assert ckpt.exists()
    return SimpleNamespace(root=root, data=data, ckpt=ckpt, cfg=cfg, frame=frame)


class TestTrainCommand:
    def test_output_lines(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data)
        cfg = write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt", epochs=1)
        rc = main(["train", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch=1 " in out
        assert "best_epoch=" in out and "best_val_loss=" in out
        assert "test_mae=" in out and "test_mse=" in out
        assert f"checkpoint={tmp_path / 'm.ckpt'}" in out

    def test_flag_override_reaches_checkpoint(self, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data)
        ckpt = tmp_path / "m.ckpt"
        cfg = write_config(tmp_path / "r.cfg", data, ckpt, epochs=1)
        rc = main(["train", str(cfg), "--seed", "11"])
        assert rc == 0
        _, manifest = load_checkpoint(ckpt)
        assert manifest["extras"]["seed"] == 11
        assert manifest["model_config"]["seed"] == 11

    def test_indivisible_look_back_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data)
        cfg = write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt",
                           look_back=48, horizon=4, levels=5)
        rc = main(["train", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "not divisible" in err

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "r.cfg", tmp_path / "nope.csv", tmp_path / "m.ckpt")
        rc = main(["train", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "nope.csv" in err

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data)
        cfg = write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt")
        rc = main(["train", str(cfg), "--learning_rate", "0.1"])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_empty_data_path_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("epochs=1\n")
        rc = main(["train", str(cfg)])
        assert rc == 2
        assert "data_path" in capsys.readouterr().err

    def test_months_split_over_mixed_time_zones_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        frame = write_dataset(data)
        frame.timestamps[5] = "2021-01-01 05:00:00+00:00"
        write_csv(frame, data)
        rc = main(["train", str(write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt", split="months:1,1,1"))])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: timestamp '2021-01-01 05:00:00+00:00' has a time zone") and err.count("\n") == 1

    def test_months_split_past_the_calendar_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data)
        rc = main(["train", str(write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt",
                                             split="months:200000,4,4"))])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: split months:200000,4,4 runs past year 9999") and err.count("\n") == 1

    # NaN passes every < and > check; inf trains a model of all-zero opening convs (leaky_slope),
    # or steps to NaN (lr)
    @pytest.mark.parametrize("key, value", [("leaky_slope", "nan"), ("leaky_slope", "inf"), ("lr", "nan"),
                                            ("lr", "inf"), ("lr_decay", "nan"), ("clip_norm", "nan"),
                                            ("clip_norm", "inf")])
    def test_non_finite_hyperparameter_exits_2(self, tmp_path, capsys, key, value):
        data = tmp_path / "d.csv"
        write_dataset(data)
        cfg = write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt", epochs=1)
        rc = main(["train", str(cfg), f"--{key}", value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and key in captured.err
        assert not (tmp_path / "m.ckpt").exists()


def test_rejected_rows_leave_their_windows_out(tmp_path, capsys):
    data = tmp_path / "gaps.csv"
    frame = write_dataset(data)
    frame.values[50, 0] = np.nan
    frame.values[90, 1] = np.inf
    write_csv(frame, data)
    ckpt = tmp_path / "m.ckpt"
    # 118 rows kept; ratio:6,2,2 puts the gaps after kept rows 49 and 88 in train and validation
    assert main(["train", str(write_config(tmp_path / "r.cfg", data, ckpt, epochs=1))]) == 0
    assert capsys.readouterr().err.splitlines() == ["rejected_rows=2", "excluded_windows=17"]
    # look_back + horizon = 12, so each gap leaves 11 of the 107 windows out
    assert main(["predict", str(ckpt), str(data), "--emit", str(tmp_path / "f.csv")]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == ["rejected_rows=2", "excluded_windows=22"]
    assert out.startswith("windows=85 ")
    with open(tmp_path / "f.csv", newline="") as fh:
        ids = sorted({int(row["window_id"]) for row in csv.DictReader(fh)})
    # a window starting at kept row i reads kept rows i..i+11; the gaps follow kept rows 49 and 88
    assert ids == [i for i in range(107) if not (39 <= i <= 49 or 78 <= i <= 88)]


def test_pe_refuses_a_series_with_dropped_rows(tmp_path, capsys):
    data = tmp_path / "gaps.csv"
    frame = write_dataset(data)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", str(write_config(tmp_path / "r.cfg", data, ckpt, epochs=1))]) == 0
    for row, col in ((30, 0), (31, 1), (70, 0)):
        frame.values[row, col] = np.nan
    write_csv(frame, data)
    capsys.readouterr()
    for argv in (["pe", str(data)], ["pe", str(data), "--checkpoint", str(ckpt)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # data row 30 sits on file line 32, after the header
        assert f"error: {data} row 32 holds NaN or inf (3 such rows)" in err


class TestEvalCommand:
    def test_report_file_and_stdout(self, trained, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = main(["eval", str(trained.ckpt), str(trained.data), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "mae=" in stdout and "scale=normalized" in stdout
        content = dict(line.split("=", 1) for line in out.read_text().splitlines())
        assert float(content["mae"]) >= 0.0
        assert int(content["window_count"]) > 0

    def test_original_scale_changes_numbers(self, trained, tmp_path, capsys):
        out_n = tmp_path / "n.txt"
        out_o = tmp_path / "o.txt"
        main(["eval", str(trained.ckpt), str(trained.data), "--out", str(out_n), "--scale", "normalized"])
        main(["eval", str(trained.ckpt), str(trained.data), "--out", str(out_o), "--scale", "original"])
        capsys.readouterr()
        mae_n = float(dict(l.split("=", 1) for l in out_n.read_text().splitlines())["mae"])
        mae_o = float(dict(l.split("=", 1) for l in out_o.read_text().splitlines())["mae"])
        assert mae_n != mae_o

    def test_extra_args_rejected(self, trained, tmp_path, capsys):
        rc = main(["eval", str(trained.ckpt), str(trained.data), "--bogus", "1"])
        assert rc == 2
        assert "unexpected" in capsys.readouterr().err

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        rc = main(["eval", str(tmp_path / "no.ckpt"), str(tmp_path / "no.csv")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err


class TestPredictCommand:
    def test_emitted_csv_layout_and_truth(self, trained, tmp_path, capsys):
        emit = tmp_path / "pred.csv"
        rc = main(["predict", str(trained.ckpt), str(trained.data), "--emit", str(emit)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert f"emitted={emit}" in stdout
        with open(emit, newline="") as fh:
            rows = list(csv.DictReader(fh))
        n = trained.frame.values.shape[0]
        look_back, horizon, d = 8, 4, 2
        expected_windows = n - look_back - horizon + 1
        assert len(rows) == expected_windows * horizon * d
        # truth column must reproduce the normalized input series exactly
        _, manifest = load_checkpoint(trained.ckpt)
        mean = np.array(manifest["extras"]["norm_mean"])
        std = np.array(manifest["extras"]["norm_std"])
        normed = (load_csv(trained.data).values - mean) / std
        first = [r for r in rows if r["window_id"] == "0" and r["variate"] == "0"]
        assert [r["step"] for r in first] == ["1", "2", "3", "4"]
        for step, row in enumerate(first):
            assert float(row["truth"]) == normed[look_back + step, 0]

    def test_prediction_column_is_finite(self, trained, tmp_path, capsys):
        emit = tmp_path / "pred2.csv"
        main(["predict", str(trained.ckpt), str(trained.data), "--emit", str(emit)])
        capsys.readouterr()
        with open(emit, newline="") as fh:
            preds = [float(r["prediction"]) for r in csv.DictReader(fh)]
        assert np.all(np.isfinite(preds))

    def test_emitted_csv_bytes_match_per_cell_repr(self, trained, tmp_path, capsys, monkeypatch):
        # values whose text is easy to get wrong: a signed zero, a tiny normal
        # and a repeating fraction; rows run window, step, variate. The truth
        # column is the series after each look-back, so its values come in
        # through the series, and the prediction column through the forward.
        series = np.resize([2.0 / 3.0, 7.0, -0.0, 0.1, 1e-300], (14, 2))  # look-back 8 + horizon 4: 3 windows
        pred = np.resize([-0.0, 1e-300, 2.0 / 3.0, -1.5], (3, 2, 4))
        restore = cli._restore

        def restore_series(checkpoint, data):
            model, extras, stats, _, _ = restore(checkpoint, data)
            return model, extras, stats, TimeSeriesFrame(series, ["a", "b"]), series

        monkeypatch.setattr(cli, "_restore", restore_series)
        monkeypatch.setattr(cli, "predict_windows", lambda model, dataset: (pred, np.full_like(pred, 5.0)))
        emit = tmp_path / "pred.csv"
        rc = main(["predict", str(trained.ckpt), str(trained.data), "--emit", str(emit), "--scale", "normalized"])
        assert rc == 0
        assert capsys.readouterr().out == f"windows=3 rows=24 emitted={emit}\n"
        expected = ["window_id,step,variate,truth,prediction"]
        for w in range(3):
            for s in range(4):
                for v in range(2):
                    expected.append(f"{w},{s + 1},{v},{float(series[w + 8 + s, v])!r},{float(pred[w, v, s])!r}")
        assert emit.read_bytes() == ("\r\n".join(expected) + "\r\n").encode()

    @given(
        n=st.integers(50, 80), magnitude=st.integers(-200, 100), seed=st.integers(0, 1000),
        gaps=st.dictionaries(st.integers(0, 49), st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3),
        scale=st.sampled_from(SCALES),
    )
    @settings(max_examples=12, deadline=None)
    def test_emitted_csv_is_the_per_cell_repr_of_the_forward(self, trained, n, magnitude, seed, gaps, scale):
        # the file holds, row by row, the repr of predict_windows' own truth and
        # prediction for each kept window, in the scale asked for
        seen = []

        def spy(model, dataset):
            seen.append((dataset.starts, *predict_windows(model, dataset)))
            return seen[-1][1:]

        with tempfile.TemporaryDirectory() as root, mock.patch.object(cli, "predict_windows", spy), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            data, emit = os.path.join(root, "d.csv"), os.path.join(root, "p.csv")
            frame = write_dataset(data, n=n, seed=seed)
            frame.values *= 10.0 ** magnitude  # shift the exponent of every value
            for row, value in gaps.items():
                frame.values[row, row % 2] = value
            write_csv(frame, data)
            assert main(["predict", str(trained.ckpt), data, "--emit", emit, "--scale", scale]) == 0
            with open(emit, "rb") as fh:
                got = fh.read()
        [(starts, pred, truth)] = seen
        kept = [row for row in range(n) if row not in gaps]
        # a window starting at kept row i reads kept rows i..i+11, which must be consecutive in the file
        assert starts.tolist() == [i for i in range(len(kept) - 11) if kept[i + 11] - kept[i] == 11]
        if scale == "original":
            extras = load_checkpoint(trained.ckpt)[1]["extras"]
            mean, std = (np.array(extras[key])[:, None] for key in ("norm_mean", "norm_std"))
            pred, truth = pred * std + mean, truth * std + mean
        rows = [f"{w},{s + 1},{v},{float(truth[i, v, s])!r},{float(pred[i, v, s])!r}\r\n"
                for i, w in enumerate(starts.tolist()) for s in range(4) for v in range(2)]
        assert got == ("window_id,step,variate,truth,prediction\r\n" + "".join(rows)).encode()


def test_unwritable_output_names_the_path_given(trained, tmp_path, capsys):
    for flag, command in (("--out", "eval"), ("--emit", "predict")):
        for out, reason in ((tmp_path / "nodir" / "o", "No such file or directory"), (tmp_path, "Is a directory")):
            assert main([command, str(trained.ckpt), str(trained.data), flag, str(out)]) == 1
            assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
            assert list(tmp_path.iterdir()) == []


def test_unwritable_output_fails_before_the_work(trained, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    for name in ("load_checkpoint", "predict_windows", "fit", "_load_frame"):
        monkeypatch.setattr(cli, name, never)
    afile = tmp_path / "afile"  # a regular file where a directory is wanted
    afile.write_text("")
    for flag, command in (("--out", "eval"), ("--emit", "predict")):
        for out, reason in ((tmp_path / "nodir" / "o", "No such file or directory"), (tmp_path, "Is a directory"),
                            ("", "No such file or directory"), (afile / "o", "Not a directory")):
            assert main([command, str(trained.ckpt), str(trained.data), flag, str(out)]) == 1
            assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
    for ckpt, reason in ((tmp_path, "Is a directory"), ("", "No such file or directory"),
                         (afile / "m.ckpt", "Not a directory"), (afile / "sub" / "m.ckpt", "Not a directory")):
        cfg = write_config(tmp_path / "r.cfg", trained.data, ckpt)
        assert main(["train", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot write {ckpt}: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "r.cfg"]


def test_train_makes_the_checkpoint_directory(trained, tmp_path):
    ckpt = tmp_path / "new" / "m.ckpt"
    assert main(["train", str(write_config(tmp_path / "r.cfg", trained.data, ckpt, epochs=1))]) == 0
    assert ckpt.exists()


@pytest.mark.parametrize("command,flag", [("eval", "--out"), ("predict", "--emit")])
def test_a_failed_write_leaves_the_previous_output(trained, tmp_path, capsys, monkeypatch, command, flag):
    out = tmp_path / "out"
    argv = [command, str(trained.ckpt), str(trained.data), flag, str(out)]
    assert main(argv) == 0
    before = out.read_bytes()

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    assert main(argv + ["--scale", "original"]) == 1  # would write other numbers
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestPeCommand:
    def test_data_only_lists_variates(self, trained, capsys):
        rc = main(["pe", str(trained.data), "--order", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pe_original_v0=" in out and "pe_original_v1=" in out
        assert "pe_original_mean=" in out
        assert "pe_enhanced" not in out

    def test_with_checkpoint_adds_enhanced(self, trained, capsys):
        rc = main(["pe", str(trained.data), "--checkpoint", str(trained.ckpt), "--order", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pe_enhanced_v0=" in out
        assert "pe_enhanced_mean=" in out
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert 0.0 <= float(values["pe_enhanced_mean"]) <= 1.0

    def test_too_short_series_exits_2(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        write_dataset(data, n=10)
        rc = main(["pe", str(data), "--order", "12"])
        assert rc == 2
        assert "too short" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict", "pe"])
def test_checkpoint_without_training_extras_exits_1(trained, tmp_path, capsys, command):
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(bare, load_checkpoint(trained.ckpt)[0])
    argv = {
        "eval": ["eval", str(bare), str(trained.data), "--out", str(tmp_path / "r.txt")],
        "predict": ["predict", str(bare), str(trained.data), "--emit", str(tmp_path / "p.csv")],
        "pe": ["pe", str(trained.data), "--checkpoint", str(bare), "--order", "3"],
    }[command]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert all(key in captured.err for key in ("norm_mean", "norm_std", "timestamp_column", "split"))



def _break_levels(manifest):
    manifest["model_config"]["levels"] = 4  # 2^4 does not divide look_back 8


def _stringify_entry(manifest):
    manifest["tensors"][1] = "w_in"


def _drop_byte_length(manifest):
    del manifest["tensors"][0]["byte_length"]


def _rename_extras(manifest):
    manifest["extras_renamed"] = manifest.pop("extras")


def _set_extra(key, value):
    def mutate(manifest):
        manifest["extras"][key] = value
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda manifest: [1, 2], "not a json object"),
        (_break_levels, "invalid model_config"),
        (_stringify_entry, "tensor 1 is 'w_in'"),
        (_drop_byte_length, "tensor 0 is"),
        (_rename_extras, "lacks the training extras"),
        (_set_extra("norm_mean", [0.0]), "extras norm_mean must be 2 finite numbers"),
        (_set_extra("norm_mean", ["x", 1]), "extras norm_mean must be 2 finite numbers"),
        (_set_extra("norm_std", [1.0, -1.0]), "extras norm_std must be positive"),
        (_set_extra("norm_std", [0.0, 1.0]), "extras norm_std must be positive"),
        (_set_extra("norm_std", [float("nan"), 1.0]), "extras norm_std must be 2 finite numbers"),
        (_set_extra("metrics_scale", "bogus"), "extras metrics_scale must be one of"),
        (lambda manifest: {**manifest, "extras": json.dumps(manifest["extras"])}, "extras must be a json object"),
        (_set_extra("timestamp_column", 0), "extras timestamp_column must be a string"),
        (_set_extra("split", 6), "extras split must be a string"),
        (_set_extra("split", "ratio:6,2"), "extras split must name ratio/months"),
    ],
    ids=["non-object manifest", "invalid config", "entry is a string", "entry lacks byte_length", "no extras key",
         "norm_mean too short", "norm_mean not numbers", "negative norm_std", "zero norm_std", "nan norm_std",
         "unknown metrics_scale", "extras a string", "int timestamp_column", "int split", "unparseable split"],
)
def test_malformed_manifest_exits_1(trained, tmp_path, capsys, mutate, message):
    raw = trained.ckpt.read_bytes()
    sep = raw.index(b"\x00")
    manifest = json.loads(raw[:sep])
    manifest = mutate(manifest) or manifest
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(json.dumps(manifest).encode("utf-8") + raw[sep:])
    rc = main(["eval", str(broken), str(trained.data), "--out", str(tmp_path / "r.txt")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(broken) in captured.err and message in captured.err


@pytest.mark.parametrize("command", ["eval", "predict", "pe"])
def test_csv_with_another_variate_count_exits_2(trained, tmp_path, capsys, command):
    wide = tmp_path / "wide.csv"
    write_dataset(wide, d=3)
    argv = {
        "eval": ["eval", str(trained.ckpt), str(wide), "--out", str(tmp_path / "r.txt")],
        "predict": ["predict", str(trained.ckpt), str(wide), "--emit", str(tmp_path / "p.csv")],
        "pe": ["pe", str(wide), "--checkpoint", str(trained.ckpt), "--order", "3"],
    }[command]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "2 variates" in captured.err and "has 3" in captured.err


@pytest.mark.parametrize("command", ["pe", "pe --checkpoint", "eval", "predict", "train"])
def test_a_byte_that_is_not_utf8_exits_2_naming_the_file(trained, tmp_path, capsys, command):
    text = trained.data.read_bytes()
    bad_csv = tmp_path / "bad.csv"
    at = text.index(b"\n", text.index(b"\n", len(text) // 2) + 1) + 25  # inside a cell of a middle row
    bad_csv.write_bytes(text[:at] + b"\xe9" + text[at + 1:])
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(write_config(tmp_path / "r.cfg", trained.data, tmp_path / "m.ckpt").read_bytes()
                        + b"split=ratio:6,2,2\xe9\n")
    argv = {
        "pe": ["pe", str(bad_csv)],
        "pe --checkpoint": ["pe", str(bad_csv), "--checkpoint", str(trained.ckpt), "--order", "3"],
        "eval": ["eval", str(trained.ckpt), str(bad_csv), "--out", str(tmp_path / "r.txt")],
        "predict": ["predict", str(trained.ckpt), str(bad_csv), "--emit", str(tmp_path / "p.csv")],
        "train": ["train", str(bad_cfg)],
    }[command]
    bad = bad_cfg if command == "train" else bad_csv
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {bad} is not utf-8 text: it holds byte 0xe9\n")


class TestAblateCommand:
    def test_smoke_and_verdict_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data)
        cfg = write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt", epochs=1)
        rc = main(["ablate", str(cfg), "--variant", "no_decoder"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("base:")
        assert "no_decoder:" in out
        assert "val_mse_base=" in out and "val_mse_variant=" in out
        verdict = [l for l in out.splitlines() if l.startswith("base_beats_variant=")]
        assert verdict and verdict[0].split("=")[1] in ("true", "false")

    def test_an_invalid_variant_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a model was fitted before the variant was checked")

        monkeypatch.setattr(cli, "fit", never)
        data = tmp_path / "d.csv"
        write_dataset(data)
        cfg = write_config(tmp_path / "r.cfg", data, tmp_path / "m.ckpt", look_back=16, horizon=24)
        assert main(["ablate", str(cfg), "--variant", "no_decoder"]) == 2
        captured = capsys.readouterr()
        assert "base:" not in captured.out
        assert captured.err == "error: without a decoder the horizon cannot exceed look_back (24 > 16)\n"

    def test_unknown_variant_rejected_by_parser(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "r.cfg", tmp_path / "d.csv", tmp_path / "m.ckpt")
        with pytest.raises(SystemExit):
            main(["ablate", str(cfg), "--variant", "no_everything"])
