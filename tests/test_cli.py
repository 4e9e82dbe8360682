import csv
import json
from dataclasses import fields
from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from scinet.cli import (
    RunConfig,
    main,
    parse_kv_file,
    parse_overrides,
    resolve_config,
)
from scinet.data import load_csv, synthetic_frame, write_csv
from scinet.errors import ConfigError
from scinet.model import ModelConfig
from scinet.train import TrainConfig, load_checkpoint, save_checkpoint


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


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda manifest: [1, 2], "not a json object"),
        (_break_levels, "invalid model_config"),
        (_stringify_entry, "tensor 1 is 'w_in'"),
        (_drop_byte_length, "tensor 0 is"),
    ],
    ids=["non-object manifest", "invalid config", "entry is a string", "entry lacks byte_length"],
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

    def test_unknown_variant_rejected_by_parser(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "r.cfg", tmp_path / "d.csv", tmp_path / "m.ckpt")
        with pytest.raises(SystemExit):
            main(["ablate", str(cfg), "--variant", "no_everything"])
