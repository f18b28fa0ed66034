"""CLI subcommands, exit codes, and environment-variable handling."""

import os
import subprocess
import sys

import pytest

from siamcaps import autodiff as ad
from siamcaps import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

MICRO_FLAGS = [
    "--dataset", "synthetic", "--epochs", "1", "--pairs_per_epoch", "4",
    "--batch_size", "4", "--eval_pairs", "4", "--holdout", "2",
    "--synth_subjects", "6", "--synth_per_subject", "3",
    "--input_size", "37", "--conv_channels", "4", "--primary_types", "3",
    "--primary_d", "4", "--face_caps", "4", "--face_d", "4",
    "--embed_dim", "5", "--routing_iters", "2", "--alpha", "0.01",
]


def _train_args(out_dir, *extra):
    return ["train", *MICRO_FLAGS, "--output_dir", str(out_dir), *extra]


def test_train_exit_zero_and_artifacts(tmp_path, capsys):
    rc = cli.main(_train_args(tmp_path / "run"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "final train_loss=" in out
    assert os.path.isfile(tmp_path / "run" / "metrics.csv")


def test_train_kfold_reports_the_summary_mean(tmp_path, capsys):
    run = tmp_path / "run"
    rc = cli.main(_train_args(run, "--kfold_k", "3"))
    assert rc == 0
    out = capsys.readouterr().out
    mean = (run / "summary.csv").read_text().splitlines()[4]
    assert mean.startswith("mean,")
    loss, acc = (float(v) for v in mean.split(",")[1:])
    assert f"k-fold summary: {run / 'summary.csv'}" in out
    assert "folds run: 3" in out
    assert f"mean test_loss={loss:.6g} test_accuracy={acc:.4f}" in out
    assert "fold2" not in out


def _epoch_lines(err):
    """The per-epoch progress lines of stderr, as dicts of their fields."""
    out = []
    for line in err.splitlines():
        words = line.split()
        fields = dict(w.split("=") for w in words if "=" in w)
        fields["epoch"] = words[words.index("epoch") + 1]
        if words[0] == "fold":
            fields["fold"] = words[1]
        out.append(fields)
    return out


def test_train_prints_one_line_per_epoch_to_stderr(tmp_path, capsys):
    run = tmp_path / "run"
    rc = cli.main(_train_args(run, "--epochs", "3"))
    assert rc == 0
    captured = capsys.readouterr()
    lines = _epoch_lines(captured.err)
    assert "val_loss=" not in captured.out
    metrics = (run / "metrics.csv").read_text().splitlines()[1:]
    assert len(lines) == len(metrics) == 3
    for fields, row in zip(lines, metrics):
        epoch, train, test, _, wall_ms = row.split(",")
        assert fields["epoch"] == epoch and fields["wall_ms"] == wall_ms
        assert fields["train_loss"] == f"{float(train):.6g}"
        assert fields["test_loss"] == f"{float(test):.6g}"
        assert float(fields["val_loss"]) >= 0.0
        # 4 training pairs in the epoch's wall time, which wall_ms rounds
        assert abs(4000.0 / float(fields["pairs/s"]) - int(wall_ms)) < 0.51


def test_train_kfold_prints_each_folds_epochs(tmp_path, capsys):
    rc = cli.main(_train_args(tmp_path / "run", "--epochs", "2",
                              "--kfold_k", "3"))
    assert rc == 0
    lines = _epoch_lines(capsys.readouterr().err)
    assert [(f["fold"], f["epoch"]) for f in lines] == [
        (str(i), str(e)) for i in range(3) for e in (1, 2)]


def test_train_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = synthetic\nepochs = 9\n" + "\n".join(
        f"{MICRO_FLAGS[i].lstrip('-')} = {MICRO_FLAGS[i + 1]}"
        for i in range(0, len(MICRO_FLAGS), 2) if MICRO_FLAGS[i] != "--epochs"
    ) + "\n")
    rc = cli.main(["train", "--config", str(cfg), "--epochs", "2",
                   "--output_dir", str(tmp_path / "run")])
    assert rc == 0
    echo = open(tmp_path / "run" / "config.txt").read()
    assert "epochs = 2" in echo  # flag beat the file


def test_train_bad_config_usage_error(tmp_path, capsys):
    rc = cli.main(_train_args(tmp_path / "run", "--loss", "triplet"))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_train_missing_dataset_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SCN_DATA_DIR", raising=False)
    rc = cli.main(_train_args(tmp_path / "run", "--dataset", "att"))
    assert rc == 2
    assert "SCN_DATA_DIR" in capsys.readouterr().err


def test_scn_data_dir_env(tmp_path, monkeypatch, capsys):
    from siamcaps.data import export_orl_layout, synth_dataset
    export_orl_layout(synth_dataset(4, 3, seed=5, size=37),
                      str(tmp_path / "data" / "att"))
    monkeypatch.setenv("SCN_DATA_DIR", str(tmp_path / "data"))
    rc = cli.main(_train_args(tmp_path / "run", "--dataset", "att"))
    assert rc == 0


@pytest.mark.parametrize("key", ["pos_ratio", "detach_routing", "concrete_t",
                                 "standard_concrete", "threshold_points",
                                 "dropout_rate"])
def test_removed_config_flag_usage_error(key, tmp_path, capsys):
    rc = cli.main(_train_args(tmp_path / "run", f"--{key}", "true"))
    assert rc == 2
    assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("key,value", [("activation", "relu"),
                                       ("normalize_at", "flat")])
def test_train_bad_choice_usage_error_writes_nothing(key, value, tmp_path,
                                                     capsys):
    rc = cli.main(_train_args(tmp_path / "run", f"--{key}", value))
    assert rc == 2
    assert f"{key} must be one of" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("command", ["train", "gridsearch"])
def test_too_small_input_size_usage_error_writes_nothing(command, tmp_path,
                                                        capsys):
    rc = cli.main([command, *MICRO_FLAGS, "--output_dir",
                   str(tmp_path / "run"), "--input_size", "20"])
    assert rc == 2
    assert "too small" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_unknown_subcommand_exit_2():
    assert cli.main(["frobnicate"]) == 2


def test_no_subcommand_exit_2():
    assert cli.main([]) == 2


def test_eval_roundtrip(tmp_path, capsys):
    assert cli.main(_train_args(tmp_path / "run")) == 0
    rc = cli.main(["eval", "--checkpoint",
                   str(tmp_path / "run" / "final.ckpt"), *MICRO_FLAGS,
                   "--output_dir", str(tmp_path / "eval")])
    assert rc == 0
    assert "accuracy=" in capsys.readouterr().out
    assert os.path.isfile(tmp_path / "eval" / "density.csv")


def test_eval_corrupt_checkpoint_exit_1(tmp_path, capsys):
    assert cli.main(_train_args(tmp_path / "run")) == 0
    path = tmp_path / "run" / "final.ckpt"
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF
    path.write_bytes(bytes(raw))
    rc = cli.main(["eval", "--checkpoint", str(path), *MICRO_FLAGS,
                   "--output_dir", str(tmp_path / "eval")])
    assert rc == 1
    assert "checkpoint corrupt" in capsys.readouterr().err


def test_eval_missing_checkpoint_exit_2(tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   *MICRO_FLAGS, "--output_dir", str(tmp_path / "eval")])
    assert rc == 2


def test_gradcheck_exit_zero(capsys):
    rc = cli.main(["gradcheck"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("conv2d", "batchnorm", "dense", "squash", "dynamic_routing",
                 "capsule_layer_tanh", "contrastive_loss",
                 "double_margin_loss", "concrete_dropout"):
        assert out.count(name) == 1
    assert out.strip().endswith("PASS")


def test_gradcheck_corrupted_exit_one(monkeypatch, capsys):
    real_kernel = ad.tanh_kernel

    def bad_kernel(x):
        out, vjp = real_kernel(x)
        return out, lambda g: vjp(g) * 1.01

    monkeypatch.setattr(ad, "tanh_kernel", bad_kernel)
    rc = cli.main(["gradcheck"])
    assert rc == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_plot_subcommand(tmp_path, capsys):
    assert cli.main(_train_args(tmp_path / "run", "--epochs", "2")) == 0
    out_svg = tmp_path / "loss.svg"
    rc = cli.main(["plot", "--metrics",
                   str(tmp_path / "run" / "metrics.csv"),
                   "--out", str(out_svg)])
    assert rc == 0
    assert out_svg.read_text().startswith("<svg")


def test_plot_empty_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("epoch,train_loss,test_loss,test_accuracy,wall_ms\n")
    rc = cli.main(["plot", "--metrics", str(bad),
                   "--out", str(tmp_path / "x.svg")])
    assert rc == 2
    assert "empty metrics" in capsys.readouterr().err


def test_gridsearch_subcommand(tmp_path, capsys):
    rc = cli.main(["gridsearch", *MICRO_FLAGS,
                   "--output_dir", str(tmp_path / "gs")])
    assert rc == 0
    lines = open(tmp_path / "gs" / "gridsearch.csv").read().splitlines()
    assert len(lines) == 12


def test_console_entry_point_subprocess(tmp_path):
    """`python -m siamcaps.cli` must resolve and run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "siamcaps.cli", "gradcheck"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("PASS")


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0
    assert cli.main(["train", "--help"]) == 0
