"""Command-line front end: generate, train, eval, ablate, gradcheck."""

import csv
import hashlib
import os

import numpy as np
import pytest

import dife.cli as C
import dife.gradcheck as G
import dife.net as N
import dife.tensor as T
from dife.cli import main
from dife.config import ConfigError, load_config, parse_value


def tree_hash(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(open(path, "rb").read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert main(["generate", "--out", str(root), "--count", "10",
                 "--seed", "3", "--size", "32x32", "--force"]) == 0
    return root


@pytest.fixture()
def config_file(tmp_path, dataset):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# desk-scale smoke configuration\n"
        f"data.root = {dataset}\n"
        f"out.dir = {tmp_path / 'out'}\n"
        "train.seed = 5\n"
        "train.epochs = 2\n"
        "train.warmup_epochs = 1\n"
        "train.batch_size = 4\n"
    )
    return path


class TestConfigParsing:
    def test_value_grammar(self):
        assert parse_value("[1,2,3]") == [1, 2, 3]
        assert parse_value("[]") == []
        assert parse_value("true") is True
        assert parse_value("0.5") == 0.5
        assert parse_value("runs/x") == "runs/x"

    def test_unknown_key_rejected(self, config_file):
        with pytest.raises(ConfigError, match="net.lambda3"):
            load_config(config_file, ["net.lambda3=1"])

    def test_missing_mandatory_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.epochs = 1\n")
        with pytest.raises(ConfigError, match="train.seed|data.root"):
            load_config(path)

    def test_overrides_win(self, config_file):
        cfg = load_config(config_file, ["train.epochs=9", "net.lambda1=0.25"])
        assert cfg["train.epochs"] == 9
        assert cfg.net_config().lambda1 == 0.25


class TestGenerate:
    def test_deterministic_trees(self, tmp_path):
        args = ["generate", "--count", "6", "--seed", "11", "--size", "32x32"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert tree_hash(a) == tree_hash(b)

    def test_zero_count_usage_error(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "z"), "--count", "0",
                     "--seed", "1"]) == C.EXIT_CONFIG

    def test_refuses_non_empty_without_force(self, tmp_path):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert main(["generate", "--out", str(out), "--count", "2",
                     "--seed", "1"]) == C.EXIT_CONFIG

    def test_manifest_row_count(self, dataset):
        with open(dataset / "manifest.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 10
        splits = {(r["domain"], r["split"]) for r in rows}
        assert splits == {(d, s) for d in ("source", "target")
                          for s in ("train", "val", "test")}


class TestTrainEvalCommands:
    def test_train_writes_artifacts_and_config_echo(self, config_file, tmp_path, capsys):
        assert main(["train", "--config", str(config_file),
                     "--set", "net.lambda1=0.2"]) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.dife").exists()
        assert (out / "train_log.csv").exists()
        echo = (out / "config_resolved.txt").read_text()
        assert "net.lambda1 = 0.2" in echo
        assert "train.seed = 5" in echo
        stdout = capsys.readouterr().out
        assert "snr=[2, 3]" in stdout and "isw=[1, 2, 3]" in stdout

    def test_rerun_checkpoint_is_byte_identical(self, config_file, tmp_path):
        ck = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--config", str(config_file),
                         "--out", str(out)]) == 0
            ck.append((out / "checkpoint.dife").read_bytes())
        assert ck[0] == ck[1]

    def test_eval_deterministic_and_shape_checked(self, config_file, tmp_path, dataset):
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_file)]) == 0
        ck = str(out / "checkpoint.dife")
        csvs = []
        for name in ("e1", "e2"):
            ed = tmp_path / name
            assert main(["eval", "--config", str(config_file), "--checkpoint", ck,
                         "--data", str(dataset), "--domain", "target",
                         "--out", str(ed)]) == 0
            csvs.append(((ed / "metrics.csv").read_bytes(),
                         (ed / "summary.csv").read_bytes()))
        assert csvs[0] == csvs[1]
        # wrong class count makes the checkpoint shapes incompatible
        assert main(["eval", "--config", str(config_file), "--checkpoint", ck,
                     "--data", str(dataset), "--domain", "source",
                     "--set", "net.num_classes=6",
                     "--out", str(tmp_path / "e3")]) == C.EXIT_CONFIG

    def test_eval_truncated_checkpoint_is_config_error(self, config_file, tmp_path,
                                                       dataset, capsys):
        cfg = load_config(config_file)
        ck = tmp_path / "cut.dife"
        N.save_checkpoint(ck, N.SegNet(cfg.net_config(), seed=cfg["train.seed"]))
        ck.write_bytes(ck.read_bytes()[:9])
        assert main(["eval", "--config", str(config_file), "--checkpoint", str(ck),
                     "--data", str(dataset), "--domain", "target",
                     "--out", str(tmp_path / "e")]) == C.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "truncated" in err and str(ck) in err

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == C.EXIT_CONFIG

    def test_bad_override_key_is_config_error(self, config_file):
        assert main(["train", "--config", str(config_file),
                     "--set", "net.bogus=1"]) == C.EXIT_CONFIG

    def test_nonfinite_loss_is_numeric_error(self, config_file):
        # an absurd learning rate reliably blows the loss up
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(config_file),
                         "--set", "train.lr0=1e6"]) == C.EXIT_NUMERIC


class TestAblate:
    def test_cell_enumeration(self, config_file):
        cfg = load_config(config_file)
        assert len(C._ablation_cells("dcloss", cfg)) == 4
        assert len(C._ablation_cells("k", cfg)) == 6
        assert [c[0] for c in C._ablation_cells("k", cfg)] == \
            [f"k={k}" for k in (2, 3, 5, 7, 10, 20)]
        assert len(C._ablation_cells("placement", cfg)) == 5
        assert len(C._ablation_cells("lambda", cfg)) == 6
        with pytest.raises(ConfigError):
            C._ablation_cells("widths", cfg)

    def test_dcloss_sweep_writes_four_rows(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        assert main(["ablate", "--config", str(config_file), "--axis", "dcloss",
                     "--set", "train.epochs=2", "--out", str(out)]) == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["cell"] for r in rows] == \
            ["dc=full", "dc=no_plus", "dc=no_minus", "dc=none"]
        assert all(0.0 <= float(r["target_miou"]) <= 1.0 for r in rows)


class TestGradcheck:
    def test_isw_module_passes(self, capsys):
        assert main(["gradcheck", "--module", "isw"]) == 0
        stdout = capsys.readouterr().out
        assert "pass" in stdout and "max_rel_err" in stdout

    def test_sabotaged_backward_fails_naming_op(self, monkeypatch, capsys):
        real = T.sigmoid

        def broken_sigmoid(a):
            y = 1.0 / (1.0 + np.exp(-a.data))
            out = T.Tensor(y)
            # sign-flipped backward rule
            return T._maybe_record(out, (a,), lambda g: (-g * y * (1.0 - y),))

        monkeypatch.setattr(T, "sigmoid", broken_sigmoid)
        try:
            code = main(["gradcheck", "--module", "tensor"])
        finally:
            monkeypatch.setattr(T, "sigmoid", real)
        assert code == 1
        stdout = capsys.readouterr().out
        assert "FAIL" in stdout and "sigmoid" in stdout


class TestParser:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == C.EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "Exit codes" in capsys.readouterr().out
