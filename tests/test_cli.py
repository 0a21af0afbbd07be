"""Command-line front end: generate, train, eval, ablate, gradcheck."""

import csv
import ctypes
import dataclasses
import glob
import hashlib
import math
import multiprocessing
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dife.cli as C
import dife.data as D
import dife.gradcheck as G
import dife.isw as W
import dife.net as N
import dife.tensor as T
import dife.train as TR
from dife.cli import main
from dife.config import RUN_KEYS, SECTIONS, ConfigError, format_config, load_config, parse_value


def empty_target_test(dataset, tmp_path):
    """A copy of the dataset whose target/test split holds no files."""
    root = tmp_path / "data_empty_test"
    shutil.copytree(dataset, root)
    for item in (root / "target" / "test").iterdir():
        item.unlink()
    return root


def openblas_threads(_):
    """The thread count of numpy's bundled OpenBLAS in this process, or None
    when this numpy bundles none that reports it."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
    return get() if get else None


def train_one_step(_):
    """core_count() in a run_jobs worker, and the names of the threads alive
    there after one training step."""
    samples = D.generate_domain(5, "source", 0, (32, 32))
    TR.train(N.SegNet(N.NetConfig(), seed=0), TR.TrainConfig(epochs=1), samples[:4], samples[4:])
    return T.core_count(), sorted(t.name for t in threading.enumerate())


def run_dife(args, **env):
    """`python -m dife.cli` with args in a fresh process, with env added."""
    env = dict(os.environ, PYTHONPATH=str(Path(C.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "dife.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=600)


def tree_hash(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(Path(path).read_bytes())
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


# The config surface: key -> default, None for the two mandatory keys.
REFERENCE_KEYS = {
    "net.stage_channels": [8, 16, 32],
    "net.num_classes": 4,
    "net.snr_stages": [2, 3],
    "net.isw_stages": [1, 2, 3],
    "net.lambda1": 0.6,
    "net.lambda2": 1.0,
    "net.attention_reduction": 4,
    "net.k": 2,
    "net.dc_mode": "full",
    "train.lr0": 1e-2,
    "train.momentum": 0.9,
    "train.poly_power": 0.9,
    "train.epochs": 20,
    "train.batch_size": 4,
    "train.seed": None,
    "train.warmup_epochs": 5,
    "train.early_stop_patience": 10,
    "train.flip_augment": True,
    "twin.brightness": 0.25,
    "twin.contrast": 0.5,
    "twin.hue": 120.0,
    "twin.gamma_min": 0.5,
    "twin.gamma_max": 2.2,
    "twin.blur_sigma": 1.2,
    "data.root": None,
    "out.dir": "runs/out",
}
MANDATORY_ONLY = ["train.seed=1", "data.root=runs/data"]

# key -> field, for every config field that declares its allowed values
RANGED = {f"{section}.{f.name}": f for section, cls in SECTIONS.items()
          for f in dataclasses.fields(cls) if "allowed" in f.metadata}
# settings the cross-field checks need for an accepted bound to construct
COMPANIONS = {"net.stage_channels": {"net.attention_reduction": 1},
              "twin.gamma_max": {"twin.gamma_min": math.ulp(0.0)}}


def boundary_values(f):
    """(accepted, rejected) probes for one ranged field, read from its declared text."""
    allowed, kind = f.metadata["allowed"], type(f.default)
    interval = re.search(r" in ([\[(])(\S+), (\S+)([\])])$", allowed)
    if interval is None:   # back-quoted choices; the last probe holds all of them in one string
        choices = re.findall(r"`([^`]+)`", allowed)
        return [parse_value(c) for c in choices], ["nonesuch", 1, allowed.strip("`")]
    number = kind is float

    def step(value, toward):   # the nearest value past `value` in the direction of `toward`
        return math.nextafter(value, toward) if number else value + (1 if toward > value else -1)

    lo_bracket, lo, hi, hi_bracket = interval.groups()
    accepted, rejected = [], []
    for bound, bracket, inward in ((lo, lo_bracket, math.inf), (hi, hi_bracket, -math.inf)):
        if bound.lstrip("-") == "inf":
            continue
        bound = float(bound) if number else int(bound)
        if bracket in "[]":
            accepted.append(bound)
            rejected.append(step(bound, -inward))
        else:
            accepted.append(step(bound, inward))
            rejected.append(bound)
    rejected += [math.nan, math.inf, -math.inf, True] if number else [True, 2.5]
    if kind in (tuple, frozenset):   # the same probe in every slot of the list
        width = len(f.default)
        return [[v] * width for v in accepted], [[v] * width for v in rejected]
    return accepted, rejected


def written(value):
    """`value` as a config file or --set writes it."""
    if isinstance(value, list):
        return "[" + ",".join(map(written, value)) + "]"
    return str(value).lower() if isinstance(value, bool) else str(value)


def probes(which):
    return [pytest.param(key, value, id=f"{key}={written(value)}")
            for key, f in RANGED.items() for value in boundary_values(f)[which]]


def built(cfg, section):
    return {"net": cfg.net_config(), "train": cfg.train_config(),
            "twin": cfg.train_config().twin}[section]


class TestConfigParsing:
    def test_mandatory_keys_resolve_the_reference_surface(self):
        cfg = load_config(None, MANDATORY_ONLY)
        expect = REFERENCE_KEYS | {"train.seed": 1, "data.root": "runs/data"}
        # repr tells 120.0 from 120 and [2, 3] from (2, 3)
        assert {k: repr(v) for k, v in cfg.values.items()} == \
            {k: repr(v) for k, v in expect.items()}
        assert cfg.net_config() == N.NetConfig()
        assert cfg.train_config() == TR.TrainConfig(seed=1)

    def test_readme_table_matches_resolved_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z_]+\.[a-z_0-9]+)` +\| ([^|]+?) +\| ([^|]+?) +\|$", readme, re.M)
        documented = {key: cell.strip("`") for key, cell, _ in rows}
        echo = format_config(load_config(None, MANDATORY_ONLY))
        resolved = dict(line.split(" = ", 1) for line in echo.splitlines())
        resolved.update({"train.seed": "mandatory", "data.root": "mandatory"})
        assert len(rows) == len(documented) == 26
        assert documented == resolved
        # the allowed-values cell is the declared range, then optional prose after a colon
        declared = {key: f.metadata["allowed"] for key, f in RANGED.items()} | dict.fromkeys(RUN_KEYS, "path")
        for key, _, cell in rows:
            assert cell == declared[key] or cell.startswith(declared[key] + ": "), key

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

    def test_number_beyond_float_range_rejected(self, config_file):
        with pytest.raises(ConfigError, match=r"^train\.lr0: expected number in \(0, inf\), got 10{400}$"):
            load_config(config_file, ["train.lr0=1" + "0" * 400])

    def test_overrides_win(self, config_file):
        cfg = load_config(config_file, ["train.epochs=9", "net.lambda1=0.25"])
        assert cfg["train.epochs"] == 9
        assert cfg.net_config().lambda1 == 0.25


class TestRangeSweep:
    """Every ranged field at its bounds, through the dataclass, load_config and the CLI."""

    def test_every_field_declares_its_range(self):
        undeclared = [f"{section}.{f.name}" for section, cls in SECTIONS.items()
                      for f in dataclasses.fields(cls) if "allowed" not in f.metadata]
        assert undeclared == ["train.twin"]

    @pytest.mark.parametrize("key,value", probes(0))
    def test_bound_accepted(self, key, value):
        section, name = key.split(".")
        settings = {key: value} | COMPANIONS.get(key, {})
        expect = type(RANGED[key].default)(value)
        obj = SECTIONS[section](**{k.split(".")[1]: v for k, v in settings.items()})
        cfg = load_config(None, MANDATORY_ONLY + [f"{k}={written(v)}" for k, v in settings.items()])
        for got in (getattr(obj, name), getattr(built(cfg, section), name)):
            assert type(got) is type(expect) and got == expect

    @pytest.mark.parametrize("key,value", probes(1))
    def test_out_of_range_rejected_everywhere(self, key, value, tmp_path, capsys):
        section, name = key.split(".")
        allowed = re.escape(RANGED[key].metadata["allowed"])
        with pytest.raises(T.ContractError, match=rf"^{name}: expected {allowed}, got "):
            SECTIONS[section](**{name: value})
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected {allowed}, got "):
            load_config(None, MANDATORY_ONLY + [f"{key}={written(value)}"])
        config, out = tmp_path / "run.cfg", tmp_path / "out"
        config.write_text(f"train.seed = 1\ndata.root = {tmp_path / 'data'}\n")
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--set", f"{key}={written(value)}"]) == C.EXIT_CONFIG
        assert f"error: {key}: expected" in capsys.readouterr().err
        assert not out.exists()   # no config echo, no checkpoint


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

    @pytest.mark.parametrize("flag,value,named", [
        ("--seed", "-1", "--seed"),
        ("--size", "34x34", "34x34"),   # every train would reject it: not a multiple of 4
        # one sample gave a val split of -1 samples, two an empty train split
        ("--count", "1", "--count must be >= 3, got 1"),
        ("--count", "2", "--count must be >= 3, got 2"),
    ])
    def test_unusable_dataset_refused(self, tmp_path, capsys, flag, value, named):
        args = {"--count": "3", "--seed": "1", "--size": "32x32"} | {flag: value}
        out = tmp_path / "g"
        assert main(["generate", "--out", str(out)] + [a for kv in args.items() for a in kv]) \
            == C.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_non_empty_without_force(self, tmp_path):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert main(["generate", "--out", str(out), "--count", "3",
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

    def test_train_refuses_masks_beyond_num_classes(self, config_file, tmp_path, dataset,
                                                    capsys):
        assert main(["train", "--config", str(config_file),
                     "--set", "net.num_classes=2"]) == C.EXIT_CONFIG
        assert (f"net.num_classes: expected at least 4, the classes in the masks of "
                f"{dataset / 'source' / 'train'}, got 2") in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.dife").exists()

    def test_eval_refuses_masks_beyond_num_classes(self, config_file, tmp_path, dataset,
                                                   capsys):
        # a 3-class checkpoint loads, so the refusal comes from the masks
        cfg = load_config(config_file, ["net.num_classes=3"])
        ck = tmp_path / "three.dife"
        N.save_checkpoint(ck, N.SegNet(cfg.net_config(), seed=cfg["train.seed"]))
        assert main(["eval", "--config", str(config_file), "--checkpoint", str(ck),
                     "--data", str(dataset), "--domain", "target", "--set", "net.num_classes=3",
                     "--out", str(tmp_path / "e")]) == C.EXIT_CONFIG
        assert (f"net.num_classes: expected at least 4, the classes in the masks of "
                f"{dataset / 'target' / 'test'}, got 3") in capsys.readouterr().err
        assert not (tmp_path / "e" / "metrics.csv").exists()

    def test_eval_empty_split_is_config_error(self, config_file, tmp_path, dataset, capsys):
        root = empty_target_test(dataset, tmp_path)
        cfg = load_config(config_file)
        ck = tmp_path / "net.dife"
        N.save_checkpoint(ck, N.SegNet(cfg.net_config(), seed=cfg["train.seed"]))
        assert main(["eval", "--config", str(config_file), "--checkpoint", str(ck),
                     "--data", str(root), "--domain", "target",
                     "--out", str(tmp_path / "e")]) == C.EXIT_CONFIG
        assert f"no samples under {root / 'target' / 'test'}" in capsys.readouterr().err
        assert not (tmp_path / "e" / "metrics.csv").exists()

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_eval_nonfinite_checkpoint_is_config_error(self, config_file, tmp_path, dataset,
                                                       capsys, value):
        cfg = load_config(config_file)
        net = N.SegNet(cfg.net_config(), seed=cfg["train.seed"])
        w = next(p for p in net.parameters() if p.name == "enc1.conv_a.w").tensor
        w.data.flat[0] = value
        ck = tmp_path / "bad.dife"
        N.save_checkpoint(ck, net)
        assert main(["eval", "--config", str(config_file), "--checkpoint", str(ck),
                     "--data", str(dataset), "--domain", "target",
                     "--out", str(tmp_path / "e")]) == C.EXIT_CONFIG
        assert "enc1.conv_a.w holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "e" / "metrics.csv").exists()

    def test_bad_image_size_is_config_error(self, config_file, tmp_path, dataset, capsys):
        # a negative size is a FormatError (exit 2), not a ValueError from reshape
        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        img = root / "source" / "train" / "img_00000.ppm"
        header = b"P6\n32 32\n255\n"
        blob = img.read_bytes()
        assert blob.startswith(header)
        img.write_bytes(b"P6\n-4 -4\n255\n" + blob[len(header):])
        assert main(["train", "--config", str(config_file),
                     "--set", f"data.root={root}"]) == C.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(img) in err and "width -4 < 1 at byte 3" in err

    @pytest.mark.parametrize("case", ["non-utf8 config", "config is a directory",
                                      "checkpoint is a directory", "data.root is a file"])
    def test_unreadable_path_is_config_error(self, config_file, tmp_path, dataset, case):
        args = ["train", "--config", config_file]
        if case == "non-utf8 config":
            config_file.write_bytes(b"# caf\xe9\n" + config_file.read_bytes())
        elif case == "config is a directory":
            args[2] = tmp_path
        elif case == "checkpoint is a directory":
            args = ["eval", "--config", config_file, "--checkpoint", tmp_path,
                    "--data", dataset, "--domain", "target"]
        else:
            args += ["--set", f"data.root={config_file}"]
        proc = run_dife(args)
        assert proc.returncode == C.EXIT_CONFIG, proc.stderr[-2000:]
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_outputs_equal_at_one_and_two_blas_threads(self, config_file, tmp_path):
        # main pins one BLAS thread, so the command runs here past that pin,
        # with the count set at run time as a library caller would set it
        before = openblas_threads(None)
        if before is None:
            pytest.skip("numpy bundles no OpenBLAS that reports its thread count")
        runs = []
        try:
            for threads in (1, 2):
                out = tmp_path / f"blas{threads}"
                assert C.set_blas_threads(threads)
                args = C.build_parser().parse_args(["train", "--config", str(config_file),
                                                    "--out", str(out)])
                assert args.fn(args) == C.EXIT_OK
                assert openblas_threads(None) == threads
                runs.append([(out / name).read_bytes()
                             for name in ("checkpoint.dife", "train_log.csv")])
        finally:
            C.set_blas_threads(before)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("fault,code", [("raises", C.EXIT_CONFIG), ("nan", C.EXIT_NUMERIC)])
    def test_twin_branch_failure_keeps_its_exit_code(self, config_file, monkeypatch, capsys,
                                                     fault, code):
        # the twin view is built on a pool thread; its error reaches main typed
        def broken(img, params):
            if fault == "raises":
                raise T.ContractError("photometric twin: broken transform")
            return np.full_like(img, np.nan)

        monkeypatch.setattr(D, "apply_photometric", broken)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(config_file)]) == code
        err = capsys.readouterr().err
        assert ("broken transform" if fault == "raises" else "ISW stage 1") in err

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == C.EXIT_CONFIG

    def test_bad_override_key_is_config_error(self, config_file):
        assert main(["train", "--config", str(config_file),
                     "--set", "net.bogus=1"]) == C.EXIT_CONFIG

    @pytest.mark.parametrize("override,named", [
        ("train.batch_size=0", "batch_size"), ("train.epochs=0", "epochs"),
        ("train.warmup_epochs=0", "warmup_epochs"),
        ("net.attention_reduction=0", "attention_reduction"), ("net.k=1", "net.k"),
        ("net.stage_channels=[8,0,8]", "stage_channels"),
        ("net.stage_channels=[8,16]", "stage_channels"),
        ("twin.gamma_min=3.0", "gamma_min"), ("twin.gamma_min=0", "gamma_min"),
        ("twin.blur_sigma=-1", "blur_sigma"), ("twin.brightness=-0.1", "brightness"),
        ("train.early_stop_patience=-1", "early_stop_patience"),
        ("train.seed=-1", "seed"),
        ("net.num_classes=-1", "net.num_classes"), ("net.num_classes=1", "net.num_classes"),
        ("train.poly_power=nan", "poly_power"), ("net.lambda1=nan", "lambda1"),
        ("twin.hue=nan", "hue"),
        ("net.stage_channels=[8,,16]", "stage_channels"), ("net.snr_stages=[a]", "snr_stages"),
        ("net.stage_channels=[8.5,16,32]", "stage_channels"),
        ("net.snr_stages=[2.7]", "snr_stages"),
    ])
    def test_out_of_range_training_value_is_config_error(self, config_file, tmp_path,
                                                         capsys, override, named):
        assert main(["train", "--config", str(config_file), "--set", override]) == C.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.dife").exists()
        assert not (tmp_path / "out" / "config_resolved.txt").exists()

    def test_nonfinite_loss_is_numeric_error(self, config_file):
        # an absurd learning rate reliably blows the loss up
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(config_file),
                         "--set", "train.lr0=1e6"]) == C.EXIT_NUMERIC

    def test_nonfinite_warmup_variance_is_numeric_error(self, config_file, monkeypatch,
                                                        capsys):
        real = W.update_warmup

        def poisoned(stats, theta_x, theta_tx):
            real(stats, theta_x, theta_tx)
            stats.v_sum[0, 1] = np.inf
            return stats

        monkeypatch.setattr(W, "update_warmup", poisoned)
        assert main(["train", "--config", str(config_file)]) == C.EXIT_NUMERIC
        assert "ISW stage 1" in capsys.readouterr().err


def mutants(blob, rng, n=25):
    """n seeded mutants of blob of each kind: a truncation, 1-3 bit flips in
    the first 64 bytes, one overwritten byte and trailing junk."""
    for _ in range(n):
        yield blob[:rng.integers(len(blob))]
        flipped = bytearray(blob)
        for pos in rng.integers(min(64, len(blob)), size=rng.integers(1, 4)):
            flipped[pos] ^= 1 << int(rng.integers(8))
        yield bytes(flipped)
        overwritten = bytearray(blob)
        overwritten[rng.integers(len(blob))] = rng.integers(256)
        yield bytes(overwritten)
        yield blob + rng.bytes(int(rng.integers(1, 17)))


class TestMutatedInputs:
    """Every reader behind the CLI (PPM, PGM, config, checkpoint) meets
    seeded corruptions: each run succeeds or exits with a config/data error,
    never with a traceback."""

    READERS = ("ppm", "pgm", "config", "checkpoint")

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mutants")
        data = root / "data"
        assert main(["generate", "--out", str(data), "--count", "3", "--seed", "1",
                     "--size", "32x32"]) == 0
        cfg = root / "run.cfg"   # short lines, so the flips reach the values
        cfg.write_text("train.epochs = 1\ntrain.warmup_epochs = 1\ntrain.batch_size = 1\n"
                       f"train.seed = 0\ndata.root = {data}\n")
        assert main(["train", "--config", str(cfg), "--out", str(root / "trained")]) == 0
        return root, cfg, data

    @pytest.mark.parametrize("reader", READERS)
    def test_each_mutant_exits_ok_or_config_error(self, run, tmp_path, capsys, reader):
        root, cfg, data = run
        split = data / "source" / "train"
        path = {"ppm": split / "img_00000.ppm", "pgm": split / "msk_00000.pgm", "config": cfg,
                "checkpoint": root / "trained" / "checkpoint.dife"}[reader]
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path)]
        if reader == "checkpoint":
            argv = ["eval", "--config", str(cfg), "--checkpoint", str(path), "--data", str(data),
                    "--domain", "target", "--out", str(tmp_path)]
        original = path.read_bytes()
        codes = []
        # a flipped exponent bit leaves a finite weight that overflows in the
        # forward: numpy warns, which this suite would raise, and eval goes on
        with np.errstate(all="ignore"):
            try:
                for blob in mutants(original, np.random.default_rng(self.READERS.index(reader))):
                    path.write_bytes(blob)
                    codes.append(main(argv))
                    assert "Traceback" not in capsys.readouterr().err
            finally:
                path.write_bytes(original)
        assert set(codes) <= {C.EXIT_OK, C.EXIT_CONFIG} and C.EXIT_CONFIG in codes, codes


class TestAblate:
    def test_cell_enumeration(self):
        assert len(C._ablation_cells("dcloss")) == 4
        assert len(C._ablation_cells("k")) == 6
        assert [c[0] for c in C._ablation_cells("k")] == \
            [f"k={k}" for k in (2, 3, 5, 7, 10, 20)]
        assert len(C._ablation_cells("placement")) == 5
        assert len(C._ablation_cells("lambda")) == 6
        with pytest.raises(ConfigError):
            C._ablation_cells("widths")

    def test_empty_target_split_is_config_error(self, config_file, tmp_path, dataset, capsys):
        root = empty_target_test(dataset, tmp_path)
        out = tmp_path / "sweep"
        assert main(["ablate", "--config", str(config_file), "--axis", "dcloss",
                     "--set", f"data.root={root}", "--out", str(out)]) == C.EXIT_CONFIG
        assert f"no samples under {root / 'target' / 'test'}" in capsys.readouterr().err
        assert not (out / "ablation.csv").exists()

    def test_dcloss_sweep_writes_four_rows(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        assert main(["ablate", "--config", str(config_file), "--axis", "dcloss",
                     "--set", "train.epochs=2", "--out", str(out)]) == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["cell"] for r in rows] == \
            ["dc=full", "dc=no_plus", "dc=no_minus", "dc=none"]
        assert all(0.0 <= float(r["target_miou"]) <= 1.0 for r in rows)

    def test_csv_equals_the_in_process_reference(self, config_file, tmp_path, dataset,
                                                 monkeypatch, fresh_executors):
        # an evaluate in this process first, so its pool threads are running
        samples = [s for split in ("train", "val", "test")
                   for s in D.load_dataset(dataset, "source", split)]
        TR.evaluate(N.SegNet(N.NetConfig()), samples, 4)
        assert list(fresh_executors) == ["dife"]
        args = ["ablate", "--config", str(config_file), "--axis", "dcloss",
                "--set", "train.epochs=1"]
        assert main(args + ["--out", str(tmp_path / "workers")]) == 0
        assert multiprocessing.active_children() == []
        with monkeypatch.context() as m:
            m.setattr(C, "run_jobs", lambda fn, jobs: [fn(job) for job in jobs])
            assert main(args + ["--out", str(tmp_path / "reference")]) == 0
        assert ((tmp_path / "workers" / "ablation.csv").read_bytes()
                == (tmp_path / "reference" / "ablation.csv").read_bytes())


class TestRunJobs:
    def test_results_in_job_order(self):
        assert C.run_jobs(abs, [-3, 1, -2, 5, -4]) == [3, 1, 2, 5, 4]

    @pytest.mark.parametrize("before", [None, "3"])
    def test_one_blas_thread_per_worker_and_the_environment_restored(self, monkeypatch,
                                                                     before):
        # the count is set at run time in each worker; the environment is
        # neither read for it nor changed, so the workers inherit it as is
        if openblas_threads(None) is None:
            pytest.skip("numpy bundles no OpenBLAS that reports its thread count")
        if before is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", before)
        env = dict(os.environ)
        assert C.run_jobs(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2) == [before] * 2
        assert C.run_jobs(openblas_threads, [0, 1, 2]) == [1, 1, 1]
        assert dict(os.environ) == env

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
    def test_workers_share_the_cores_out(self):
        # two workers on two cores get one core each, so neither starts the
        # leaf-gradient worker beside its training thread
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            pytest.skip("needs two cores")
        two = set(sorted(mask)[:2])
        os.sched_setaffinity(0, two)
        try:
            results = C.run_jobs(train_one_step, [0, 1])
            assert os.sched_getaffinity(0) == two
        finally:
            os.sched_setaffinity(0, mask)
        assert [count for count, _ in results] == [1, 1]
        assert not any("dife-leaf" in name for _, names in results for name in names), results

    def test_one_job_keeps_every_core(self):
        assert C.run_jobs(train_one_step, [0])[0][0] == T.core_count()

    def test_each_worker_runs_one_blas_thread(self):
        # a forked worker would keep this process's pool, two threads or more on two cores
        if openblas_threads(None) is None:
            pytest.skip("numpy bundles no OpenBLAS that reports its thread count")
        assert C.run_jobs(openblas_threads, [0, 1]) == [1, 1]


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


# Train on 32 images, then evaluate 192 (the benchmark's sizes) three times
# in one process; prints each eval call's minor page faults.
EVAL_FAULTS_SCRIPT = """
import os, resource, sys
from dife.cli import main

root = sys.argv[1]
small, big, out, cfg = (os.path.join(root, name) for name in ("small", "big", "out", "run.cfg"))
with open(cfg, "w") as fh:
    fh.write(f"data.root = {small}\\ntrain.seed = 1\\ntrain.epochs = 1\\ntrain.warmup_epochs = 1\\n")
assert main(["generate", "--out", small, "--count", "40", "--seed", "2"]) == 0
assert main(["generate", "--out", big, "--count", "240", "--seed", "3"]) == 0
assert main(["train", "--config", cfg, "--out", out]) == 0
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["eval", "--config", cfg, "--out", out, "--data", big, "--domain", "source",
                 "--split", "train", "--checkpoint", os.path.join(out, "checkpoint.dife")]) == 0
    print("faults", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapSettings:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc only")
    def test_repeated_eval_does_not_refault_its_arrays(self, tmp_path):
        # With glibc's dynamic thresholds the heap top is trimmed after each
        # eval, and the third eval faulted 16-25k pages back in.
        env = dict(os.environ, PYTHONPATH=str(Path(C.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", EVAL_FAULTS_SCRIPT, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        faults = [int(line.split()[1]) for line in proc.stdout.splitlines()
                  if line.startswith("faults ")]
        assert len(faults) == 3 and faults[2] < 500, faults

    def test_other_c_libraries_are_left_alone(self, config_file, tmp_path, monkeypatch):
        calls = []

        class NotGlibc:   # has mallopt, lacks gnu_get_libc_version (musl, say)
            def mallopt(self, param, value):
                calls.append((param, value))

        assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(C.ctypes, "CDLL", lambda name: NotGlibc())
        assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "b")]) == 0
        assert calls == []
        assert ((tmp_path / "a" / "checkpoint.dife").read_bytes()
                == (tmp_path / "b" / "checkpoint.dife").read_bytes())

    def test_glibc_gets_both_thresholds_and_one_arena(self, monkeypatch):
        class Mallopt:   # an attribute, like a ctypes function, so argtypes can be set
            def __init__(self):
                self.calls = []

            def __call__(self, param, value):
                self.calls.append((param, value))
                return 1

        class FakeGlibc:
            def __init__(self):
                self.mallopt = Mallopt()

            def gnu_get_libc_version(self):
                return b"2.36"

        libc = FakeGlibc()
        monkeypatch.setattr(C.ctypes, "CDLL", lambda name: libc)
        C.pin_heap()
        # M_TRIM_THRESHOLD 128 MiB, M_MMAP_THRESHOLD 32 MiB, M_ARENA_MAX 1
        assert libc.mallopt.calls == [(-1, 128 << 20), (-3, 32 << 20), (-8, 1)]
        assert libc.mallopt.argtypes == (C.ctypes.c_int, C.ctypes.c_int)


class TestParser:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == C.EXIT_CONFIG

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args):
            return np.zeros(3).reshape(2, 2)

        monkeypatch.setattr(C.D, "write_dataset", broken)
        with pytest.raises(ValueError, match="reshape"):
            main(["generate", "--out", str(tmp_path / "d"), "--count", "10", "--seed", "1"])

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "Exit codes" in capsys.readouterr().out
