"""End-to-end command-line runs for every subcommand.

Commands are invoked in-process through ``main(argv)``; printed key=value
lines are parsed back and checked against library-side recomputations.
"""

import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from msconv import cli, msct
from msconv.block import FusionKind
from msconv.data import load_dataset, read_pairs
from msconv.model import init_params
from msconv.train import build_config, load_checkpoint, parse_kv_lines
from test_data_metrics import DATASET_DEFECTS, corrupt_dataset

BASE_CONFIG = {
    "identities": 3,
    "samples_per_identity": 6,
    "image_size": 8,
    "channels": 2,
    "noise_sigma": 0.05,
    "shift_range": 1,
    "stem_channels": 4,
    "stage_blocks": "1",
    "stage_channels": "6",
    "stage_strides": "2",
    "embed_dim": 8,
    "min_width": 2,
    "loss": "cos",
    "scale": 16,
    "batch_size": 6,
    "epochs": 2,
    "lr_init": 0.05,
    "lr_min": 0.0001,
}


def write_config(path, **overrides):
    """Write a desk-size config file and return its path as a string."""
    entries = dict(BASE_CONFIG)
    entries.update(overrides)
    path.write_text("".join(f"{key} = {val}\n" for key, val in entries.items()))
    return str(path)


def kv_lines(text):
    """Parse trailing key=value report lines into a dict."""
    out = {}
    for line in text.splitlines():
        if re.fullmatch(r"[a-z_]+=[^ ]*", line):
            key, val = line.split("=", 1)
            out[key] = val
    return out


BAD_FARS = ["0", "1", "2", "nan"]


def spy_on_work(monkeypatch):
    """Replaces training and embedding with spies that record their calls
    and do nothing; returns the list they append to."""
    from msconv import train
    calls = []
    for name in ("train", "embed_dataset"):
        monkeypatch.setattr(train, name,
                            lambda *args, name=name, **kw: calls.append(name))
    return calls


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared training run: (config path, output dir) for reuse."""
    root = tmp_path_factory.mktemp("cli_train")
    cfg_path = write_config(root / "run.cfg")
    out = root / "out"
    assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    return cfg_path, out


class TestGradcheckCommand:
    """Finite-difference sweeps exposed as a command."""

    LINE = re.compile(r"scope=(\S+) max_rel_err=(\d\.\d{3}e[+-]\d{2}) "
                      r"threshold=(\S+) status=(pass|FAIL)")

    def test_ops_scope_passes(self, capsys):
        """Every primitive op check prints a passing line, the fused op
        once per distinct fusion kind with and without a shortcut."""
        assert cli.main(["gradcheck", "--scope", "ops"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 21
        fused = [f"op:msconv_fuse/{kind.value}{shortcut}"
                 for kind in FusionKind for shortcut in ("", "+shortcut")]
        assert [self.LINE.fullmatch(line).group(1)
                for line in lines[-10:]] == fused
        for line in lines:
            match = self.LINE.fullmatch(line)
            assert match is not None
            assert match.group(1).startswith("op:")
            assert float(match.group(2)) < 1e-6
            assert match.group(3) == "1e-06"
            assert match.group(4) == "pass"

    def test_block_scope_passes(self, capsys):
        """The assembled block passes at the op threshold."""
        assert cli.main(["gradcheck", "--scope", "block"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        match = self.LINE.fullmatch(lines[0])
        assert match.group(1) == "block"
        assert match.group(4) == "pass"

    def test_failure_sets_exit_code(self, monkeypatch, capsys):
        """A check over threshold prints FAIL and fails the command."""
        monkeypatch.setattr(cli, "finite_diff_check", lambda build, p: 1.0)
        assert cli.main(["gradcheck", "--scope", "block"]) == 1
        assert "status=FAIL" in capsys.readouterr().out

    def test_rejects_extra_arguments(self, capsys):
        """gradcheck takes no config overrides."""
        assert cli.main(["gradcheck", "--banana", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTrainCommand:
    """Training runs driven by a config file plus overrides."""

    def test_writes_log_and_checkpoint(self, trained):
        """metrics.log has one line per epoch; the checkpoint loads back."""
        _, out = trained
        log = (out / "metrics.log").read_text().splitlines()
        assert len(log) == BASE_CONFIG["epochs"]
        assert all(line.startswith("epoch=") for line in log)
        params, cfg = load_checkpoint(out / "checkpoint")
        assert cfg.epochs == BASE_CONFIG["epochs"]
        assert "w_embed" in params and "centers" in params

    def test_override_shortens_run(self, tmp_path, capsys):
        """--epochs on the command line beats the config file."""
        cfg_path = write_config(tmp_path / "run.cfg")
        out = tmp_path / "out"
        code = cli.main(["train", "--config", cfg_path, "--out", str(out),
                         "--epochs", "1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "metrics_log=" in stdout and "checkpoint=" in stdout
        assert len((out / "metrics.log").read_text().splitlines()) == 1

    def test_runs_are_byte_identical(self, tmp_path):
        """Two runs of one config agree on logs and every tensor file."""
        cfg_path = write_config(tmp_path / "run.cfg", epochs=1)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert (out_a / "metrics.log").read_bytes() == \
            (out_b / "metrics.log").read_bytes()
        names_a = sorted(os.listdir(out_a / "checkpoint"))
        assert names_a == sorted(os.listdir(out_b / "checkpoint"))
        for name in names_a:
            assert (out_a / "checkpoint" / name).read_bytes() == \
                (out_b / "checkpoint" / name).read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        """Misspelled overrides fail instead of being ignored."""
        cfg_path = write_config(tmp_path / "run.cfg")
        code = cli.main(["train", "--config", cfg_path,
                         "--out", str(tmp_path / "o"), "--epoch", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_override_value_rejected(self, tmp_path, capsys):
        """A trailing --key without a value is an error."""
        cfg_path = write_config(tmp_path / "run.cfg")
        code = cli.main(["train", "--config", cfg_path,
                         "--out", str(tmp_path / "o"), "--epochs"])
        assert code == 2
        assert "missing value" in capsys.readouterr().err

    def test_positional_junk_rejected(self, tmp_path, capsys):
        """Overrides must be --key value pairs."""
        cfg_path = write_config(tmp_path / "run.cfg")
        code = cli.main(["train", "--config", cfg_path,
                         "--out", str(tmp_path / "o"), "epochs", "1"])
        assert code == 2
        assert "expected --key" in capsys.readouterr().err

    def test_repeated_override_rejected(self, tmp_path, capsys):
        """A key given twice on the command line is an error, as in a
        config file, not a silent win for the last value."""
        code = cli.main(["flops", "--epochs", "1", "--epochs", "2"])
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate override --epochs\n"

    @pytest.mark.parametrize("key, value", [
        ("noise_sigma", "nan"), ("lr_init", "inf"), ("weight_decay", "1e999")])
    def test_non_finite_float_rejected(self, tmp_path, capsys, key, value):
        """Float keys take finite numbers only: nan, inf and an overflowing
        literal end in exit 2 before any training."""
        cfg_path = write_config(tmp_path / "run.cfg")
        code = cli.main(["train", "--config", cfg_path,
                         "--out", str(tmp_path / "o"), f"--{key}", value])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad value for {key!r}: {value!r} is not a finite number\n")
        assert not (tmp_path / "o").exists()

    def test_divergence_reported(self, tmp_path, capsys):
        """A run whose loss overflows ends in one error line and exit 2."""
        cfg_path = write_config(tmp_path / "run.cfg", epochs=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train", "--config", cfg_path,
                             "--out", str(tmp_path / "o"), "--scale", "1e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss at epoch 0 step 0; ")
        assert err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    def test_missing_config_file(self, tmp_path, capsys):
        """A nonexistent config path is reported, not raised."""
        code = cli.main(["train", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text, message", [
        (b"epochs = 1\nseed = \xe9\n", "2: non-ASCII byte 0xe9"),
        (b"epochs = 1\n\nwidth = 3\n", "3: unknown config key 'width'"),
    ])
    def test_config_file_errors_name_path_and_line(self, tmp_path, capsys,
                                                   text, message):
        """--config files are read as ASCII; every line error names the
        file and the line, blank lines counted."""
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(text)
        code = cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}:{message}")

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        """A short desk run writes the same bytes on one and on two BLAS
        threads: metrics.log and every checkpoint file."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outs = []
        for n in ("1", "2"):
            path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                       PYTHONPATH=os.pathsep.join(path))
            out = tmp_path / f"threads{n}"
            subprocess.run(
                [sys.executable, "-m", "msconv.cli", "train", "--out", str(out),
                 "--samples_per_identity", "10", "--epochs", "2"],
                env=env, check=True, capture_output=True)
            outs.append(out)
        a, b = outs
        assert (a / "metrics.log").read_bytes() == (b / "metrics.log").read_bytes()
        names = sorted(os.listdir(a / "checkpoint"))
        assert names == sorted(os.listdir(b / "checkpoint"))
        for name in names:
            assert (a / "checkpoint" / name).read_bytes() == \
                (b / "checkpoint" / name).read_bytes()

    @staticmethod
    def verify_desk_set(tmp_path, launch=("-m", "msconv.cli"), **env):
        """stdout of a child ``msconv verify --data`` on 36 images of 64x64
        (the desk model, so batches of 32 and 4 walked in chunks of 4),
        run as ``python <launch> verify ...`` with ``env`` added."""
        cfg_path = tmp_path / "run.cfg"
        run, data = tmp_path / "run", tmp_path / "data"
        if not run.exists():
            cfg_path.write_text("image_size = 64\nidentities = 4\n"
                                "samples_per_identity = 9\nepochs = 0\n")
            assert cli.main(["train", "--config", str(cfg_path),
                             "--out", str(run)]) == 0
            assert cli.main(["gen-data", "--config", str(cfg_path),
                             "--out", str(data), "--genuine", "30",
                             "--impostor", "60"]) == 0
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        return subprocess.run(
            [sys.executable, *launch, "verify",
             "--checkpoint", str(run / "checkpoint"), "--data", str(data)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env),
            check=True, capture_output=True).stdout

    def test_verify_bytes_independent_of_blas_threads(self, tmp_path):
        """verify --data prints the same bytes on one and on two BLAS
        threads."""
        outs = [self.verify_desk_set(tmp_path, OPENBLAS_NUM_THREADS=n,
                                     OMP_NUM_THREADS=n) for n in ("1", "2")]
        assert b"tar=" in outs[0]
        assert outs[0] == outs[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_verify_bytes_independent_of_cores(self, tmp_path):
        """verify --data prints the same bytes in a child pinned to one CPU,
        whose embedding runs on one worker, and in an unpinned child."""
        pin = ("-c", "import os, sys; "
               "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "from msconv.cli import main; sys.exit(main(sys.argv[1:]))")
        pinned = self.verify_desk_set(tmp_path, pin)
        assert b"tar=" in pinned
        assert pinned == self.verify_desk_set(tmp_path)


class TestGenDataCommand:
    """Synthetic dataset directories with verification pairs."""

    def test_writes_dataset_and_pairs(self, tmp_path, capsys):
        """Image files, labels and the pair list all land on disk."""
        cfg_path = write_config(tmp_path / "run.cfg")
        out = tmp_path / "data"
        code = cli.main(["gen-data", "--config", cfg_path, "--out", str(out),
                         "--genuine", "20", "--impostor", "30"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "images=18 identities=3 genuine_pairs=20 impostor_pairs=30" \
            in stdout
        labels = (out / "labels.txt").read_text().splitlines()
        assert len(labels) == 18
        assert len([n for n in os.listdir(out) if n.endswith(".msct")]) == 18
        pairs = read_pairs(out / "pairs.txt", load_dataset(out).names)
        assert len(pairs) == 50
        assert sum(label for _, _, label in pairs) == 20

    def test_negative_pair_count_rejected(self, tmp_path, capsys):
        """A negative count ends in exit 2 before anything is written."""
        cfg_path = write_config(tmp_path / "run.cfg")
        out = tmp_path / "data"
        code = cli.main(["gen-data", "--config", cfg_path, "--out", str(out),
                         "--genuine", "-3", "--impostor", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: pair counts")
        assert not out.exists()


class TestVerifyCommand:
    """Verification metrics for a stored checkpoint."""

    def test_synthesized_holdout(self, trained, capsys):
        """Without --data an unseen split is generated from the config."""
        _, out = trained
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--genuine", "20", "--impostor", "40",
                         "--far", "0.1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verification over 60 pairs (20 genuine)" in stdout
        stats = kv_lines(stdout)
        assert float(stats["far_target"]) == 0.1
        assert 0.0 <= float(stats["tar"]) <= 1.0
        assert 0.5 <= float(stats["pair_acc"]) <= 1.0
        assert -1.0 <= float(stats["threshold"]) <= 1.0

    def test_with_dataset_directory(self, trained, tmp_path, capsys):
        """--data evaluates against a directory written by gen-data."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "15", "--impostor", "25"]) == 0
        capsys.readouterr()
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir), "--far", "0.1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verification over 40 pairs (15 genuine)" in stdout
        assert "tar=" in kv_lines(stdout) or "tar" in kv_lines(stdout)

    def test_out_of_range_pair_rejected(self, trained, tmp_path, capsys):
        """A pair naming an image past the dataset fails with exit code 2."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "4", "--impostor", "4"]) == 0
        capsys.readouterr()
        (data_dir / "pairs.txt").write_text(
            "img00000.msct,img00001.msct,1\n"
            "img00099.msct,img00001.msct,0\n")
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pair 2 names 'img00099.msct', which is "
                              "not among the 18 images in labels.txt")

    def test_reordered_labels_score_the_same_pairs(self, trained, tmp_path,
                                                   capsys):
        """Pairs resolve through labels.txt, so reordering it changes
        nothing."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "15", "--impostor", "25"]) == 0
        capsys.readouterr()
        argv = ["verify", "--checkpoint", str(out / "checkpoint"),
                "--data", str(data_dir), "--far", "0.1"]
        assert cli.main(argv) == 0
        before = capsys.readouterr().out
        labels = data_dir / "labels.txt"
        lines = labels.read_text().splitlines(keepends=True)
        labels.write_text("".join(lines[:5] + lines[:4:-1]))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == before

    def test_pair_outside_labels_subset_rejected(self, trained, tmp_path,
                                                 capsys):
        """An image file on disk but left out of labels.txt cannot be
        paired."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "4", "--impostor", "4"]) == 0
        capsys.readouterr()
        labels = data_dir / "labels.txt"
        labels.write_text("".join(labels.read_text().splitlines(
            keepends=True)[1:]))
        (data_dir / "pairs.txt").write_text(
            "img00001.msct,img00002.msct,1\n"
            "img00000.msct,img00009.msct,0\n")
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: pair 2 names 'img00000.msct', which is not among the 17 "
            "images in labels.txt")

    def test_negative_pair_count_rejected(self, trained, capsys):
        _, out = trained
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--genuine", "5", "--impostor", "-2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: pair counts")

    @pytest.mark.parametrize("far", BAD_FARS)
    def test_bad_far_rejected_before_embedding(self, trained, monkeypatch,
                                               capsys, far):
        """A FAR target outside (0, 1) fails before any image is embedded."""
        calls = spy_on_work(monkeypatch)
        _, out = trained
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--far", far])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: far_target must be in (0, 1)")
        assert calls == []

    @pytest.mark.parametrize("command", ["verify", "viz"])
    def test_checkpoint_missing_parameter_rejected(self, trained, tmp_path,
                                                   capsys, command):
        """A manifest without the w_embed line ends in exit 2, not a
        KeyError traceback."""
        _, out = trained
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        manifest = ckpt / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(keepends=True)
            if not line.startswith("w_embed=")))
        img_path = tmp_path / "img.msct"
        msct.write_tensor(img_path, np.zeros((8, 8, 2)))
        argv = {"verify": ["verify", "--checkpoint", str(ckpt)],
                "viz": ["viz", "--checkpoint", str(ckpt), "--image",
                        str(img_path), "--out", str(tmp_path / "maps")]}
        assert cli.main(argv[command]) == 2
        assert capsys.readouterr().err.startswith(
            "error: checkpoint parameter 'w_embed': the files hold nothing")

    def test_checkpoint_misshapen_parameter_rejected(self, trained, tmp_path,
                                                     capsys):
        _, out = trained
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        filename = msct.read_manifest(ckpt / "manifest.txt")["stem"]
        msct.write_tensor(ckpt / filename, np.zeros((3, 3, 2, 5)))
        assert cli.main(["verify", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint parameter 'stem': the files "
                              "hold (3, 3, 2, 5), the config needs (3, 3, 2, 4)")

    def test_checkpoint_tensor_with_unaddressable_shape_rejected(
            self, trained, tmp_path, capsys):
        """An empty tensor whose other dimensions overflow an index ends in
        exit 2 naming the dimensions."""
        _, out = trained
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        filename = msct.read_manifest(ckpt / "manifest.txt")["stem"]
        (ckpt / filename).write_bytes(
            b"MSCT" + struct.pack("<4I", 3, 0, 2**32 - 1, 2**32 - 1))
        assert cli.main(["verify", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {ckpt / filename}: dimensions (0, 4294967295, 4294967295) "
            "exceed")

    @pytest.mark.parametrize("command", ["verify", "viz"])
    def test_checkpoint_non_finite_value_rejected(self, trained, tmp_path,
                                                  capsys, command):
        """One NaN in the stem ends in exit 2 and one error line naming the
        parameter, before any image is embedded."""
        _, out = trained
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        filename = msct.read_manifest(ckpt / "manifest.txt")["stem"]
        stem = msct.read_tensor(ckpt / filename)
        stem[1, 1, 0, 0] = np.nan
        msct.write_tensor(ckpt / filename, stem)
        img_path = tmp_path / "img.msct"
        msct.write_tensor(img_path, np.zeros((8, 8, 2)))
        argv = {"verify": ["verify", "--checkpoint", str(ckpt)],
                "viz": ["viz", "--checkpoint", str(ckpt), "--image",
                        str(img_path), "--out", str(tmp_path / "maps")]}
        assert cli.main(argv[command]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: checkpoint parameter 'stem' holds "
                                "non-finite values\n")
        assert captured.out == ""
        assert not (tmp_path / "maps").exists()

    def test_non_ascii_manifest_rejected(self, trained, tmp_path, capsys):
        _, out = trained
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        manifest = ckpt / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"\xe9=x.msct\n")
        lineno = manifest.read_bytes().count(b"\n")
        assert cli.main(["verify", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}:{lineno}: non-ASCII byte 0xe9")

    @pytest.mark.parametrize("name", ["labels.txt", "pairs.txt"])
    def test_non_ascii_dataset_text_rejected(self, trained, tmp_path, capsys,
                                             name):
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "4", "--impostor", "4"]) == 0
        capsys.readouterr()
        path = data_dir / name
        path.write_bytes(path.read_bytes().replace(b".msct", b"\x80msct", 1))
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:1: non-ASCII byte 0x80")

    def test_non_integer_label_rejected(self, trained, tmp_path, capsys):
        """A label that is not a non-negative integer ends in exit 2 naming
        labels.txt and the line."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "4", "--impostor", "4"]) == 0
        capsys.readouterr()
        path = data_dir / "labels.txt"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split(",")[0] + ",x"
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:2: label 'x' is not a non-negative integer")

    def test_repeated_label_name_rejected(self, trained, tmp_path, capsys):
        """An image listed twice in labels.txt ends in exit 2 and one error
        line naming both lines, not in a metric over the repeated row."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "4", "--impostor", "4"]) == 0
        capsys.readouterr()
        path = data_dir / "labels.txt"
        lineno = path.read_text().count("\n") + 1
        path.write_text(path.read_text() + "img00000.msct,2\n")
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {path}:{lineno}: 'img00000.msct' is already listed on "
            "line 1"]

    @pytest.mark.parametrize("absolute", [False, True],
                             ids=["parent-relative", "absolute"])
    def test_labels_name_outside_dataset_rejected(self, trained, tmp_path,
                                                  capsys, absolute):
        """labels.txt naming a file outside the dataset directory ends in
        exit 2 naming labels.txt and the line, and the file is not read."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "4", "--impostor", "4"]) == 0
        capsys.readouterr()
        secret = tmp_path / "outside" / "secret.msct"
        secret.parent.mkdir()
        shutil.copy(data_dir / "img00000.msct", secret)
        name = str(secret) if absolute else "../outside/secret.msct"
        path = data_dir / "labels.txt"
        lines = path.read_text().splitlines()
        lines[1] = f"{name},0"
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:2: filename {name!r} is not a plain file name")

    @pytest.mark.parametrize("defect", DATASET_DEFECTS)
    def test_dataset_defect_rejected(self, trained, tmp_path, capsys, defect):
        """An empty labels.txt or a bad image ends in exit 2 naming the
        file."""
        cfg_path, out = trained
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(data_dir),
                         "--genuine", "4", "--impostor", "4"]) == 0
        capsys.readouterr()
        path, message = corrupt_dataset(data_dir, defect)
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--data", str(data_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_non_ascii_checkpoint_config_rejected(self, trained, tmp_path,
                                                  capsys):
        """A bad byte in a checkpoint's config.txt names the file and line."""
        _, out = trained
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        config = ckpt / "config.txt"
        config.write_bytes(config.read_bytes().replace(b"\nseed = ",
                                                       b"\nseed = \xe9"))
        lineno = config.read_bytes().split(b"\xe9")[0].count(b"\n") + 1
        assert cli.main(["verify", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {config}:{lineno}: non-ASCII byte 0xe9")

    def test_repeated_manifest_name_rejected(self, trained, tmp_path, capsys):
        """A manifest naming a parameter twice ends in exit 2 naming both
        lines, not a load of the later file in the earlier one's place."""
        _, out = trained
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        manifest = ckpt / "manifest.txt"
        first = manifest.read_text().splitlines().index("s0b0/k3=s0b0_k3.msct")
        with open(manifest, "a") as fh:
            fh.write("s0b0/k3=s0b0_k5.msct\n")
        lineno = manifest.read_text().count("\n")
        assert cli.main(["verify", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}:{lineno}: 's0b0/k3' is already listed on line "
            f"{first + 1}\n")

    def test_extra_arguments_rejected(self, trained, capsys):
        """verify takes no config overrides."""
        _, out = trained
        code = cli.main(["verify", "--checkpoint", str(out / "checkpoint"),
                         "--epochs", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestFlopsCommand:
    """Cost accounting table for a configured model."""

    def test_total_params_match_actual_arrays(self, tmp_path, capsys):
        """total_params equals the scalar count of a real parameter set."""
        cfg_path = write_config(tmp_path / "run.cfg")
        assert cli.main(["flops", "--config", cfg_path]) == 0
        stats = kv_lines(capsys.readouterr().out)
        with open(cfg_path) as fh:
            run_cfg = build_config(parse_kv_lines(fh.readlines()))
        params = init_params(run_cfg.model, seed=0)
        assert int(stats["total_params"]) == \
            sum(arr.size for arr in params.values())

    def test_table_rows_sum_to_totals(self, tmp_path, capsys):
        """The printed total row is the column sum of the layer rows."""
        cfg_path = write_config(tmp_path / "run.cfg", stage_blocks="2",
                                stage_channels="6", stage_strides="2")
        assert cli.main(["flops", "--config", cfg_path]) == 0
        stdout = capsys.readouterr().out
        rows = []
        totals = None
        for line in stdout.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1].isdigit():
                if parts[0] == "total":
                    totals = (int(parts[1]), int(parts[2]))
                else:
                    rows.append((int(parts[1]), int(parts[2])))
        assert totals is not None and len(rows) >= 4
        assert totals[0] == sum(p for p, _ in rows)
        assert totals[1] == sum(f for _, f in rows)
        assert int(kv_lines(stdout)["total_params"]) == totals[0]
        assert int(kv_lines(stdout)["total_flops"]) == totals[1]

    def test_desk_totals(self, capsys):
        """Desk defaults: the stem, projection and residual rows and totals."""
        assert cli.main(["flops"]) == 0
        stdout = capsys.readouterr().out
        rows = {parts[0]: (int(parts[1]), int(parts[2]))
                for parts in map(str.split, stdout.splitlines())
                if len(parts) == 3 and parts[1].isdigit()}
        assert rows["stem"] == (432, 442368)
        assert rows["s0b0/proj"] == (512, 131072)
        assert rows["s0b0/add"] == (0, 16 * 16 * 32)
        assert kv_lines(stdout)["total_params"] == "15440"
        assert kv_lines(stdout)["total_flops"] == "2995456"


class TestAblateCommand:
    """Fusion-variant sweeps sharing one initialization."""

    def test_two_kind_report(self, tmp_path, capsys):
        """Both requested kinds train, report and leave checkpoints whose
        config reloads equal to the run's with the kind swapped in."""
        cfg_path = write_config(tmp_path / "run.cfg", epochs=1)
        with open(cfg_path) as fh:
            run_cfg = build_config(parse_kv_lines(fh.readlines()))
        out = tmp_path / "ablate"
        code = cli.main(["ablate", "--config", cfg_path, "--out", str(out),
                         "--kinds", "msconv,skconv", "--far", "0.1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "kind=msconv " in stdout and "kind=skconv " in stdout
        report = (out / "report.txt").read_text()
        assert "kind=msconv " in report
        for kind in ("msconv", "skconv"):
            assert len((out / kind / "metrics.log").read_text()
                       .splitlines()) == 1
            _, kind_cfg = load_checkpoint(out / kind)
            assert kind_cfg == replace(run_cfg, fusion=FusionKind(kind))
            assert kind_cfg.model.fusion is FusionKind(kind)

    def test_divergence_reported(self, tmp_path, capsys):
        """A kind whose loss overflows ends the sweep in one error line and
        exit 2."""
        cfg_path = write_config(tmp_path / "run.cfg", epochs=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["ablate", "--config", cfg_path,
                             "--out", str(tmp_path / "o"), "--kinds", "msconv",
                             "--weight_decay", "1e300"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss at epoch ")
        assert err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("kinds", ["msconv,msconv", "no_mo,msconv_sum"])
    def test_repeated_kind_rejected(self, tmp_path, capsys, kinds):
        """A kind listed twice, also through an alias, fails before training."""
        cfg_path = write_config(tmp_path / "run.cfg", epochs=1)
        out = tmp_path / "o"
        code = cli.main(["ablate", "--config", cfg_path, "--out", str(out),
                         "--kinds", kinds])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: a fusion kind is listed more than once")
        assert not out.exists()

    @pytest.mark.parametrize("far", BAD_FARS)
    def test_bad_far_rejected_before_training(self, tmp_path, monkeypatch,
                                              capsys, far):
        """A FAR target outside (0, 1) fails before any kind trains, and
        leaves no output directory."""
        calls = spy_on_work(monkeypatch)
        cfg_path = write_config(tmp_path / "run.cfg", epochs=1)
        out = tmp_path / "o"
        code = cli.main(["ablate", "--config", cfg_path, "--out", str(out),
                         "--far", far])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: far_target must be in (0, 1)")
        assert calls == []
        assert not out.exists()

    def test_bad_kind_rejected(self, tmp_path, capsys):
        """An unknown fusion kind fails before any training starts."""
        cfg_path = write_config(tmp_path / "run.cfg", epochs=1)
        code = cli.main(["ablate", "--config", cfg_path,
                         "--out", str(tmp_path / "o"), "--kinds", "sknet"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestVizCommand:
    """Feature-map dumps for a checkpoint and one image."""

    def test_dumps_feature_maps(self, trained, tmp_path, capsys):
        """All announced paths exist: raw branches plus per-op PGMs."""
        _, out = trained
        img_path = tmp_path / "img.msct"
        rng = np.random.default_rng(4)
        msct.write_tensor(img_path, rng.normal(size=(8, 8, 2)))
        maps_dir = tmp_path / "maps"
        code = cli.main(["viz", "--checkpoint", str(out / "checkpoint"),
                         "--image", str(img_path), "--out", str(maps_dir),
                         "--top", "2"])
        assert code == 0
        paths = capsys.readouterr().out.strip().splitlines()
        assert len(paths) == 2 + 2 * 5
        for path in paths:
            assert os.path.exists(path)
        names = {os.path.basename(p) for p in paths}
        assert "u1.msct" in names and "u2.msct" in names
        assert any(n.startswith("s0b0_mul_c") for n in names)

    def test_negative_top_rejected(self, trained, tmp_path, capsys):
        """--top -1 fails cleanly instead of dropping the weakest channel."""
        _, out = trained
        img_path = tmp_path / "img.msct"
        msct.write_tensor(img_path, np.zeros((8, 8, 2)))
        maps = tmp_path / "maps"
        code = cli.main(["viz", "--checkpoint", str(out / "checkpoint"),
                         "--image", str(img_path), "--out", str(maps),
                         "--top", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "top" in err
        assert not maps.exists()

    def test_bad_layer_rejected(self, trained, tmp_path, capsys):
        """Layer indices past the block list fail cleanly."""
        _, out = trained
        img_path = tmp_path / "img.msct"
        msct.write_tensor(img_path, np.zeros((8, 8, 2)))
        code = cli.main(["viz", "--checkpoint", str(out / "checkpoint"),
                         "--image", str(img_path),
                         "--out", str(tmp_path / "maps"), "--layer", "7"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err
