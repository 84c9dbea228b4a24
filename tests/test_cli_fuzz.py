"""Mutated user inputs through the command line.

Three seed inputs are built once: a small ``gen-data`` directory, a 1-epoch
checkpoint trained on the same synthetic spec, and the config file both
came from.  Each example copies them, damages one file (truncation or a bit
flip of an MSCT file; a text line deleted, repeated or moved; a file removed
or added) and runs a command that reads it, in process.  The command must
end in exit 0, or in exit 2 with exactly one ``error:`` line on stderr; an
exception out of ``cli.main`` fails the example.

The default profile runs 100 examples; ``pytest --hypothesis-profile=deep``
(see ``conftest.py``) runs many more.
"""

import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from msconv import cli

CONFIG = """\
identities = 3
samples_per_identity = 4
image_size = 8
channels = 2
stem_channels = 4
stage_blocks = 1
stage_channels = 6
stage_strides = 2
embed_dim = 8
min_width = 2
batch_size = 4
epochs = 1
"""

TEXT_FILES = ("data/labels.txt", "data/pairs.txt", "ckpt/manifest.txt",
              "ckpt/config.txt", "run.cfg")


def command(root, name):
    """argv of one command over the seed tree at ``root``."""
    return {
        "verify": ["verify", "--checkpoint", f"{root}/ckpt",
                   "--data", f"{root}/data"],
        "viz": ["viz", "--checkpoint", f"{root}/ckpt", "--image",
                f"{root}/data/img00000.msct", "--out", f"{root}/maps",
                "--top", "2"],
        "train": ["train", "--config", f"{root}/run.cfg",
                  "--out", f"{root}/out"],
        "flops": ["flops", "--config", f"{root}/run.cfg"],
    }[name]


# the commands that read each top-level entry of the seed tree
READERS = {"data": ("verify", "viz"), "ckpt": ("verify", "viz"),
           "run.cfg": ("train", "flops")}


@pytest.fixture(scope="module")
def seed_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_seed")
    (root / "run.cfg").write_text(CONFIG)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        assert cli.main(["gen-data", "--config", str(root / "run.cfg"),
                         "--out", str(root / "data"),
                         "--genuine", "6", "--impostor", "6"]) == 0
        assert cli.main(["train", "--config", str(root / "run.cfg"),
                         "--out", str(root / "run")]) == 0
    shutil.move(root / "run" / "checkpoint", root / "ckpt")
    shutil.rmtree(root / "run")
    for cmd in READERS["data"] + READERS["run.cfg"]:
        with tempfile.TemporaryDirectory() as work:
            shutil.copytree(root, work, dirs_exist_ok=True)
            assert run(command(work, cmd))[0] == 0, cmd
    return root


def run(argv):
    """(exit code, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def mutate(data, root):
    """Damage one file under ``root``; returns the top-level entry touched."""
    files = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, names in os.walk(root) for f in names)
    tensors = [f for f in files if f.endswith(".msct")]
    how = data.draw(st.sampled_from(
        ("truncate", "flip", "delete", "repeat", "move", "remove", "add")))
    if how in ("truncate", "flip"):
        target = data.draw(st.sampled_from(tensors))
        with open(os.path.join(root, target), "rb") as fh:
            blob = bytearray(fh.read())
        # header positions (magic, rank, dims) as often as payload ones
        pos = data.draw(st.one_of(st.integers(0, min(len(blob), 24) - 1),
                                  st.integers(0, len(blob) - 1)))
        if how == "truncate":
            del blob[pos:]
        else:
            blob[pos] ^= 1 << data.draw(st.integers(0, 7))
        with open(os.path.join(root, target), "wb") as fh:
            fh.write(blob)
    elif how in ("delete", "repeat", "move"):
        target = data.draw(st.sampled_from(TEXT_FILES))
        path = os.path.join(root, target)
        with open(path) as fh:
            lines = fh.readlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if how == "delete":
            del lines[i]
        elif how == "repeat":
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        else:
            del lines[i]
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        with open(path, "w") as fh:
            fh.writelines(lines)
    elif how == "remove":
        target = data.draw(st.sampled_from(files))
        os.remove(os.path.join(root, target))
    else:
        target = data.draw(st.sampled_from(("data", "ckpt")))
        name = data.draw(st.sampled_from(("extra.msct", "img99999.msct",
                                          "notes.txt")))
        with open(os.path.join(root, target, name), "wb") as fh:
            fh.write(data.draw(st.binary(max_size=64)))
    return target.split("/")[0]


@settings(deadline=None)
@given(data=st.data())
def test_mutated_input_ends_in_result_or_one_error(seed_tree, data):
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(seed_tree, work, dirs_exist_ok=True)
        entry = mutate(data, work)
        name = data.draw(st.sampled_from(READERS[entry]))
        code, err = run(command(work, name))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 0 or (code == 2 and len(errors) == 1), (code, err)
