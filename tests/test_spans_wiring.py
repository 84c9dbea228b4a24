"""The benchmark's span wiring still fits the library.

``perfbench/spans.py`` wraps library functions and ``Tape`` methods by
name.  Installing and uninstalling it here turns a renamed or removed name
into a failing test instead of a crash of the traced benchmark run.
"""

import importlib.util
import os

import numpy as np

from msconv import autograd, model, tensor
from msconv.model import StageSpec, TinyNetConfig, init_params

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_install_traces_and_uninstall_restores():
    spans = load_spans()
    originals = {op: autograd.Tape.__dict__[op]
                 for op in (*spans._TAPE_OPS, "emit", "backward")}
    conv, embed = tensor.conv2d_raw, model.tinynet_embed
    rec = spans.Recorder()
    wiring = spans.install(rec)
    try:
        assert tensor.conv2d_raw is not conv
        cfg = TinyNetConfig(in_channels=2, stem_channels=3,
                            stages=(StageSpec(1, 4, 2),), embed_dim=3,
                            min_width=2)
        x = np.random.default_rng(0).normal(size=(2, 4, 4, 2))
        model.tinynet_embed(x, init_params(cfg, 0), cfg)
    finally:
        wiring.uninstall()
    counts = spans.call_counts(rec.take())
    assert counts["model.embed"] == 1 and counts["block.forward"] == 1
    assert counts["tensor.conv2d"] == 4  # stem, projection, two branches
    assert tensor.conv2d_raw is conv and model.tinynet_embed is embed
    for op, fn in originals.items():
        assert autograd.Tape.__dict__[op] is fn, op
