"""The benchmark's span wiring still fits the library.

``perfbench/spans.py`` wraps library functions and ``Tape`` methods by
name, and times every recorded op's vjp through a wrapper that takes the
upstream gradient alone.  Installing and uninstalling it here turns a
renamed or removed name, or a changed vjp call, into a failing test instead
of a crash of the traced benchmark run.
"""

import importlib.util
import os
import sys

import numpy as np

from msconv import autograd, model, tensor
from msconv.data import gen_synthetic
from msconv.model import StageSpec, TinyNetConfig, init_params
from msconv.train import full_init

from test_train import tiny_config

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def wired(spans):
    """Every attribute ``install`` may replace: the Tape methods it wraps
    and the wrapped functions in every msconv module that binds them."""
    for name in spans.LAYERS:  # install imports them all
        spans.module(name)
    names = {attr for _, attr, _, _ in spans._FUNCTIONS}
    found = {(autograd.Tape, op): autograd.Tape.__dict__[op]
             for op in (*spans._TAPE_OPS, "emit", "backward")}
    for mod in spans._msconv_modules():
        found.update({(mod, attr): getattr(mod, attr)
                      for attr in names if hasattr(mod, attr)})
    return found


def test_install_traces_and_uninstall_restores():
    spans = load_spans()
    originals = wired(spans)
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
    assert wired(spans) == originals


def test_traced_micro_batch_runs_the_backward():
    """One training micro-batch, a recorded forward and ``Tape.backward``,
    runs under the wiring: each conv's vjp is timed, which needs the
    backward to call every vjp with the upstream gradient alone, and the
    gradients keep the bits of an untraced run."""
    spans = load_spans()
    originals = wired(spans)
    train_module = sys.modules["msconv.train"]
    cfg = tiny_config()
    ds, params = gen_synthetic(cfg.data), full_init(cfg)

    def micro_batch():
        return train_module._micro_batch(ds, cfg, [], slice(0, 4), params,
                                         np.arange(6), 0, 0)

    want_loss, want = micro_batch()
    rec = spans.Recorder()
    wiring = spans.install(rec)
    try:
        loss, grads = micro_batch()
    finally:
        wiring.uninstall()
    counts = spans.call_counts(rec.take())
    assert counts["autograd.backward"] == 1
    # stem, projection and the two branches
    assert counts["autograd.vjp.conv2d"] == 4
    assert counts["autograd.vjp.msconv_fuse"] == 1
    assert loss == want_loss
    assert all(grads[k].tobytes() == g.tobytes() for k, g in want.items())
    assert wired(spans) == originals
