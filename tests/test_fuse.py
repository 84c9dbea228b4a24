"""The block's fused ``msconv_fuse`` tape op against the separate ops it
replaced (``oracles.unfused_block_on_tape``).

The forward keeps every bit of the separate ops for all five fusion kinds,
across several batch chunks.  The backward is checked by finite differences
with and without a residual shortcut, and one training step's gradients are
compared with the separate ops': byte for byte where only the order of the
backward's sums could move a bit and did not, within a stated rounding
bound where it did.
"""

import numpy as np
import pytest

from msconv import tensor as T
from msconv.autograd import Tape, finite_diff_check
from msconv.autograd import Var
from msconv.block import FusionKind, MSConvState, block_forward_on_tape
from msconv.model import (MarginKind, MarginLossConfig, StageSpec,
                          TinyNetConfig,
                          init_params, margin_ce_on_tape, tinynet_embed,
                          tinynet_forward)
from oracles import TRACE_FIELDS, unfused_block_on_tape, unfused_net_forward

KINDS = list(FusionKind)  # the five fusion kinds
EPS = np.finfo(np.float64).eps


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, shape)


def constants(tape, arrays):
    return {k: tape.constant(v) for k, v in arrays.items()}


class TestForwardBytes:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_block_output_and_trace_match_separate_ops(self, kind, stride):
        st = MSConvState.init(3, 32, seed=5, stride=stride, min_width=2)
        x = rand((11, 24, 24, 3), 6)
        tape = Tape()
        v, tr = block_forward_on_tape(
            tape, tape.constant(x), constants(tape, st.params),
            dilations=st.dilations, stride=stride, kind=kind)
        assert T._chunk_step(11, v.value[0].nbytes) < 11  # several chunks
        assert set(tr) == set(TRACE_FIELDS)
        tape = Tape()
        want, ref = unfused_block_on_tape(
            tape, tape.constant(x), constants(tape, st.params),
            st.dilations, stride, kind.value)
        assert v.value.tobytes() == want.value.tobytes()
        for name in TRACE_FIELDS:
            got = tr[name].value if isinstance(tr[name], Var) else tr[name]
            assert got.shape == ref[name].shape, name
            assert got.tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_embed_matches_separate_ops(self, kind):
        """A projected and an identity shortcut, over three chunks."""
        cfg = TinyNetConfig(in_channels=2, stem_channels=8,
                            stages=(StageSpec(2, 16, 2),), embed_dim=8,
                            min_width=2, fusion=kind)
        params = init_params(cfg, seed=3)
        x = rand((70, 16, 16, 2), 4)
        assert -(-70 // T._chunk_step(70, 8 * 8 * 16 * 8)) == 3
        got = tinynet_embed(x, params, cfg)
        tape = Tape()
        want = unfused_net_forward(tape, tape.constant(x),
                                   constants(tape, params), cfg)
        assert got.tobytes() == want.value.tobytes()


SHORTCUTS = ("none", "identity", "projection")


@pytest.mark.parametrize("shortcut", SHORTCUTS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_block_finite_differences(kind, shortcut):
    """Every input of the fused op, the shortcut included, below 1e-6."""
    stride = 2 if shortcut == "projection" else 1
    c_in = 4 if shortcut == "identity" else 3
    st = MSConvState.init(c_in, 4, seed=8, stride=stride, min_width=2)
    params = dict(st.params)
    params["x"] = rand((2, 6, 6, c_in), 9)
    if shortcut == "projection":
        params["proj"] = rand((1, 1, c_in, 4), 10, 0.5)
    weights = rand((2, 6 // stride, 6 // stride, 4), 11)

    def build(tape, v):
        sc = {"none": None, "identity": v["x"]}.get(shortcut)
        if shortcut == "projection":
            sc = tape.conv2d(v["x"], v["proj"], stride=2)
        out, _ = block_forward_on_tape(tape, v["x"], v, dilations=(1, 2),
                                       stride=stride, kind=kind, shortcut=sc)
        return tape.sum(tape.mul(out, tape.constant(weights)))

    assert finite_diff_check(build, params) < 1e-6


def step_gradients(forward, cfg, seed):
    """Leaf gradients of one margin-loss step over ``forward``."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    params["centers"] = rng.normal(size=(3, cfg.embed_dim))
    x = rng.normal(size=(6, 8, 8, cfg.in_channels))
    labels = rng.integers(0, 3, size=6)
    loss_cfg = MarginLossConfig.of_kind(MarginKind.COS, class_count=3,
                                        scale=16.0)
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    net = {k: v for k, v in leaves.items() if k != "centers"}
    emb = forward(tape, tape.constant(x), net, cfg)
    centers = tape.l2_normalize_rows(leaves["centers"])
    grads = tape.backward(margin_ce_on_tape(tape, emb, centers, labels,
                                            loss_cfg))
    return {k: grads[v] for k, v in leaves.items()}


class TestStepGradients:
    @pytest.mark.parametrize("kind", [k for k in KINDS
                                      if k is not FusionKind.SKCONV_REFERENCE],
                             ids=lambda k: k.value)
    def test_identity_shortcuts_keep_every_bit(self, kind):
        """Without a projection the fused vjp forms each gradient with the
        separate ops' expressions and sums, in their order."""
        cfg = TinyNetConfig(in_channels=2, stem_channels=4,
                            stages=(StageSpec(2, 4, 1),), embed_dim=5,
                            min_width=2, fusion=kind)
        got = step_gradients(tinynet_forward, cfg, 12)
        want = step_gradients(unfused_net_forward, cfg, 12)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("seed", [13, 14, 15])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_within_rounding_bound(self, kind, seed):
        """Two things differ from the separate ops.  A projected shortcut's
        input gradient joins the two branch gradients last, where the
        separate ops added it first: one three-term sum reassociated.  The
        skconv kind takes msconv_sum's gradient algebra (the two kinds are
        one function): g - g*c for g*(1-c), and one pooled sum of
        g*(U1-U2) for two.  Each is a few roundings of eps relative to the
        terms, passed on through linear maps; every element stays within
        32 eps of its array's largest reference magnitude.  The worst seen
        over seeds 13-29 is 8.7 eps for skconv and 1.9 eps for the other
        kinds.  A term dropped or counted twice moves a gradient by a
        sizeable fraction of that magnitude.
        """
        cfg = TinyNetConfig(in_channels=2, stem_channels=3,
                            stages=(StageSpec(2, 4, 2),), embed_dim=5,
                            min_width=2, fusion=kind)
        got = step_gradients(tinynet_forward, cfg, seed)
        want = step_gradients(unfused_net_forward, cfg, seed)
        for name in want:
            scale = np.abs(want[name]).max()
            err = np.abs(got[name] - want[name]).max()
            assert err <= 32 * EPS * scale, (name, err / (EPS * scale))
