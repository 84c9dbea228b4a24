"""Backbone and margin-loss tests.

The backbone is checked structurally (zero propagation, batch independence,
unit-norm output, layout bookkeeping) and its analytic gradients against
central differences.  The margin losses are checked against hand-evaluated
scalar cases and an independent log-sum-exp evaluation.
"""

import math

import numpy as np
import pytest

from msconv import tensor as T
from msconv.autograd import Tape, finite_diff_check
from msconv.block import BLOCK_PARAM_NAMES, FusionKind, MSConvState
from msconv.model import (COS_CLAMP, MarginKind, MarginLossConfig, StageSpec,
                          TinyNetConfig, cosine_scores, cost_rows, init_params,
                          margin_ce_on_tape, margin_loss, normalize_rows,
                          tinynet_embed, tinynet_forward)
from oracles import counting_net_forward, one_shot_embed


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, shape)


def unit_rows(shape, seed=0):
    return normalize_rows(rand(shape, seed))


def small_config(**kw):
    defaults = dict(in_channels=2, stem_channels=3,
                    stages=(StageSpec(blocks=1, channels=4, stride=2),),
                    embed_dim=3, min_width=2)
    defaults.update(kw)
    return TinyNetConfig(**defaults)


class TestBackboneStructure:
    def test_zero_input_zero_embedding(self):
        """Zero biases everywhere means a zero image embeds to the zero vector."""
        cfg = small_config()
        params = init_params(cfg, seed=0)
        emb = tinynet_embed(np.zeros((2, 4, 4, 2)), params, cfg)
        np.testing.assert_array_equal(emb, np.zeros((2, 3)))

    def test_unit_norm_output(self):
        cfg = small_config()
        params = init_params(cfg, seed=1)
        emb = tinynet_embed(rand((3, 4, 4, 2), 2), params, cfg)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0,
                                   rtol=1e-12)

    def test_duplicate_rows_embed_identically(self):
        cfg = small_config()
        params = init_params(cfg, seed=3)
        x = rand((1, 4, 4, 2), 4)
        batch = np.concatenate([x, x], axis=0)
        emb = tinynet_embed(batch, params, cfg)
        np.testing.assert_array_equal(emb[0], emb[1])

    def test_channel_mismatch(self):
        cfg = small_config()
        params = init_params(cfg, seed=5)
        with pytest.raises(T.ShapeError):
            tinynet_embed(rand((1, 4, 4, 3)), params, cfg)

    def test_indivisible_spatial_dims(self):
        cfg = small_config()
        params = init_params(cfg, seed=6)
        with pytest.raises(ValueError):
            tinynet_embed(rand((1, 5, 5, 2)), params, cfg)

    def test_traces_collected_per_block(self):
        cfg = small_config(stages=(StageSpec(2, 4, 2),))
        params = init_params(cfg, seed=7)
        tape = Tape()
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        traces = []
        tinynet_forward(tape, tape.leaf(rand((1, 4, 4, 2), 8)), leaves, cfg,
                        traces)
        assert [name for name, _ in traces] == ["s0b0", "s0b1"]
        assert set(traces[0][1]) == {"u1", "u2", "u3", "u4", "s", "z",
                                     "a_hat", "b_hat", "c"}


class TestForwardOnly:
    def test_embed_matches_recording_tape_and_records_nothing(self, monkeypatch):
        """tinynet_embed gives the bytes of a training forward, unrecorded."""
        from msconv import model
        cfg = small_config(stages=(StageSpec(2, 4, 2),))
        params = init_params(cfg, seed=9)
        x = rand((3, 4, 4, 2), 10)
        tape = Tape()
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        recorded = tinynet_forward(tape, tape.leaf(x), leaves, cfg).value
        assert tape._records

        tapes = []

        class SpyTape(Tape):
            def __init__(self, *args):
                super().__init__(*args)
                tapes.append(self)

        monkeypatch.setattr(model, "Tape", SpyTape)
        emb = tinynet_embed(x, params, cfg)
        assert emb.tobytes() == recorded.tobytes()
        assert len(tapes) == 1 and tapes[0]._records == []


class TestDepthFirstEmbed:
    """tinynet_embed walks the batch in chunks through one workspace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 33])
    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("kind", list(FusionKind), ids=lambda k: k.value)
    def test_bytes_match_one_pass(self, kind, size, n):
        """Desk model, even and uneven chunks: the bits of one pass over the
        whole batch."""
        cfg = TinyNetConfig().with_fusion(kind)
        params = init_params(cfg, seed=11)
        x = np.random.default_rng([n, size]).uniform(-1.0, 1.0,
                                                      (n, size, size, 3))
        got = tinynet_embed(x, params, cfg)
        assert got.tobytes() == one_shot_embed(x, params, cfg).tobytes()

    def test_embedding_survives_the_next_call(self):
        """A returned embedding holds no workspace memory."""
        cfg = TinyNetConfig()
        params = init_params(cfg, seed=12)
        first = tinynet_embed(rand((9, 32, 32, 3), 13), params, cfg)
        kept = first.copy()
        tinynet_embed(rand((9, 32, 32, 3), 14), params, cfg)
        assert first.tobytes() == kept.tobytes()

    def test_chunks_share_one_workspace(self, monkeypatch):
        """Every chunk's tape allocates from the first chunk's buffers."""
        from msconv import model
        tapes = []

        class SpyTape(Tape):
            def __init__(self, *args):
                super().__init__(*args)
                tapes.append(self)

        monkeypatch.setattr(model, "Tape", SpyTape)
        cfg = TinyNetConfig()
        tinynet_embed(rand((33, 32, 32, 3), 15), init_params(cfg, 16), cfg)
        assert len(tapes) == len(T._depth_chunks(33, 32 * 32 * 16 * 8)) == 2
        assert tapes[0]._workspace is tapes[1]._workspace
        # stem, both branches, the projection and the fused output
        assert len(tapes[0]._workspace) == 5
        assert all(t._records == [] for t in tapes)


class TestLayout:
    def test_block_layout_strides_and_widths(self):
        cfg = TinyNetConfig(in_channels=3, stem_channels=8,
                            stages=(StageSpec(2, 16, 2), StageSpec(1, 24, 2)),
                            embed_dim=8, min_width=2)
        layout = list(cfg.block_layout())
        assert layout == [
            ("s0b0", 8, 16, 2, FusionKind.MSCONV),
            ("s0b1", 16, 16, 1, FusionKind.MSCONV),
            ("s1b0", 16, 24, 2, FusionKind.MSCONV),
        ]
        assert cfg.total_stride() == 4

    def test_with_fusion_rewrites_every_stage(self):
        cfg = small_config(stages=(StageSpec(1, 4, 2), StageSpec(1, 4, 1)))
        swapped = cfg.with_fusion(FusionKind.NO_SO)
        assert all(s.kind is FusionKind.NO_SO for s in swapped.stages)
        assert cfg.stages[0].kind is FusionKind.MSCONV

    def test_projection_only_when_shape_changes(self):
        cfg = small_config(stages=(StageSpec(2, 3, 1),))
        params = init_params(cfg, seed=9)
        assert "s0b0/proj" not in params  # stride 1, 3 -> 3 channels
        cfg2 = small_config(stages=(StageSpec(1, 4, 1),))
        assert "s0b0/proj" in init_params(cfg2, seed=9)
        cfg3 = small_config(stages=(StageSpec(1, 3, 2),))
        assert "s0b0/proj" in init_params(cfg3, seed=9)

    def test_per_layer_streams_are_stable(self):
        """Adding a stage leaves earlier layers' initialization untouched."""
        one = init_params(small_config(), seed=10)
        two = init_params(small_config(
            stages=(StageSpec(1, 4, 2), StageSpec(1, 6, 1))), seed=10)
        np.testing.assert_array_equal(one["stem"], two["stem"])
        np.testing.assert_array_equal(one["s0b0/k3"], two["s0b0/k3"])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TinyNetConfig(stages=())
        with pytest.raises(ValueError):
            TinyNetConfig(embed_dim=0)
        with pytest.raises(ValueError):
            StageSpec(blocks=0, channels=4)
        with pytest.raises(ValueError):
            TinyNetConfig(dilations=(0, 2))


class TestCostModel:
    def test_network_flops_match_instrumented_counter(self):
        """Every cost row equals a scalar-loop count of the whole backbone."""
        cfg = small_config(stages=(
            StageSpec(1, 3, 1, FusionKind.MSCONV),
            StageSpec(1, 4, 2, FusionKind.SKCONV_REFERENCE)))
        params = init_params(cfg, seed=12)
        x = rand((6, 6, 2), 13)
        blocks = []
        for name, _, _, stride, kind in cfg.block_layout():
            st = MSConvState.from_params(
                {p: params[f"{name}/{p}"] for p in BLOCK_PARAM_NAMES},
                dilations=cfg.dilations, stride=stride,
                reduction=cfg.reduction, min_width=cfg.min_width)
            blocks.append((st, kind.value, params.get(f"{name}/proj")))
        emb, counter = counting_net_forward(x, params["stem"], blocks,
                                            params["w_embed"],
                                            params["b_embed"])
        rows = cost_rows(cfg, 6, 6)
        assert [r[0] for r in rows] == ["stem", "s0b0", "s0b0/add", "s1b0",
                                        "s1b0/proj", "s1b0/add", "head"]
        flops = {name: f for name, _, f in rows}
        assert flops["stem"] == counter.counts["stem"]
        assert flops["s1b0/proj"] == counter.counts["proj"]
        assert flops["s0b0/add"] + flops["s1b0/add"] == \
            counter.counts["residual_add"]
        assert flops["head"] == counter.counts["head"]
        assert sum(flops.values()) == counter.total()
        assert sum(p for _, p, _ in rows) == \
            sum(arr.size for arr in params.values())
        np.testing.assert_allclose(normalize_rows(emb[None]),
                                   tinynet_embed(x[None], params, cfg),
                                   rtol=0, atol=1e-12)


class TestBackboneGradients:
    def test_finite_differences_through_margin(self):
        cfg = small_config()
        params = init_params(cfg, seed=11)
        params["centers"] = rand((3, 3), 12)
        x = rand((2, 4, 4, 2), 13)
        labels = np.array([0, 2])
        loss_cfg = MarginLossConfig.cos(3, scale=8.0)

        def build(tape, leaves):
            model_leaves = {k: v for k, v in leaves.items() if k != "centers"}
            emb = tinynet_forward(tape, tape.leaf(x), model_leaves, cfg)
            centers = tape.l2_normalize_rows(leaves["centers"])
            return margin_ce_on_tape(tape, emb, centers, labels, loss_cfg)

        err = finite_diff_check(build, params)
        assert err < 1e-6, f"max relative error {err}"


class TestMarginLoss:
    def test_plain_equals_hand_cross_entropy(self):
        emb = unit_rows((4, 5), 20)
        centers = unit_rows((3, 5), 21)
        labels = np.array([0, 2, 1, 1])
        got = margin_loss(emb, labels, centers, MarginLossConfig.plain(3))
        logits = emb @ centers.T
        want = np.mean([
            math.log(np.sum(np.exp(logits[i] - logits[i, labels[i]])))
            for i in range(4)
        ])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_scaled_plain_sharpens(self):
        """Raising the scale moves the loss toward the hard argmax error."""
        emb = unit_rows((6, 4), 22)
        centers = unit_rows((3, 4), 23)
        labels = np.array([0, 1, 2, 0, 1, 2])
        losses = [margin_loss(emb, labels, centers,
                              MarginLossConfig.plain(3, scale=s))
                  for s in (1.0, 4.0, 16.0)]
        assert losses[0] != losses[1] != losses[2]

    def test_additive_cosine_margin_hand_case(self):
        """Two classes, embedding on its own center: psi = 1 - m3."""
        centers = np.eye(2)
        emb = np.array([[1.0, 0.0]])
        labels = np.array([0])
        s, m3 = 4.0, 0.35
        got = margin_loss(emb, labels, centers,
                          MarginLossConfig.cos(2, scale=s, m3=m3))
        target_logit = s * (1.0 - m3)
        other_logit = s * 0.0
        want = math.log(math.exp(target_logit) + math.exp(other_logit)) \
            - target_logit
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_angular_margin_hand_case(self):
        """Aligned embedding under the angle path: theta clamps near zero."""
        centers = np.eye(2)
        emb = np.array([[1.0, 0.0]])
        labels = np.array([0])
        s, m2 = 4.0, 0.5
        got = margin_loss(emb, labels, centers,
                          MarginLossConfig.arc(2, scale=s, m2=m2))
        theta = math.acos(COS_CLAMP)
        psi = math.cos(theta + m2)
        want = math.log(math.exp(s * psi) + 1.0) - s * psi
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_margin_increases_loss(self):
        emb = unit_rows((5, 6), 24)
        centers = unit_rows((4, 6), 25)
        labels = np.array([0, 1, 2, 3, 0])
        losses = [margin_loss(emb, labels, centers,
                              MarginLossConfig.cos(4, scale=8.0, m3=m3))
                  for m3 in (0.0, 0.2, 0.35)]
        assert losses[0] < losses[1] < losses[2]

    def test_zero_margin_cos_equals_plain(self):
        emb = unit_rows((4, 5), 26)
        centers = unit_rows((3, 5), 27)
        labels = np.array([2, 0, 1, 1])
        cos0 = margin_loss(emb, labels, centers,
                           MarginLossConfig(MarginKind.COS, 3, scale=7.0))
        plain = margin_loss(emb, labels, centers,
                            MarginLossConfig.plain(3, scale=7.0))
        assert cos0 == plain

    def test_batch_permutation_invariance(self):
        emb = unit_rows((6, 5), 28)
        centers = unit_rows((3, 5), 29)
        labels = np.array([0, 1, 2, 0, 1, 2])
        perm = np.array([4, 2, 0, 5, 1, 3])
        cfg = MarginLossConfig.combined(3, scale=8.0)
        np.testing.assert_allclose(
            margin_loss(emb, labels, centers, cfg),
            margin_loss(emb[perm], labels[perm], centers, cfg), rtol=1e-12)

    def test_loss_positive(self):
        for seed in range(5):
            emb = unit_rows((4, 6), 30 + seed)
            centers = unit_rows((5, 6), 40 + seed)
            labels = np.array([0, 1, 2, 3])
            assert margin_loss(emb, labels, centers,
                               MarginLossConfig.cos(5, scale=16.0)) > 0.0

    def test_validation_errors(self):
        emb = unit_rows((2, 4), 50)
        centers = unit_rows((3, 4), 51)
        cfg = MarginLossConfig.cos(3, scale=8.0)
        with pytest.raises(ValueError):
            margin_loss(emb, np.array([0, 3]), centers, cfg)  # label range
        with pytest.raises(ValueError):
            margin_loss(2.0 * emb, np.array([0, 1]), centers, cfg)  # norms
        with pytest.raises(T.ShapeError):
            margin_loss(emb, np.array([0, 1]), centers[:2], cfg)  # count
        with pytest.raises(T.ShapeError):
            margin_loss(emb, np.array([0]), centers, cfg)  # labels shape
        with pytest.raises(ValueError):
            MarginLossConfig(MarginKind.PLAIN, 3, m3=0.2)
        with pytest.raises(ValueError):
            MarginLossConfig(MarginKind.COS, 1)
        with pytest.raises(ValueError):
            MarginLossConfig(MarginKind.COS, 3, scale=0.0)

    @pytest.mark.parametrize("cfg", [
        MarginLossConfig.plain(3, scale=4.0),
        MarginLossConfig.cos(3, scale=6.0, m3=0.2),
        MarginLossConfig.arc(3, scale=5.0, m2=0.3),
        MarginLossConfig.combined(3, scale=5.0, m1=1.2, m2=0.2, m3=0.1),
    ])
    def test_gradients_match_finite_differences(self, cfg):
        labels = np.array([0, 2, 1])

        def build(tape, leaves):
            emb = tape.l2_normalize_rows(leaves["emb"])
            centers = tape.l2_normalize_rows(leaves["centers"])
            return margin_ce_on_tape(tape, emb, centers, labels, cfg)

        err = finite_diff_check(
            build, {"emb": rand((3, 5), 60), "centers": rand((3, 5), 61)})
        assert err < 1e-6, f"{cfg.kind}: max relative error {err}"

    def test_fused_op_backward_scales_with_seed(self):
        emb_v = unit_rows((3, 4), 62)
        centers_v = unit_rows((3, 4), 63)
        labels = np.array([0, 1, 2])
        cfg = MarginLossConfig.cos(3, scale=8.0)
        grads = []
        for seed in (1.0, 3.0):
            tape = Tape()
            emb, centers = tape.leaf(emb_v), tape.leaf(centers_v)
            loss = margin_ce_on_tape(tape, emb, centers, labels, cfg)
            grads.append(tape.backward(loss, seed=seed)[emb])
        np.testing.assert_allclose(grads[1], 3.0 * grads[0], rtol=1e-15)


class TestScoringHelpers:
    def test_cosine_scores_shape_and_values(self):
        emb = unit_rows((4, 3), 70)
        centers = unit_rows((5, 3), 71)
        scores = cosine_scores(emb, centers)
        assert scores.shape == (4, 5)
        np.testing.assert_allclose(scores[2, 3],
                                   float(emb[2] @ centers[3]), rtol=1e-15)

    def test_normalize_rows_zero_row_stays_zero(self):
        rows = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = normalize_rows(rows)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8], rtol=1e-15)
