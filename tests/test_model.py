"""Backbone and margin-loss tests.

The backbone is checked structurally (zero propagation, batch independence,
unit-norm output, layout bookkeeping) and its analytic gradients against
central differences.  The margin losses are checked against hand-evaluated
scalar cases and an independent log-sum-exp evaluation.
"""

import hashlib
import itertools
import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msconv import tensor as T
from msconv.autograd import Tape, finite_diff_check
from msconv.block import BLOCK_PARAM_NAMES, FusionKind, MSConvState
from msconv.model import (COS_CLAMP, MarginKind, MarginLossConfig, StageSpec,
                          TinyNetConfig, cost_rows, init_params,
                          margin_ce_on_tape, margin_loss, normalize_rows,
                          param_shapes, tinynet_embed, tinynet_forward)
from msconv.train import RunConfig, full_init
from oracles import counting_net_forward, one_shot_embed, planned_embed

of_kind = MarginLossConfig.of_kind
PLAIN, ARC, COS, COMBINED = (MarginKind.PLAIN, MarginKind.ARC, MarginKind.COS,
                             MarginKind.COMBINED)


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, shape)


def unit_rows(shape, seed=0):
    return normalize_rows(rand(shape, seed))


def meet_two_workers(monkeypatch):
    """tinynet_embed runs on two workers, whose first two chunks wait for
    each other (10 s at most), so each worker runs a chunk."""
    from msconv import model
    monkeypatch.setattr(model, "_cores", lambda: 2)
    barrier, calls = threading.Barrier(2, timeout=10), itertools.count()
    forward = model.tinynet_forward

    def meet(tape, x, params, cfg):
        if next(calls) < 2:
            barrier.wait()
        return forward(tape, x, params, cfg)

    monkeypatch.setattr(model, "tinynet_forward", meet)


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
        assert set(traces[0][1]) == {"u1", "u2", "s", "z", "a_hat", "b_hat",
                                     "c"}


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

    def test_one_workspace_per_worker(self, monkeypatch):
        """Two workers each run one chunk at the same time, each on its own
        workspace; a workspace stops growing after its worker's first
        chunk, and every tape records nothing."""
        from msconv import model
        meet_two_workers(monkeypatch)
        tapes = []

        class SpyTape(model.Tape):
            def __init__(self, workspace):
                tapes.append((self, threading.get_ident(), list(workspace)))
                super().__init__(workspace)

        monkeypatch.setattr(model, "Tape", SpyTape)
        cfg = TinyNetConfig()
        tinynet_embed(rand((65, 32, 32, 3), 15), init_params(cfg, 16), cfg)
        assert len(tapes) == len(T.even_chunks(65, 16)) == 5
        workers = {}
        for tape, thread, _ in tapes:
            assert workers.setdefault(thread, tape._workspace) is tape._workspace
        assert len(workers) == 2
        for workspace in workers.values():
            # stem, both branches, the projection and the fused output
            assert len(workspace) == 5
            later = [seen for tape, _, seen in tapes
                     if tape._workspace is workspace][1:]
            for seen in later:
                assert all(a is b for a, b in zip(seen, workspace, strict=True))
        assert all(tape._records == [] for tape, _, _ in tapes)

    @staticmethod
    def chunk_sizes(monkeypatch, n, size, batch_size=None, cores=2):
        """Images per network pass, in image order, when tinynet_embed runs
        ``n`` desk images of ``size`` x ``size`` on ``cores`` workers."""
        from msconv import model
        starts = []

        def spy(tape, x, params, cfg):
            # every pixel of image i holds i
            starts.append((int(x.value[0, 0, 0, 0]), x.value.shape[0]))
            return tinynet_forward(tape, x, params, cfg)

        monkeypatch.setattr(model, "tinynet_forward", spy)
        monkeypatch.setattr(model, "_cores", lambda: cores)
        cfg = TinyNetConfig()
        x = np.arange(n, dtype=np.float64).repeat(size * size * 3)
        tinynet_embed(x.reshape(n, size, size, 3), init_params(cfg, 17), cfg,
                      batch_size)
        return [count for _, count in sorted(starts)]

    @pytest.mark.parametrize("size,images", [(64, 4), (32, 16)])
    def test_desk_stem_chunk_sizes(self, monkeypatch, size, images):
        """The desk stem (16 float64 channels) fills 2 MiB at 4 images of
        64x64 and 16 of 32x32; a batch size of 32 does not raise that."""
        sizes = self.chunk_sizes(monkeypatch, 32, size, batch_size=32)
        assert sizes == [images] * (32 // images)

    def test_batch_past_one_step_splits(self, monkeypatch):
        """20 images at 32x32 (a step of 16) run as two chunks of 10, not
        as one chunk larger than the step."""
        assert self.chunk_sizes(monkeypatch, 20, 32) == [10, 10]

    def test_batch_size_caps_chunks(self, monkeypatch):
        """A batch size below the depth step splits by the batch size."""
        assert self.chunk_sizes(monkeypatch, 33, 32, batch_size=8) == \
            [7, 7, 7, 6, 6]

    @pytest.mark.parametrize("cores", [1, 3, 8])
    def test_plan_does_not_depend_on_cores(self, monkeypatch, cores):
        """The chunks are the same on any number of workers."""
        for n, size, batch_size in [(32, 64, 32), (20, 32, None), (33, 32, 8)]:
            assert self.chunk_sizes(monkeypatch, n, size, batch_size, cores) \
                == self.chunk_sizes(monkeypatch, n, size, batch_size, 2)


# (config, images, image size, depth step): the desk model at both desk
# sizes, and a narrow one (a gate of width 2) whose bits at 129 and 130
# images need not equal one pass over the set (see the tensor module
# docstring) but are fixed by the chunk plan
NARROW = TinyNetConfig(in_channels=2, stem_channels=8,
                       stages=(StageSpec(2, 16, 2),), embed_dim=8, min_width=2)
PLANS = {"desk-32": (TinyNetConfig(), 33, 32, 16),
         "desk-64": (TinyNetConfig(), 18, 64, 4),
         "narrow-70": (NARROW, 70, 16, 128),
         "narrow-129": (NARROW, 129, 16, 128),
         "narrow-130": (NARROW, 130, 16, 128)}


class TestWorkers:
    """tinynet_embed's chunks on one worker per core: the same bytes on any
    number of workers, and failures reach the caller."""

    @pytest.mark.parametrize("plan", list(PLANS))
    @pytest.mark.parametrize("kind", [FusionKind.MSCONV,
                                      FusionKind.SKCONV_REFERENCE],
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_bytes_follow_the_plan(self, monkeypatch, cores, kind, plan):
        """The bits of the chunks run one after another on one thread."""
        from msconv import model
        cfg, n, size, step = PLANS[plan]
        cfg = cfg.with_fusion(kind)
        params = init_params(cfg, seed=3)
        x = rand((n, size, size, cfg.in_channels), 4)
        monkeypatch.setattr(model, "_cores", lambda: cores)
        assert tinynet_embed(x, params, cfg).tobytes() == \
            planned_embed(x, params, cfg, step).tobytes()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_earliest_failed_chunk_raises(self, monkeypatch, cores):
        """Chunks 1 and 2 of three fail, at once when three workers run
        them; the call raises chunk 1's error only once the slow chunk 0
        has finished."""
        from msconv import model
        monkeypatch.setattr(model, "_cores", lambda: cores)
        barrier, calls = threading.Barrier(cores, timeout=10), itertools.count()
        done = []

        def spy(tape, x, params, cfg):
            start = int(x.value[0, 0, 0, 0])
            if next(calls) < cores:
                barrier.wait()
            if start:
                raise ValueError(f"chunk at image {start}")
            time.sleep(0.2)
            done.append(start)
            return tinynet_forward(tape, x, params, cfg)

        monkeypatch.setattr(model, "tinynet_forward", spy)
        cfg = TinyNetConfig()
        x = np.arange(33, dtype=np.float64).repeat(32 * 32 * 3)
        with pytest.raises(ValueError, match="^chunk at image 11$"):
            tinynet_embed(x.reshape(33, 32, 32, 3), init_params(cfg, 5), cfg)
        assert done == [0]

    def test_every_chunk_runs_once_under_stress(self, monkeypatch):
        """Eight workers on 100 two-image chunks, switching threads every
        microsecond: each chunk runs once and lands in its own slot."""
        from msconv import model
        monkeypatch.setattr(model, "_cores", lambda: 8)
        starts = []

        def spy(tape, x, params, cfg):
            starts.append(int(x.value[0, 0, 0, 0]))
            return tinynet_forward(tape, x, params, cfg)

        monkeypatch.setattr(model, "tinynet_forward", spy)
        cfg = small_config()
        params = init_params(cfg, seed=12)
        x = np.arange(200, dtype=np.float64).repeat(8 * 8 * 2)
        x = x.reshape(200, 8, 8, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = tinynet_embed(x, params, cfg, batch_size=2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(starts) == list(range(0, 200, 2))
        assert got.tobytes() == planned_embed(x, params, cfg, 2).tobytes()

    def test_non_finite_reaches_the_caller(self, monkeypatch):
        """Under debug checks a NaN parameter raises NonFiniteError from
        the workers, and the next call gives the planned bytes."""
        monkeypatch.setattr(T, "_debug_checks", False)
        meet_two_workers(monkeypatch)
        cfg = TinyNetConfig()
        params = init_params(cfg, seed=6)
        x = rand((33, 32, 32, 3), 7)
        broken = dict(params, stem=params["stem"].copy())
        broken["stem"][0, 0, 0, 0] = np.nan
        T.set_debug_checks(True)
        with pytest.raises(T.NonFiniteError):
            tinynet_embed(x, broken, cfg)
        assert tinynet_embed(x, params, cfg).tobytes() == \
            planned_embed(x, params, cfg, 16).tobytes()

    def test_helpers_keep_the_caller_error_state(self, monkeypatch):
        """An overflow in a pool thread's chunk under the caller's
        ``np.errstate(all="ignore")`` warns nowhere."""
        meet_two_workers(monkeypatch)
        cfg = TinyNetConfig()
        x = np.full((33, 32, 32, 3), 1e300)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tinynet_embed(x, init_params(cfg, seed=8), cfg)
        assert not np.isfinite(got).all()

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_worker_outlives_the_call(self, monkeypatch, fails):
        """No ``msconv-embed`` thread is alive once a call that ran chunks
        on two threads has returned or raised."""
        monkeypatch.setattr(T, "_debug_checks", fails)
        meet_two_workers(monkeypatch)
        cfg = TinyNetConfig()
        params = init_params(cfg, seed=11)
        if fails:
            params["stem"][0, 0, 0, 0] = np.nan
        try:
            tinynet_embed(rand((33, 32, 32, 3), 12), params, cfg)
        except T.NonFiniteError:
            assert fails
        else:
            assert not fails
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("msconv-embed")] == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_embeds(self, monkeypatch):
        """A child forked after a call that ran on two threads embeds the
        same bytes; a hang fails after 30 s."""
        meet_two_workers(monkeypatch)
        cfg = TinyNetConfig()
        params = init_params(cfg, seed=9)
        x = rand((33, 32, 32, 3), 10)
        want = tinynet_embed(x, params, cfg).tobytes()
        pid = os.fork()
        if pid == 0:
            same = False
            try:
                meet_two_workers(monkeypatch)
                same = tinynet_embed(x, params, cfg).tobytes() == want
            finally:
                os._exit(0 if same else 1)
        deadline = time.monotonic() + 30
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's embed call hung")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(done[1]) == 0


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
        assert swapped == small_config(stages=cfg.stages,
                                       fusion=FusionKind.NO_SO)
        assert [k for *_, k in swapped.block_layout()] == [FusionKind.NO_SO] * 2
        assert cfg.fusion is FusionKind.MSCONV

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
    @pytest.mark.parametrize(
        "kind", [FusionKind.MSCONV, FusionKind.SKCONV_REFERENCE],
        ids=lambda k: k.value)
    def test_network_flops_match_instrumented_counter(self, kind):
        """Every cost row equals a scalar-loop count of the whole backbone."""
        cfg = small_config(stages=(StageSpec(1, 3, 1), StageSpec(1, 4, 2)),
                           fusion=kind)
        params = init_params(cfg, seed=12)
        x = rand((6, 6, 2), 13)
        blocks = []
        for name, _, _, stride, kind in cfg.block_layout():
            blocks.append(({p: params[f"{name}/{p}"] for p in BLOCK_PARAM_NAMES},
                           stride, kind.value, params.get(f"{name}/proj")))
        emb, counter = counting_net_forward(x, params["stem"], blocks,
                                            params["w_embed"],
                                            params["b_embed"], cfg.dilations)
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


    def test_params_column_reads_the_shape_table(self, no_param_draws):
        """A two-stage 256/512 model is costed without drawing a weight."""
        cfg = TinyNetConfig(stages=(StageSpec(1, 256, 2), StageSpec(1, 512, 2)))
        rows = cost_rows(cfg, 64, 64)
        assert sum(p for _, p, _ in rows) == \
            sum(math.prod(shape) for shape in param_shapes(cfg).values())
        assert dict((n, p) for n, p, _ in rows)["s1b0/proj"] == 256 * 512
        with pytest.raises(AssertionError, match="drew weights"):
            init_params(cfg, 0)


@st.composite
def tiny_net_configs(draw):
    """Small backbones over every TinyNetConfig field that shapes a
    parameter, with and without projections."""
    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    return TinyNetConfig(
        in_channels=ints(1, 4), stem_channels=ints(1, 12),
        stages=tuple(StageSpec(ints(1, 2), ints(1, 12), ints(1, 2))
                     for _ in range(ints(1, 3))),
        embed_dim=ints(1, 8), dilations=(ints(1, 3), ints(1, 3)),
        reduction=ints(1, 8), min_width=ints(1, 6),
        fusion=draw(st.sampled_from(FusionKind)))


class TestParamShapes:
    @settings(max_examples=100, deadline=None)
    @given(tiny_net_configs(), st.integers(0, 2**32 - 1))
    def test_table_matches_drawn_params(self, cfg, seed):
        """Same names, order and shapes as the drawn parameter set; a
        projection exactly where a block changes stride or width."""
        shapes = param_shapes(cfg)
        params = init_params(cfg, seed)
        assert list(shapes) == list(params)
        assert all(params[k].shape == shape for k, shape in shapes.items())
        for name, c_in, c_out, stride, _ in cfg.block_layout():
            assert (f"{name}/proj" in shapes) == (stride != 1 or c_in != c_out)


def digest(params):
    """sha256 over every array's name, shape, dtype and bytes, in order."""
    h = hashlib.sha256()
    for name, arr in params.items():
        for part in (name, str(arr.shape), str(arr.dtype)):
            h.update(part.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


TWO_STAGE = TinyNetConfig(stages=(StageSpec(2, 24, 2), StageSpec(1, 40, 2)),
                          embed_dim=16, min_width=4, reduction=4,
                          dilations=(1, 3))
GRADCHECK_BACKBONE = TinyNetConfig(
    in_channels=2, stem_channels=4,
    stages=(StageSpec(blocks=2, channels=6, stride=2),), embed_dim=5,
    min_width=2)
NO_PROJ = TinyNetConfig(in_channels=1, stem_channels=8,
                        stages=(StageSpec(2, 8, 1),), embed_dim=4,
                        min_width=2)


class TestInitBytes:
    """Initial weights are pinned to the bytes drawn before the shape table
    (one draw per array from MSConvState.init and hand-written shapes)."""

    @pytest.mark.parametrize("cfg,seed,want", [
        (TinyNetConfig(), 0, "91973e8f134a88acb7600645388b2010"
                             "d1a9d6e28bd0d08d1b3421e0572c3551"),
        (TinyNetConfig(), 7, "03522436c15446c53e6d5d95d51bde06"
                             "7a5862c1645aefbe40684fcedda48cd1"),
        (TWO_STAGE, 0, "61abaaa0f10cafb9167cca41fcdacd59"
                       "3782b7531538d55fb6db0321bbfc869f"),
        (GRADCHECK_BACKBONE, 0, "df179fff809195e82a78f226ed45a56c"
                                "7d2a4fd949d0ceec0a0e96af4e0d1a05"),
        (NO_PROJ, 7, "d211ef13a82f01214660fb77b35cc068"
                     "28a0b2877782218637a4232d1ea92aba"),
    ], ids=["desk-0", "desk-7", "two_stage", "gradcheck", "no_proj"])
    def test_init_params(self, cfg, seed, want):
        assert digest(init_params(cfg, seed)) == want

    def test_full_init(self):
        assert digest(full_init(RunConfig())) == (
            "e2e1db8f6df5a2aa9bed8a23fb0ef9cc561c080f7409c6df8007ec2635c4472d")
        run = RunConfig(model=TWO_STAGE, seed=3,
                        loss=MarginLossConfig.of_kind(ARC, 10))
        assert digest(full_init(run)) == (
            "ac47fbce98dc45223c1cf04f0634c67282a32a72688fdb3fec5e56db59eb7a09")

    @pytest.mark.parametrize("args,kw,want", [
        ((3, 4), dict(seed=2, min_width=2),
         "f3ff56f118b94d23f5d9f055c1b36afe8400b22bed99e765ed283417cecf5070"),
        ((16, 32), dict(seed=0),
         "f69133b2209807310321efd0c4fc4ccffe1cf18f643759c93afe360b0cf51896"),
        ((6, 8), dict(seed=8, tag="s0b1", stride=2, reduction=2, min_width=1),
         "6510356dabd7267270f540eda8ac1d433ab0e22a3cdd4fb1e76c397379950ddc"),
    ], ids=["small", "desk", "tagged"])
    def test_block_state(self, args, kw, want):
        assert digest(MSConvState.init(*args, **kw).params) == want


class TestBackboneGradients:
    def test_finite_differences_through_margin(self):
        cfg = small_config()
        params = init_params(cfg, seed=11)
        params["centers"] = rand((3, 3), 12)
        x = rand((2, 4, 4, 2), 13)
        labels = np.array([0, 2])
        loss_cfg = of_kind(COS, 3, scale=8.0)

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
        got = margin_loss(emb, labels, centers,
                          of_kind(PLAIN, 3, scale=1.0))
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
                              of_kind(PLAIN, 3, scale=s))
                  for s in (1.0, 4.0, 16.0)]
        assert losses[0] != losses[1] != losses[2]

    def test_additive_cosine_margin_hand_case(self):
        """Two classes, embedding on its own center: psi = 1 - m3."""
        centers = np.eye(2)
        emb = np.array([[1.0, 0.0]])
        labels = np.array([0])
        s, m3 = 4.0, 0.35
        got = margin_loss(emb, labels, centers,
                          of_kind(COS, 2, scale=s, m3=m3))
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
                          of_kind(ARC, 2, scale=s, m2=m2))
        theta = math.acos(COS_CLAMP)
        psi = math.cos(theta + m2)
        want = math.log(math.exp(s * psi) + 1.0) - s * psi
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_margin_increases_loss(self):
        emb = unit_rows((5, 6), 24)
        centers = unit_rows((4, 6), 25)
        labels = np.array([0, 1, 2, 3, 0])
        losses = [margin_loss(emb, labels, centers,
                              of_kind(COS, 4, scale=8.0, m3=m3))
                  for m3 in (0.0, 0.2, 0.35)]
        assert losses[0] < losses[1] < losses[2]

    def test_zero_margin_cos_equals_plain(self):
        emb = unit_rows((4, 5), 26)
        centers = unit_rows((3, 5), 27)
        labels = np.array([2, 0, 1, 1])
        cos0 = margin_loss(emb, labels, centers,
                           MarginLossConfig(MarginKind.COS, 3, scale=7.0))
        plain = margin_loss(emb, labels, centers,
                            of_kind(PLAIN, 3, scale=7.0))
        assert cos0 == plain

    def test_batch_permutation_invariance(self):
        emb = unit_rows((6, 5), 28)
        centers = unit_rows((3, 5), 29)
        labels = np.array([0, 1, 2, 0, 1, 2])
        perm = np.array([4, 2, 0, 5, 1, 3])
        cfg = of_kind(COMBINED, 3, scale=8.0)
        np.testing.assert_allclose(
            margin_loss(emb, labels, centers, cfg),
            margin_loss(emb[perm], labels[perm], centers, cfg), rtol=1e-12)

    def test_loss_positive(self):
        for seed in range(5):
            emb = unit_rows((4, 6), 30 + seed)
            centers = unit_rows((5, 6), 40 + seed)
            labels = np.array([0, 1, 2, 3])
            assert margin_loss(emb, labels, centers,
                               of_kind(COS, 5, scale=16.0)) > 0.0

    def test_validation_errors(self):
        emb = unit_rows((2, 4), 50)
        centers = unit_rows((3, 4), 51)
        cfg = of_kind(COS, 3, scale=8.0)
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
        of_kind(PLAIN, 3, scale=4.0),
        of_kind(COS, 3, scale=6.0, m3=0.2),
        of_kind(ARC, 3, scale=5.0, m2=0.3),
        of_kind(COMBINED, 3, scale=5.0, m1=1.2, m2=0.2, m3=0.1),
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
        cfg = of_kind(COS, 3, scale=8.0)
        grads = []
        for seed in (1.0, 3.0):
            tape = Tape()
            emb, centers = tape.leaf(emb_v), tape.leaf(centers_v)
            loss = margin_ce_on_tape(tape, emb, centers, labels, cfg)
            grads.append(tape.backward(loss, seed=seed)[emb])
        np.testing.assert_allclose(grads[1], 3.0 * grads[0], rtol=1e-15)


class TestScoringHelpers:
    def test_normalize_rows_zero_row_stays_zero(self):
        rows = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = normalize_rows(rows)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8], rtol=1e-15)
