"""Schedule, optimizer, training-loop, config, and checkpoint tests."""

import dataclasses
import math
import multiprocessing
import os
import pickle
import re
import sys
import tracemalloc
from contextlib import closing
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from msconv import msct, tensor as T
from msconv.autograd import Tape
from msconv.block import FusionKind
from msconv.data import SyntheticSpec, gen_synthetic
from msconv.model import (MarginKind, MarginLossConfig, StageSpec,
                          TinyNetConfig, Workers, depth_step, init_params,
                          margin_ce_on_tape, param_shapes, tinynet_embed,
                          tinynet_forward)
from msconv.train import (CONFIG_KEYS, PAIR_BLOCK, ConfigError, RunConfig,
                          TrainingDivergedError, ablation_run,
                          build_config, config_to_lines,
                          embed_dataset, evaluate_verification,
                          format_ablation_report, full_init, load_checkpoint,
                          lr_at, read_kv_file, run_tensor_shapes,
                          save_checkpoint, sgd_step, train, verification_set)
from oracles import one_shot_embed, one_shot_verification
from test_model import (assert_on_workers, assert_one_workspace_per_worker,
                        log_passes, plan_images, spy_on_forks)

# the module; ``msconv.train`` as a package attribute is the function
train_module = sys.modules["msconv.train"]


def tiny_config(**kw):
    defaults = dict(
        data=SyntheticSpec(identity_count=3, samples_per_identity=6,
                           height=8, width=8, channels=2, noise_sigma=0.05,
                           shift_range=1, seed=0),
        model=TinyNetConfig(in_channels=2, stem_channels=4,
                            stages=(StageSpec(1, 6, 2),), embed_dim=8,
                            min_width=2),
        loss=MarginLossConfig.of_kind(MarginKind.COS, 3, scale=16.0),
        batch_size=6, epochs=2, lr_init=0.05, lr_min=1e-4)
    defaults.update(kw)
    return RunConfig(**defaults)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@st.composite
def run_configs(draw):
    """RunConfigs the constructor accepts, over every field of the config text.

    The image size is a multiple of the drawn stages' total stride.  Width
    and model in_channels are drawn apart from height and data channels
    half the time, so configs the flat text cannot carry are generated too;
    RunConfig must reject those.
    """
    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    def floats(lo, hi):
        return draw(st.floats(lo, hi))

    def either(same, lo, hi):
        return draw(st.one_of(st.just(same), st.integers(lo, hi)))

    identities, channels = ints(2, 50), ints(1, 4)
    stages = tuple(StageSpec(ints(1, 3), ints(1, 64), ints(1, 3))
                   for _ in range(ints(1, 3)))
    stride = math.prod(stage.stride for stage in stages)
    size = stride * ints(1, 64 // stride)
    data = SyntheticSpec(
        identity_count=identities, samples_per_identity=ints(1, 20),
        height=size, width=either(size, 1, 64), channels=channels,
        noise_sigma=floats(0.0, 2.0), shift_range=ints(0, 5),
        seed=ints(0, 2**32))
    model = TinyNetConfig(
        in_channels=either(channels, 1, 4), stem_channels=ints(1, 64),
        stages=stages,
        embed_dim=ints(1, 128), dilations=(ints(1, 4), ints(1, 4)),
        reduction=ints(1, 32), min_width=ints(1, 64))
    kind = draw(st.sampled_from(MarginKind))
    margins = {} if kind is MarginKind.PLAIN else dict(
        m1=floats(1e-3, 4.0), m2=floats(0.0, 1.0), m3=floats(0.0, 1.0))
    lr_min = floats(1e-9, 0.5)
    try:
        return RunConfig(
            data=data, model=model,
            loss=MarginLossConfig(kind, identities,
                                  scale=floats(1e-3, 128.0), **margins),
            fusion=draw(st.sampled_from(FusionKind)),
            lr_init=draw(st.floats(lr_min, 1.0, exclude_min=True)),
            lr_min=lr_min,
            momentum=draw(st.floats(0.0, 1.0, exclude_max=True)),
            weight_decay=floats(0.0, 0.1), batch_size=ints(1, 256),
            epochs=ints(0, 100), seed=ints(0, 2**32))
    except ValueError:
        reject()


class TestLRSchedule:
    """lr_at(cfg, T, t) anneals cfg.lr_init to cfg.lr_min over T steps."""

    @pytest.mark.parametrize("total", [1, 10, 10_000, 12_345])
    def test_endpoints_exact(self, total):
        cfg = RunConfig()
        assert lr_at(cfg, total, 0) == 0.02
        assert lr_at(cfg, total, total) == 5e-6

    def test_matches_cosine_rule(self):
        cfg = RunConfig(lr_init=0.02, lr_min=5e-6)
        for t in (1, 250, 500, 750, 999):
            want = 5e-6 + (0.02 - 5e-6) * math.cos(math.pi * t / 2000.0)
            np.testing.assert_allclose(lr_at(cfg, 1000, t), want, rtol=1e-12)

    def test_strictly_decreasing(self):
        cfg = RunConfig()
        values = [lr_at(cfg, 10_000, t) for t in range(10_001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounded(self):
        cfg = RunConfig(lr_init=0.1, lr_min=1e-5)
        for t in range(0, 778, 7):
            assert 1e-5 <= lr_at(cfg, 777, t) <= 0.1

    def test_step_domain(self):
        cfg = RunConfig()
        for t in (-1, 11):
            with pytest.raises(ValueError, match=rf"^step {t} outside "
                               r"\[0, 10\]$"):
                lr_at(cfg, 10, t)

    def test_schedule_validation(self):
        """A run of fewer than one step has no schedule; RunConfig rejects
        an lr_min outside (0, lr_init)."""
        for total in (0, -3):
            with pytest.raises(ValueError,
                               match="^schedule needs at least one step$"):
                lr_at(RunConfig(), total, 0)
        with pytest.raises(ValueError):
            RunConfig(lr_init=1e-6, lr_min=1e-5)
        with pytest.raises(ValueError):
            RunConfig(lr_init=0.02, lr_min=0.0)


class TestSGDStep:
    def cfg(self, momentum=0.0, weight_decay=0.0):
        return tiny_config(momentum=momentum, weight_decay=weight_decay)

    def test_plain_gradient_step(self):
        p = {"w": np.array([1.0, 2.0])}
        g = {"w": np.array([0.5, -1.0])}
        v = {"w": np.zeros(2)}
        new_p, new_v = sgd_step(p, g, v, self.cfg(), lr=0.1)
        np.testing.assert_array_equal(new_p["w"], [0.95, 2.1])
        np.testing.assert_array_equal(new_v["w"], g["w"])

    def test_weight_decay_skips_biases(self):
        p = {"w_fc": np.array([1.0]), "blk/b_fc": np.array([1.0]),
             "b_embed": np.array([1.0])}
        g = {k: np.zeros(1) for k in p}
        v = {k: np.zeros(1) for k in p}
        new_p, _ = sgd_step(p, g, v, self.cfg(weight_decay=0.1), lr=1.0)
        np.testing.assert_array_equal(new_p["w_fc"], [0.9])
        np.testing.assert_array_equal(new_p["blk/b_fc"], [1.0])
        np.testing.assert_array_equal(new_p["b_embed"], [1.0])

    def test_momentum_two_step_expansion(self):
        cfg = self.cfg(momentum=0.5)
        p = {"w": np.array([1.0])}
        v = {"w": np.zeros(1)}
        g1, g2 = {"w": np.array([0.2])}, {"w": np.array([0.1])}
        p1, v1 = sgd_step(p, g1, v, cfg, lr=0.1)
        p2, v2 = sgd_step(p1, g2, v1, cfg, lr=0.1)
        np.testing.assert_allclose(v1["w"], [0.2], rtol=1e-15)
        np.testing.assert_allclose(p1["w"], [1.0 - 0.1 * 0.2], rtol=1e-15)
        np.testing.assert_allclose(v2["w"], [0.5 * 0.2 + 0.1], rtol=1e-15)
        np.testing.assert_allclose(p2["w"], [0.98 - 0.1 * 0.2], rtol=1e-15)

    def test_inputs_not_mutated(self):
        p = {"w": np.array([1.0])}
        g = {"w": np.array([2.0])}
        v = {"w": np.array([3.0])}
        new_p, new_v = sgd_step(p, g, v, self.cfg(momentum=0.9), lr=0.1)
        np.testing.assert_array_equal(p["w"], [1.0])
        np.testing.assert_array_equal(g["w"], [2.0])
        np.testing.assert_array_equal(v["w"], [3.0])
        assert new_p["w"] is not p["w"] and new_v["w"] is not v["w"]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)},
                     {"w": np.zeros(2)}, self.cfg(), lr=0.1)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(lr_init=1e-5, lr_min=1e-4)
        with pytest.raises(ValueError):
            tiny_config(momentum=1.0)
        with pytest.raises(ValueError):
            tiny_config(weight_decay=-0.1)
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)
        with pytest.raises(ValueError):
            tiny_config(epochs=-1)
        with pytest.raises(ValueError, match="^loss.class_count must equal "
                           "data.identity_count: config key 'identities' "
                           "sets both$"):
            tiny_config(loss=MarginLossConfig.of_kind(MarginKind.COS, 4,
                                                      scale=16.0))

    def test_shapes_the_config_text_cannot_carry(self):
        with pytest.raises(ValueError, match="^data.width must equal "
                           "data.height: config key 'image_size' sets both$"):
            tiny_config(data=SyntheticSpec(identity_count=3, height=8,
                                           width=6, channels=2))
        with pytest.raises(ValueError, match="^model.in_channels must equal "
                           "data.channels: config key 'channels' sets both$"):
            tiny_config(data=SyntheticSpec(identity_count=3, height=8,
                                           width=8, channels=3))

    def test_desk_defaults(self):
        cfg = RunConfig()
        assert cfg.data.identity_count == 10
        assert cfg.data.samples_per_identity == 50
        assert (cfg.data.height, cfg.data.width, cfg.data.channels) == (32, 32, 3)
        assert cfg.model.stem_channels == 16
        assert cfg.model.embed_dim == 64
        assert (cfg.lr_init, cfg.lr_min) == (0.02, 5e-6)
        assert (cfg.momentum, cfg.weight_decay) == (0.9, 5e-4)
        assert (cfg.batch_size, cfg.epochs) == (32, 20)
        assert cfg.loss.kind is MarginKind.COS
        assert (cfg.loss.scale, cfg.loss.m3) == (16.0, 0.35)

    def test_model_carries_the_run_fusion(self):
        """Every block of the run's model has the run's fusion kind, also
        after ``replace``."""
        model = TinyNetConfig(stages=(StageSpec(1, 8, 1), StageSpec(2, 16, 2)))
        cfg = RunConfig(model=model, fusion=FusionKind.NO_SO)
        assert [k for *_, k in cfg.model.block_layout()] == \
            [FusionKind.NO_SO] * 3
        assert replace(cfg, fusion=FusionKind.SKCONV_REFERENCE).model.fusion \
            is FusionKind.SKCONV_REFERENCE
        assert RunConfig(model=model) == RunConfig(
            model=replace(model, fusion=FusionKind.NO_SO))


class TestTrainLoop:
    def test_zero_epochs_returns_init(self):
        cfg = tiny_config(epochs=0)
        res = train(cfg)
        assert res.log_lines == [] and res.epoch_losses == []
        init = full_init(cfg)
        assert set(res.params) == set(init)
        for k, arr in init.items():
            np.testing.assert_array_equal(res.params[k], arr)

    def test_constant_images_keep_gradient_bytes(self):
        """One desk step: parameter gradients are the same bytes whether the
        images enter the tape as a leaf or as a constant."""
        cfg = RunConfig()
        ds = gen_synthetic(cfg.data)
        params = full_init(cfg)
        grads = []
        for enter in (Tape.leaf, Tape.constant):
            tape = Tape()
            leaves = {k: tape.leaf(v) for k, v in params.items()}
            images = enter(tape, ds.images[:cfg.batch_size])
            emb = tinynet_forward(tape, images, leaves, cfg.model)
            centers = tape.l2_normalize_rows(leaves["centers"])
            loss = margin_ce_on_tape(tape, emb, centers,
                                     ds.labels[:cfg.batch_size], cfg.loss)
            g = tape.backward(loss)
            grads.append({k: g[v].tobytes() for k, v in leaves.items()})
            assert g[images].any() == (enter is Tape.leaf)
        assert grads[0] == grads[1]

    def test_runs_are_byte_identical(self):
        a, b = train(tiny_config()), train(tiny_config())
        assert a.log_lines == b.log_lines
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()

    def test_loss_decreases(self):
        res = train(tiny_config(epochs=3))
        assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_log_line_format_round_trips(self):
        res = train(tiny_config())
        for i, line in enumerate(res.log_lines):
            fields = dict(part.split("=") for part in line.split())
            assert fields["epoch"] == str(i + 1)
            assert float(fields["loss"]) == res.epoch_losses[i]
            assert float(fields["acc"]) == res.epoch_accs[i]
            assert float(fields["lr"]) > 0

    def test_init_snapshot_preserved(self):
        cfg = tiny_config()
        res = train(cfg)
        fresh = full_init(cfg)
        for k, arr in fresh.items():
            np.testing.assert_array_equal(res.init[k], arr)
            assert res.params[k].tobytes() != arr.tobytes()

    def test_explicit_dataset_matches_generated(self):
        cfg = tiny_config()
        a = train(cfg)
        b = train(cfg, dataset=gen_synthetic(cfg.data))
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()

    def test_divergence_detected(self):
        cfg = tiny_config(lr_init=1e14, lr_min=1.0, epochs=2)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                train(cfg)
        assert info.value.epoch >= 0
        assert len(info.value.batch_indices) > 0

    def test_divergence_error_pickles(self):
        """A round trip keeps the message and every field."""
        err = TrainingDivergedError(3, 7, np.array([4, 1, 9]))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is TrainingDivergedError
        assert str(back) == str(err)
        assert (back.epoch, back.step, back.batch_indices) == (3, 7, [4, 1, 9])


def split_steps(monkeypatch, workers):
    """Every ``tiny_config`` step of six images runs as three chunks of two
    (a depth budget of two images' 8x8x4 float64 stem output), on
    ``workers`` workers."""
    from msconv import model
    monkeypatch.setattr(model, "_cores", lambda: workers)
    monkeypatch.setattr(T, "_DEPTH_BYTES", 2 * 8 * 8 * 4 * 8)


def first_batch(cfg):
    """Image indices of a run's first step, as train's epoch-0 shuffle
    orders them."""
    order = np.random.default_rng([cfg.seed, 3, 0]).permutation(cfg.data.total)
    return order[:cfg.batch_size]


class TestMicroBatches:
    """Each step's micro-batches, run on the caller and forked helpers."""

    def test_sum_equals_the_whole_batch(self):
        """A desk batch in two micro-batches of 16 gives the whole batch's
        loss to 1e-15 and each gradient to 1e-14 of the array's largest
        magnitude (1.2e-15 measured over a desk epoch's 16 batches)."""
        cfg = RunConfig()
        ds = gen_synthetic(cfg.data)
        params = full_init(cfg)
        idx = first_batch(cfg)
        chunks = T.even_chunks(len(idx), depth_step(cfg.model, (32, 32),
                                                    np.float64))
        assert chunks == [slice(0, 16), slice(16, 32)]
        workers = Workers(1, partial(train_module._micro_batch, ds, cfg, []))
        loss, grads = train_module._step(workers, params, idx, chunks, 0, 0)
        tape = Tape()
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        emb = tinynet_forward(tape, tape.constant(ds.images[idx]), leaves,
                              cfg.model)
        whole = margin_ce_on_tape(tape, emb,
                                  tape.l2_normalize_rows(leaves["centers"]),
                                  ds.labels[idx], cfg.loss)
        assert loss == pytest.approx(float(whole.value), rel=1e-15)
        want = tape.backward(whole)
        for name, leaf in leaves.items():
            g = want[leaf]
            assert np.abs(grads[name] - g).max() <= 1e-14 * np.abs(g).max()

    def test_one_workspace_per_worker(self, monkeypatch, tmp_path, bounded):
        """At two cores, each worker's micro-batches share one workspace
        across steps and epochs, which stops growing after the worker's
        first, largest micro-batch, the last batch's smaller ones
        included."""
        from msconv import model
        monkeypatch.setattr(model, "_cores", lambda: 2)
        # four images' 8x8x4 float64 stem output
        monkeypatch.setattr(T, "_DEPTH_BYTES", 4 * 8 * 8 * 4 * 8)
        read = log_passes(monkeypatch, tmp_path / "passes", train_module)
        cfg = tiny_config(data=replace(tiny_config().data,
                                       samples_per_identity=7), batch_size=8)
        train(cfg)
        rows = read()
        # two epochs of batches of 8, 8 and 5 images, in chunks of 4, 4
        # and 3, 2: chunk 0 on the caller, chunk 1 on the helper
        caller = sorted(r["size"] for r in rows if r["pid"] == os.getpid())
        helper = sorted(r["size"] for r in rows if r["pid"] != os.getpid())
        assert (caller, helper) == ([3, 3, 4, 4, 4, 4], [2, 2, 4, 4, 4, 4])
        # stem, both branches, the projection and the fused output
        assert_one_workspace_per_worker(rows, 5, recorded=True)

    def test_batch_within_the_step_forks_nothing(self, monkeypatch,
                                                 tmp_path, bounded):
        """Batches no larger than the depth step run whole, on the caller
        alone, whatever the core count: train forks no step helper, only
        the acc= passes fork."""
        from msconv import model
        monkeypatch.setattr(model, "_cores", lambda: 8)
        forked = spy_on_forks(monkeypatch)
        steps = tmp_path / "steps"

        def spy(tape, x, params, cfg):
            with open(steps, "a") as fh:
                fh.write(f"{os.getpid()} {x.value.shape[0]}\n")
            return tinynet_forward(tape, x, params, cfg)

        monkeypatch.setattr(train_module, "tinynet_forward", spy)
        train(tiny_config())
        # two epochs of 18 images in batches of 6
        assert steps.read_text() == f"{os.getpid()} 6\n" * 6
        # each epoch's acc= pass embeds 18 images in 3 chunks of the batch
        # size, on 3 workers
        assert len(forked) == 2 * 2

    def test_train_in_a_map_forks_nothing(self, monkeypatch, bounded):
        """train run as a map's work, at two cores with steps of three
        chunks, runs its steps and acc= passes on the worker of its chunk:
        only the outer helper forks, and each run's bits are those of train
        called outside any map."""
        split_steps(monkeypatch, 2)
        cfgs = [tiny_config(seed=seed) for seed in (0, 1)]
        want = [train(cfg) for cfg in cfgs]
        forked = spy_on_forks(monkeypatch)
        workers = Workers(2, lambda k: train(cfgs[k]))
        with closing(workers):
            got = workers.map([0, 1])
        assert len(forked) == 1
        for res, ref in zip(got, want):
            assert res.log_lines == ref.log_lines
            assert {k: v.tobytes() for k, v in res.params.items()} == \
                {k: v.tobytes() for k, v in ref.params.items()}

    @pytest.mark.parametrize("where", ["nowhere", "helper", "caller"])
    def test_no_helper_outlives_train(self, monkeypatch, bounded, where):
        """No helper is alive once train has returned, or has raised the
        divergence of the first step's chunk 1 (on the helper) or chunk 0
        (on the caller) with that step's epoch, step and batch."""
        forked = spy_on_forks(monkeypatch)
        split_steps(monkeypatch, 2)
        cfg = tiny_config()
        ds = gen_synthetic(cfg.data)
        idx = first_batch(cfg)
        if where != "nowhere":
            ds.images[idx[2 if where == "helper" else 0]] = np.nan
        with np.errstate(all="ignore"):
            try:
                train(cfg, ds)
            except TrainingDivergedError as err:
                assert (err.epoch, err.step, err.batch_indices) == \
                    (0, 0, list(idx))
            else:
                assert where == "nowhere"
        # the step helper, and one embed helper per epoch's acc= pass
        assert len(forked) == (3 if where == "nowhere" else 1)
        assert not any(process.is_alive() for process in forked)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_earliest_failed_chunk_raises(self, monkeypatch, bounded,
                                          workers):
        """Chunks 1 and 2 of the first step fail: chunk 1's error is
        raised, whichever workers ran them."""
        split_steps(monkeypatch, workers)
        cfg = tiny_config()
        ds = gen_synthetic(cfg.data)
        idx = first_batch(cfg)

        def spy(tape, x, params, cfg):
            for k in (1, 2):
                if np.array_equal(x.value, ds.images[idx[2 * k:2 * k + 2]]):
                    raise ValueError(f"chunk {k}")
            return tinynet_forward(tape, x, params, cfg)

        monkeypatch.setattr(train_module, "tinynet_forward", spy)
        with pytest.raises(ValueError, match="^chunk 1$"):
            train(cfg, ds)

    def test_helpers_keep_the_caller_error_state(self, monkeypatch, bounded):
        """A helper runs its chunks under the numpy error state that the
        caller of train set."""
        split_steps(monkeypatch, 2)
        caller = os.getpid()

        def spy(tape, x, params, cfg):
            if os.getpid() != caller:
                raise ValueError(repr(np.geterr()))
            return tinynet_forward(tape, x, params, cfg)

        monkeypatch.setattr(train_module, "tinynet_forward", spy)
        with np.errstate(divide="raise", over="ignore", under="warn",
                         invalid="ignore"):
            want = repr(np.geterr())
            with pytest.raises(ValueError) as info:
                train(tiny_config())
        assert str(info.value) == want


class TestVerificationEvaluation:
    def test_verification_set_split(self):
        embs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pairs = [(0, 1, 1), (0, 2, 0), (1, 2, 0)]
        vs = verification_set(embs, pairs)
        np.testing.assert_allclose(vs.genuine, [1.0], rtol=1e-15)
        np.testing.assert_allclose(vs.impostor, [0.0, 0.0], atol=1e-15)

    def test_verification_set_rejects_out_of_range_pair(self):
        """A pair indexing past the embeddings names itself in the error,
        in plain ints whether the pairs come as a list or an array."""
        pairs = [(0, 1, 1), (99, 1, 0)]
        for given in (pairs, np.array(pairs, dtype=np.int64)):
            with pytest.raises(ValueError) as info:
                verification_set(np.ones((18, 4)), given)
            assert str(info.value) == ("pair 2 (99, 1, 0) indexes an image "
                                       "outside the 18 loaded")

    def test_evaluate_verification_keys(self):
        cfg = tiny_config(epochs=1)
        res = train(cfg)
        ds = gen_synthetic(cfg.data)
        pairs = [(0, 1, 1), (0, 6, 0), (6, 7, 1), (1, 12, 0)]
        out = evaluate_verification(res.params, cfg.model, ds, pairs,
                                    far_target=0.5)
        assert set(out) == {"tar", "threshold", "pair_acc", "acc_threshold",
                            "far_target"}
        assert 0.0 <= out["tar"] <= 1.0
        assert 0.5 <= out["pair_acc"] <= 1.0
        assert out["far_target"] == 0.5


def random_pairs(rng, images: int, count: int) -> list[tuple[int, int, int]]:
    """``count`` (i, j, same) triples, same-flags alternating from 1."""
    ii = rng.integers(0, images, count).tolist()
    jj = rng.integers(0, images, count).tolist()
    return [(i, j, (k + 1) % 2) for k, (i, j) in enumerate(zip(ii, jj))]


class TestBlockedScoring:
    """verification_set scores PAIR_BLOCK pairs per pair_scores call."""

    @pytest.mark.parametrize("count", [2, 37, PAIR_BLOCK - 1, PAIR_BLOCK,
                                       PAIR_BLOCK + 1, 3 * PAIR_BLOCK + 17])
    def test_bytes_match_one_shot(self, count):
        rng = np.random.default_rng(count)
        embs = rng.normal(size=(50, 64))
        pairs = random_pairs(rng, 50, count)
        vs = verification_set(embs, pairs)
        genuine, impostor = one_shot_verification(embs, pairs)
        assert vs.genuine.tobytes() == genuine.tobytes()
        assert vs.impostor.tobytes() == impostor.tobytes()

    def test_one_pair_scores_call_per_block(self, monkeypatch):
        train_module = sys.modules["msconv.train"]
        sizes = []
        real = train_module.pair_scores

        def spy(a, b):
            sizes.append(a.shape[0])
            return real(a, b)

        monkeypatch.setattr(train_module, "pair_scores", spy)
        rng = np.random.default_rng(1)
        verification_set(rng.normal(size=(9, 4)),
                         random_pairs(rng, 9, 2 * PAIR_BLOCK + 5))
        assert sizes == [PAIR_BLOCK, PAIR_BLOCK, 5]

    def test_peak_does_not_grow_with_pairs(self):
        """Beyond the (pairs, 3) index array and the scores, which take
        under 64 bytes a pair, the peak is the same for 20k and 200k pairs;
        scoring every pair at once held two gathered rows and their product,
        3 * embed_dim * 8 bytes a pair."""
        rng = np.random.default_rng(2)
        embs = rng.normal(size=(300, 128))

        def peak(count):
            pairs = random_pairs(rng, 300, count)
            tracemalloc.start()
            try:
                verification_set(embs, pairs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(20_000), peak(200_000)
        assert large - small <= 64 * (200_000 - 20_000)


class TestEmbedDataset:
    """embed_dataset embeds a set in one tinynet_embed call."""

    @pytest.mark.parametrize("count,size", [(33, 32), (70, 64)])
    def test_bytes_match_fresh_workspaces(self, count, size):
        """The bits of embedding the set in separate calls, each with a
        fresh workspace, at uneven bounds."""
        cfg = TinyNetConfig()
        params = init_params(cfg, seed=21)
        images = np.random.default_rng(count).uniform(
            -1.0, 1.0, (count, size, size, 3))
        bounds = {33: (0, 17, 33), 70: (0, 24, 47, 70)}[count]
        fresh = np.concatenate([tinynet_embed(images[a:b], params, cfg)
                                for a, b in zip(bounds, bounds[1:])])
        got = embed_dataset(params, cfg, images, 32)
        assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("count", [33, 65])
    def test_bytes_do_not_depend_on_dataset_size(self, count):
        """With a one-image tail at batch 32, every embedding still has the
        bits of one pass over the whole set."""
        cfg = TinyNetConfig()
        params = init_params(cfg, seed=23)
        images = np.random.default_rng(count).uniform(
            -1.0, 1.0, (count, 32, 32, 3))
        got = embed_dataset(params, cfg, images, 32)
        assert got.tobytes() == one_shot_embed(images, params, cfg).tobytes()

    def test_batch_of_one_matches_one_pass(self):
        """Batch size 1 runs one-image chunks, with the bits of one pass."""
        cfg = TinyNetConfig()
        params = init_params(cfg, seed=24)
        images = np.random.default_rng(7).uniform(-1.0, 1.0, (7, 32, 32, 3))
        got = embed_dataset(params, cfg, images, 1)
        assert got.tobytes() == one_shot_embed(images, params, cfg).tobytes()

    def test_one_embed_call_per_set(self, monkeypatch, tmp_path, bounded):
        """A set is one tinynet_embed call: its chunks run on two workers,
        each on tapes with one workspace, which stops growing after the
        worker's first chunk."""
        from msconv import model
        calls = []

        def spy(x, params, cfg, batch_size=None):
            calls.append((len(x), batch_size))
            return tinynet_embed(x, params, cfg, batch_size)

        monkeypatch.setattr(train_module, "tinynet_embed", spy)
        monkeypatch.setattr(model, "_cores", lambda: 2)
        forked = spy_on_forks(monkeypatch)
        read = log_passes(monkeypatch, tmp_path / "passes")
        cfg = TinyNetConfig()
        embed_dataset(init_params(cfg, seed=22), cfg, plan_images(65, 32), 32)
        assert calls == [(65, 32)]
        assert len(forked) == 1
        rows = read()
        # near-equal chunks at the 16-image depth step, largest first
        assert [row["size"] for row in rows] == [13] * 5
        assert len(rows) == len(T.even_chunks(65, 16))
        assert_on_workers(rows, 2)
        # stem, both branches, the projection and the fused output
        assert_one_workspace_per_worker(rows, 5)


class TestAblationHarness:
    KINDS = (FusionKind.MSCONV, FusionKind.SKCONV_REFERENCE)

    def test_negative_pair_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ablation_run(tiny_config(epochs=1), kinds=self.KINDS,
                         genuine_pairs=-1, impostor_pairs=4)

    def test_no_kinds(self, monkeypatch):
        """No kinds make an empty report, at two cores too, and fork
        nothing."""
        from msconv import model
        monkeypatch.setattr(model, "_cores", lambda: 2)
        forked = spy_on_forks(monkeypatch)
        report = ablation_run(tiny_config(epochs=1), ())
        assert (report.rows, report.results) == ([], {})
        assert forked == []

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_cells_follow_the_plan(self, monkeypatch, tmp_path, bounded,
                                   cores):
        """Three kinds with steps of three chunks, at 1, 2 and 3 cores.  The
        whole rounds' cell k trains on worker k % count, every step chunk on
        that worker, and forks nothing; each kind left over trains on the
        caller, its step chunks on workers of its own."""
        kinds = (FusionKind.MSCONV, FusionKind.NO_SO,
                 FusionKind.SKCONV_REFERENCE)
        split_steps(monkeypatch, cores)
        forked = spy_on_forks(monkeypatch)
        log = tmp_path / "log"
        log.write_text("")

        def logged(fn, what):
            def spy(*args, **kw):
                cfg = next(a for a in args if isinstance(a, RunConfig))
                with open(log, "a") as fh:
                    fh.write(f"{what} {cfg.fusion.value} {os.getpid()}\n")
                return fn(*args, **kw)
            return spy

        monkeypatch.setattr(train_module, "train",
                            logged(train_module.train, "train"))
        monkeypatch.setattr(train_module, "_micro_batch",
                            logged(train_module._micro_batch, "chunk"))
        report = ablation_run(tiny_config(epochs=1), kinds, far_target=0.1,
                              genuine_pairs=20, impostor_pairs=40)
        assert [row.kind for row in report.rows] == list(kinds)
        runs, chunks = {}, {}
        for line in log.read_text().splitlines():
            what, kind, pid = line.split()
            if what == "train":
                runs[kind] = int(pid)
            else:
                chunks.setdefault(kind, set()).add(int(pid))
        count = min(cores, len(kinds))
        whole = len(kinds) - len(kinds) % count if count > 1 else 0
        cell_helpers = [p.pid for p in forked[:count - 1]] if whole else []
        workers = [os.getpid(), *cell_helpers]
        for k, kind in enumerate(kind.value for kind in kinds):
            if k < whole:
                assert runs[kind] == workers[k % count]
                assert chunks[kind] == {runs[kind]}
            else:
                assert runs[kind] == os.getpid()
                assert os.getpid() in chunks[kind]
                assert len(chunks[kind]) == cores
                assert not chunks[kind] & set(cell_helpers)
        # a kind left over forks cores - 1 helpers for its steps, for its
        # acc= pass and for its held-out embedding (both in nine chunks)
        assert len(forked) == len(cell_helpers) + \
            (len(kinds) - whole) * 3 * (cores - 1)

    def test_rows_and_shared_init(self, bounded):
        report = ablation_run(tiny_config(epochs=1), kinds=self.KINDS,
                              far_target=0.1, genuine_pairs=20,
                              impostor_pairs=40)
        assert [r.kind for r in report.rows] == list(self.KINDS)
        init_a = report.results[self.KINDS[0]].init
        init_b = report.results[self.KINDS[1]].init
        assert set(init_a) == set(init_b)
        for k in init_a:
            assert init_a[k].tobytes() == init_b[k].tobytes()

    def test_report_formatting(self, bounded):
        report = ablation_run(tiny_config(epochs=1), kinds=self.KINDS,
                              far_target=0.1, genuine_pairs=20,
                              impostor_pairs=40)
        text = format_ablation_report(report)
        for kind in self.KINDS:
            assert f"\nkind={kind.value} " in text
        machine = [ln for ln in text.splitlines() if ln.startswith("kind=")]
        assert len(machine) == 2
        row = dict(part.split("=") for part in machine[0].split())
        assert float(row["tar"]) == report.rows[0].tar
        assert float(row["final_loss"]) == report.rows[0].final_loss


def read_config(directory, lines) -> RunConfig:
    """build_config over read_kv_file of ``lines`` written to a file."""
    path = directory / "run.cfg"
    path.write_text("".join(line + "\n" for line in lines))
    return build_config(read_kv_file(path))


def kv_error(path, lineno: int, message: str) -> str:
    """The ``match`` pattern of read_kv_file's error at ``path:lineno``."""
    return f"^{re.escape(f'{path}:{lineno}: {message}')}$"


class TestConfigText:
    def test_defaults_from_empty(self, tmp_path):
        assert read_config(tmp_path, []) == RunConfig()

    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = read_config(tmp_path, ["# comment", "", "epochs = 3", "  ",
                                     "batch_size = 8"])
        assert cfg.epochs == 3 and cfg.batch_size == 8

    def test_round_trip(self, tmp_path):
        cfg = tiny_config(fusion=FusionKind.NO_SO,
                          loss=MarginLossConfig.of_kind(
                              MarginKind.COMBINED, 3, scale=32.0),
                          momentum=0.8, epochs=7, seed=5)
        assert read_config(tmp_path, config_to_lines(cfg)) == cfg

    def test_multi_stage_round_trip(self, tmp_path):
        cfg = tiny_config(model=TinyNetConfig(
            in_channels=2, stem_channels=4,
            stages=(StageSpec(2, 6, 2), StageSpec(1, 8, 2)),
            embed_dim=8, min_width=2, dilations=(2, 3)))
        again = read_config(tmp_path, config_to_lines(cfg))
        assert again.model.stages == cfg.model.stages
        assert again.model.dilations == (2, 3)

    @settings(max_examples=200, deadline=None)
    @given(cfg=run_configs())
    def test_round_trip_property(self, tmp_path_factory, cfg):
        directory = tmp_path_factory.getbasetemp()
        assert read_config(directory, config_to_lines(cfg)) == cfg

    def test_every_field_set_by_one_key(self):
        """Each leaf field of RunConfig is set by exactly one CONFIG_KEYS
        path, so a field without a row cannot drop out of a checkpoint's
        config.txt.  model.fusion is exempt: RunConfig copies it from
        fusion."""
        def names(cls, prefix, skip=()):
            return [prefix + f.name for f in dataclasses.fields(cls)
                    if f.name not in skip]

        leaves = [*names(SyntheticSpec, "data."),
                  *names(TinyNetConfig, "model.", ("stages", "fusion")),
                  *names(StageSpec, "stages."),
                  *names(MarginLossConfig, "loss."),
                  *names(RunConfig, "", ("data", "model", "loss"))]
        paths = [path for _, _, paths in CONFIG_KEYS for path in paths]
        assert sorted(paths) == sorted(leaves)

    def test_readme_lists_every_key(self):
        """The README's config-key table names exactly CONFIG_KEYS, in
        order, and each default parses to the value RunConfig() echoes."""
        with open(README) as fh:
            text = fh.read()
        section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        rows = [(re.findall(r"`(\w+)`", line.split("|")[1]),
                 line.split("|")[2].strip())
                for line in section.splitlines() if line.startswith("| `")]
        documented = [name for names, _ in rows for name in names]
        assert documented == [key for key, _, _ in CONFIG_KEYS]
        parsers = {key: parse for key, parse, _ in CONFIG_KEYS}
        echoed = dict(line.split(" = ", 1)
                      for line in config_to_lines(RunConfig()))
        for names, default in rows:
            if default == "by kind":  # m1-m3 follow the loss kind
                continue
            (key,) = names
            assert parsers[key](default) == parsers[key](echoed[key]), key

    def test_no_mo_spelling_rejected(self):
        """One name per fusion dataflow: "no_mo" is not a spelling of
        msconv_sum."""
        with pytest.raises(ConfigError, match=re.escape(
                "bad value for 'fusion': 'no_mo' is not one of "
                f"{[k.value for k in FusionKind]}")):
            build_config({"fusion": "no_mo"})

    def test_margin_defaults_by_loss_kind(self, tmp_path):
        arc = read_config(tmp_path, ["loss = arc"])
        assert (arc.loss.m1, arc.loss.m2, arc.loss.m3) == (1.0, 0.5, 0.0)
        comb = read_config(tmp_path, ["loss = combined"])
        assert (comb.loss.m2, comb.loss.m3) == (0.3, 0.2)
        override = read_config(tmp_path, ["loss = cos", "m3 = 0.2"])
        assert override.loss.m3 == 0.2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match=kv_error(
                path, 1, "unknown config key 'nonsense'")):
            read_kv_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 1\nepochs = 2\n")
        with pytest.raises(ConfigError, match=kv_error(
                path, 2, "duplicate config key 'epochs'")):
            read_kv_file(path)

    def test_missing_separator(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match=kv_error(
                path, 1, "expected key = value, got 'epochs 3'")):
            read_kv_file(path)

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            build_config({"epochs": "three"})

    def test_bad_fusion_and_loss_names(self):
        with pytest.raises(ConfigError):
            build_config({"fusion": "sknet"})
        with pytest.raises(ConfigError):
            build_config({"loss": "softmax"})

    def test_stage_list_length_mismatch(self):
        with pytest.raises(ConfigError):
            build_config({"stage_blocks": "1,1", "stage_channels": "8"})

    def test_dilations_must_be_pair(self):
        with pytest.raises(ConfigError):
            build_config({"dilations": "1,2,3"})

    def test_semantic_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            build_config({"identities": "1"})  # class_count needs >= 2
        with pytest.raises(ConfigError):
            build_config({"momentum": "1.5"})

    def test_identities_drive_class_count(self, tmp_path):
        cfg = read_config(tmp_path, ["identities = 7"])
        assert cfg.loss.class_count == 7


def write_files(directory, params, cfg):
    """A checkpoint's files written one by one, unchecked, as a damaged or
    foreign checkpoint may hold them: ``config.txt`` and one MSCT file per
    entry of ``params``."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "config.txt"), "w") as fh:
        fh.write("\n".join(config_to_lines(cfg)) + "\n")
    # float32 stores what it cannot hold as inf
    with np.errstate(over="ignore"):
        for name, arr in params.items():
            msct.write_tensor(
                os.path.join(directory, msct.tensor_filename(name)), arr)


def damaged(params, how):
    """``params`` with one fault a save must refuse."""
    if how == "missing":
        del params["w_embed"]
    elif how == "misshapen":
        params["s0b0/k5"] = params["s0b0/k5"][:, :, :1, :]
    elif how == "unnamed":
        params["extra"] = np.zeros(3)
    else:  # a value float32 holds as inf
        value = {"inf": np.inf, "above_float32": 1e39}[how]
        params["stem"][0, 0, 0, 0] = value
    return params


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(epochs=0)
        params = full_init(cfg)
        save_checkpoint(tmp_path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(tmp_path)
        assert loaded_cfg == cfg
        assert set(loaded) == set(params)
        for k, arr in params.items():
            np.testing.assert_array_equal(loaded[k],
                                          arr.astype(np.float32))

    def test_files_are_config_and_one_tensor_per_parameter(self, tmp_path):
        cfg = tiny_config(epochs=0)
        params = full_init(cfg)
        save_checkpoint(tmp_path, params, cfg)
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["config.txt", *(msct.tensor_filename(k) for k in params)])
        assert len(params) == len(param_shapes(cfg.model)) + 1

    def test_old_layout_with_manifest_loads_the_same_arrays(self, tmp_path):
        """A checkpoint written with a ``manifest.txt`` of name=filename
        lines, as earlier versions did, loads byte for byte as without it."""
        cfg = tiny_config(epochs=0)
        save_checkpoint(tmp_path, full_init(cfg), cfg)
        before, _ = load_checkpoint(tmp_path)
        (tmp_path / "manifest.txt").write_text("".join(
            f"{k}={msct.tensor_filename(k)}\n" for k in sorted(before)))
        loaded, loaded_cfg = load_checkpoint(tmp_path)
        assert loaded_cfg == cfg and list(loaded) == list(before)
        assert all(loaded[k].tobytes() == before[k].tobytes() for k in loaded)

    def test_failed_overwrite_keeps_previous_checkpoint(self, tmp_path,
                                                        monkeypatch):
        """A write that fails on its third tensor leaves the previous
        checkpoint loading byte-identical and no stray directory; a write
        that succeeds replaces every file."""
        cfg = tiny_config(epochs=0)
        ckpt = tmp_path / "checkpoint"
        save_checkpoint(ckpt, full_init(cfg), cfg)
        before, _ = load_checkpoint(ckpt)
        newer = {k: v + 1.0 for k, v in full_init(cfg).items()}
        written = []
        real_write = msct.write_tensor

        def fail_third(path, arr):
            written.append(path)
            if len(written) == 3:
                raise OSError("disk full")
            real_write(path, arr)

        monkeypatch.setattr(msct, "write_tensor", fail_third)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, newer, cfg)
        assert os.listdir(tmp_path) == ["checkpoint"]
        loaded, loaded_cfg = load_checkpoint(ckpt)
        assert loaded_cfg == cfg and loaded.keys() == before.keys()
        assert all(loaded[k].tobytes() == before[k].tobytes() for k in loaded)

        monkeypatch.setattr(msct, "write_tensor", real_write)
        (ckpt / "stale.txt").write_text("from an earlier run\n")
        save_checkpoint(ckpt, newer, cfg)
        assert os.listdir(tmp_path) == ["checkpoint"]
        assert "stale.txt" not in os.listdir(ckpt)
        loaded, _ = load_checkpoint(ckpt)
        assert all(np.array_equal(loaded[k], newer[k].astype(np.float32))
                   for k in newer)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path)

    def test_non_ascii_config_names_path_and_line(self, tmp_path):
        cfg = tiny_config(epochs=0)
        save_checkpoint(tmp_path, full_init(cfg), cfg)
        config = tmp_path / "config.txt"
        lines = config.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        config.write_bytes(b"\n".join(lines))
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{config}:3: non-ASCII byte 0xff")):
            load_checkpoint(tmp_path)

    def test_missing_parameter_rejected(self, tmp_path):
        cfg = tiny_config(epochs=0)
        params = full_init(cfg)
        del params["w_embed"]
        write_files(tmp_path, params, cfg)
        with pytest.raises(msct.FormatError, match="'w_embed': the files hold nothing"):
            load_checkpoint(tmp_path)

    def test_misshapen_parameter_rejected(self, tmp_path):
        cfg = tiny_config(epochs=0)
        params = full_init(cfg)
        params["s0b0/k5"] = params["s0b0/k5"][:, :, :1, :]
        write_files(tmp_path, params, cfg)
        with pytest.raises(msct.FormatError, match=r"'s0b0/k5': the files hold \(3, 3, 1, 6\)"):
            load_checkpoint(tmp_path)

    def test_first_wrong_parameter_named(self, tmp_path):
        """Checked in init order, the table first and then the files."""
        cfg = tiny_config(epochs=0)
        params = full_init(cfg)
        params["aaa"] = np.zeros(2)
        params["centers"] = params["centers"][:2]
        del params["s0b0/w_expand"]
        write_files(tmp_path, params, cfg)
        with pytest.raises(msct.FormatError, match="'s0b0/w_expand'"):
            load_checkpoint(tmp_path)

    def test_load_draws_no_weights(self, tmp_path, no_param_draws):
        """Shapes come from the table; zeros stand in for drawn weights."""
        cfg = tiny_config(epochs=0)
        params = {name: np.zeros(shape)
                  for name, shape in param_shapes(cfg.model).items()}
        params["centers"] = np.zeros((3, 8))
        save_checkpoint(tmp_path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(tmp_path)
        assert loaded_cfg == cfg and set(loaded) == set(params)
        with pytest.raises(AssertionError, match="drew weights"):
            full_init(cfg)

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg = tiny_config(epochs=0)
        params = full_init(cfg)
        params["extra"] = np.zeros(3)
        write_files(tmp_path, params, cfg)
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{tmp_path / 'extra.msct'}: no parameter of the config "
                "names this file")):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("how, message", [
        ("missing", "'w_embed': the files hold nothing"),
        ("misshapen", r"'s0b0/k5': the files hold \(3, 3, 1, 6\)"),
        ("unnamed", "'extra': the config names no such parameter"),
        ("inf", "'stem' holds non-finite values"),
        ("above_float32", "'stem' holds non-finite values"),
    ])
    def test_save_refuses_what_load_refuses(self, tmp_path, monkeypatch,
                                            how, message):
        """Raised with load's words before anything is staged; the previous
        checkpoint loads byte-identical.  The same files written directly
        fail the load with the same message (an unnamed one names its
        file, see test_unknown_parameter_rejected)."""
        cfg = tiny_config(epochs=0)
        ckpt = tmp_path / "checkpoint"
        save_checkpoint(ckpt, full_init(cfg), cfg)
        before, _ = load_checkpoint(ckpt)

        def stage(*args):
            raise AssertionError(f"staged {args}")

        with monkeypatch.context() as patch:
            patch.setattr(os, "mkdir", stage)
            patch.setattr(msct, "write_tensor", stage)
            with pytest.raises(msct.FormatError, match=message):
                save_checkpoint(ckpt, damaged(full_init(cfg), how), cfg)
        assert os.listdir(tmp_path) == ["checkpoint"]
        loaded, _ = load_checkpoint(ckpt)
        assert list(loaded) == list(before)
        assert all(loaded[k].tobytes() == before[k].tobytes() for k in loaded)

        if how != "unnamed":
            write_files(tmp_path / "direct", damaged(full_init(cfg), how), cfg)
            with pytest.raises(msct.FormatError, match=message):
                load_checkpoint(tmp_path / "direct")

    @pytest.mark.parametrize("stage_blocks", [
        "1,12", "11,2", "1,12" + ",1" * 9 + ",2"])
    def test_tensor_files_are_one_to_one(self, tmp_path, stage_blocks):
        """No two tensors of a run share a file, with stages and blocks
        past 9 (``s1b11`` beside ``s11b1``), so a save writes one file per
        tensor and loads them back."""
        count = len(stage_blocks.split(","))
        cfg = build_config({"stage_blocks": stage_blocks,
                            "stage_channels": ",".join(["4"] * count),
                            "stage_strides": ",".join(["1"] * count),
                            "stem_channels": "4", "epochs": "0"})
        names = run_tensor_shapes(cfg)
        assert len({msct.tensor_filename(k) for k in names}) == len(names)
        save_checkpoint(tmp_path, full_init(cfg), cfg)
        assert len(os.listdir(tmp_path)) == len(names) + 1
        loaded, _ = load_checkpoint(tmp_path)
        assert list(loaded) == list(names)
