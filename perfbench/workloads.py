"""The benchmark's workloads: set-up, one job, and the checks on its output.

Every workload is a closed loop with one caller: the next job starts when
the previous one has returned.  Inputs come from the benchmark seed; the
model initialisation seed stays at the desk default, so the program under
test is the same on every seed.

``taps`` names the library functions whose results a check needs; the
worker records their calls in both the plain and the traced run.  Each
``check`` returns ``(name, ok)`` pairs; every pair is one attempted
check and feeds ``error_rate``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import replace

import numpy as np

from spans import module

FAR_TARGET = 0.01
# held-out verification pairs: 100 identities x 10 samples, 2k genuine and
# 20k impostor pairs, enough identity pairs that TAR@FAR=0.01 does not hinge
# on one look-alike pair
HELDOUT_IDENTITIES = 100
HELDOUT_SAMPLES = 10
GENUINE_PAIRS = 2000
IMPOSTOR_PAIRS = 20000


def _capture(argv: list[str]) -> tuple[int, str]:
    """Run ``msconv <argv>`` in this process; exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = module("cli").main(argv)
    return code, buf.getvalue()


def _heldout(seed: int, size: int):
    """Fresh identities (data seed + 1) and their verification pairs."""
    data = module("data")
    spec = data.SyntheticSpec(identity_count=HELDOUT_IDENTITIES,
                              samples_per_identity=HELDOUT_SAMPLES,
                              height=size, width=size, seed=seed + 1)
    ds = data.gen_synthetic(spec)
    pairs = data.make_pairs(ds.labels, GENUINE_PAIRS, IMPOSTOR_PAIRS,
                            seed=spec.seed)
    return ds, pairs


def _warm_up(params, cfg, images) -> None:
    train = module("train")
    train.embed_dataset(params, cfg.model.with_fusion(cfg.fusion),
                        images[:cfg.batch_size], cfg.batch_size)


def _tar(params, cfg, ds, pairs) -> float:
    stats = module("train").evaluate_verification(
        params, cfg.model.with_fusion(cfg.fusion), ds, pairs, FAR_TARGET,
        cfg.batch_size)
    return stats["tar"]


def largest_activation_bytes(cfg) -> int:
    """Bytes of the largest feature map one batch of the forward pass holds."""
    height, width = cfg.data.height, cfg.data.width
    elems = [height * width * cfg.model.stem_channels]
    for _, _, c_out, stride, _ in cfg.model.block_layout():
        height, width = -(-height // stride), -(-width // stride)
        elems.append(height * width * c_out)
    return cfg.batch_size * max(elems) * np.dtype(np.float64).itemsize


def sweep_oracle(genuine: np.ndarray, impostor: np.ndarray, far_target: float):
    """TAR@FAR and best-accuracy selections by histogram and cumulative sums.

    Vectorised form of the exhaustive sweeps in ``tests/oracles.py``, with
    the same candidates (sorted unique scores plus one always-reject
    sentinel) and tie rules, but without sorting and searching.  Returns
    (tar, threshold, accuracy, accuracy threshold, candidates, correct
    counts, impostor FAR per candidate).
    """
    scores = np.concatenate([genuine, impostor])
    uniq, inv = np.unique(scores, return_inverse=True)
    cand = np.append(uniq, np.nextafter(uniq[-1], np.inf))
    n_gen, n_imp = genuine.size, impostor.size
    # counts strictly below each candidate
    gen_below = np.concatenate(
        [[0], np.cumsum(np.bincount(inv[:n_gen], minlength=uniq.size))])
    imp_below = np.concatenate(
        [[0], np.cumsum(np.bincount(inv[n_gen:], minlength=uniq.size))])
    far = (n_imp - imp_below) / n_imp
    pick = int(np.flatnonzero(far <= far_target)[0])
    tar = (n_gen - gen_below[pick]) / n_gen
    correct = (n_gen - gen_below) + imp_below
    best = int(np.argmax(correct))
    acc = correct[best] / (n_gen + n_imp)
    return tar, cand[pick], acc, cand[best], cand, correct, far


class Train:
    """``train(RunConfig())`` at the desk size, cut to eight epochs.

    Eight epochs ended at 0.988 accuracy or above, with at most one loss
    uptick, on each of 61 random data seeds; five missed the 0.95 check on
    some (one ended at 0.946 after 0.984 the epoch before), as the learning
    rate is still high when a short cosine schedule stops.
    """

    name = "train"
    epochs = 8

    def __init__(self, seed: int):
        base = module("train").RunConfig()
        self.cfg = replace(base, data=replace(base.data, seed=seed),
                           epochs=self.epochs)
        self.seed = seed
        self.first_log: list[str] | None = None

    def taps(self):
        return []

    def setup(self, work: str) -> None:
        self.ds = module("data").gen_synthetic(self.cfg.data)
        self.heldout, self.pairs = _heldout(self.seed, self.cfg.data.height)
        _warm_up(module("train").full_init(self.cfg), self.cfg, self.ds.images)

    def job(self, out_dir: str):
        result = module("train").train(self.cfg, dataset=self.ds)
        n = self.ds.images.shape[0]
        # SGD-step images plus the per-epoch accuracy pass
        return 2 * self.cfg.epochs * n, result

    def check(self, result) -> list[tuple[str, bool]]:
        losses = result.epoch_losses
        upticks = sum(b > a for a, b in zip(losses, losses[1:]))
        if self.first_log is None:
            self.first_log = list(result.log_lines)
        self.last = result
        return [
            ("train: epoch count", len(losses) == self.cfg.epochs),
            ("train: epoch losses finite", all(map(math.isfinite, losses))),
            ("train: at most 2 loss upticks", upticks <= 2),
            ("train: final accuracy >= 0.95", result.epoch_accs[-1] >= 0.95),
            ("train: log lines repeat byte for byte",
             result.log_lines == self.first_log),
        ]

    def tar(self) -> float:
        return _tar(self.last.params, self.cfg, self.heldout, self.pairs)


class Verify:
    """``msconv verify --checkpoint --data`` on 500 64x64 images, forward only.

    500 rather than 1000 images: each set-up pass writes every image as its
    own file, and at 1000 files the write time swung by up to 10x between
    passes on a shared disk, which swamped ``setup_s``.
    """

    name = "verify"
    size = 64
    samples_per_identity = 5

    def __init__(self, seed: int):
        data, train = module("data"), module("train")
        spec = data.SyntheticSpec(identity_count=HELDOUT_IDENTITIES,
                                  samples_per_identity=self.samples_per_identity,
                                  height=self.size, width=self.size, seed=seed)
        base = train.RunConfig()
        self.cfg = replace(base, data=spec,
                           loss=replace(base.loss, class_count=spec.identity_count))
        self.seed = seed
        self.scored = []

    def taps(self):
        return [("train", "verification_set", self.scored)]

    def setup(self, work: str) -> None:
        data, train = module("data"), module("train")
        ds = data.gen_synthetic(self.cfg.data)
        self.data_dir = os.path.join(work, "data")
        data.save_dataset(self.data_dir, ds)
        pairs = data.make_pairs(ds.labels, GENUINE_PAIRS, IMPOSTOR_PAIRS,
                                seed=self.seed)
        data.write_pairs(os.path.join(self.data_dir, "pairs.txt"), pairs)
        self.checkpoint = os.path.join(work, "checkpoint")
        params = train.full_init(self.cfg)
        train.save_checkpoint(self.checkpoint, params, self.cfg)
        self.images = ds.images.shape[0]
        _warm_up(params, self.cfg, ds.images)

    def job(self, out_dir: str):
        code, text = _capture(["verify", "--checkpoint", self.checkpoint,
                               "--data", self.data_dir])
        # verification_set is tapped: its one call holds this job's scores
        (embs, _), vs = self.scored.pop()
        return self.images, (code, text, embs, vs)

    def check(self, output) -> list[tuple[str, bool]]:
        code, text, embs, vs = output
        stats = {}
        for line in text.splitlines():
            key, sep, value = line.partition("=")
            if sep and key in ("far_target", "tar", "threshold", "pair_acc",
                               "acc_threshold"):
                stats[key] = float(value)
        self.last = stats
        if code != 0 or len(stats) != 5:
            return [("verify: exit code 0 and five result lines", False)]
        norms = np.linalg.norm(embs, axis=1)
        tar, thr, acc, acc_thr, cand, correct, far = sweep_oracle(
            vs.genuine, vs.impostor, stats["far_target"])
        pick = int(np.flatnonzero(cand == stats["threshold"])[0]) \
            if stats["threshold"] in cand else -1
        return [
            ("verify: exit code 0 and five result lines", True),
            ("verify: embeddings finite", bool(np.isfinite(embs).all())),
            ("verify: embeddings unit norm",
             bool(np.abs(norms - 1.0).max() <= 1e-9)),
            ("verify: TAR and threshold match the oracle sweep",
             (stats["tar"], stats["threshold"]) == (tar, thr)),
            ("verify: FAR at threshold within target",
             pick >= 0 and far[pick] <= stats["far_target"]),
            ("verify: FAR at next lower candidate above target",
             pick == 0 or (pick > 0 and far[pick - 1] > stats["far_target"])),
            ("verify: accuracy and threshold match the oracle sweep",
             (stats["pair_acc"], stats["acc_threshold"]) == (acc, acc_thr)),
            ("verify: no candidate beats pair_acc",
             correct.max() / (vs.genuine.size + vs.impostor.size)
             <= stats["pair_acc"]),
        ]

    def tar(self) -> float:
        return self.last["tar"]


class Ablate:
    """``msconv ablate`` with the five default kinds, 200 images, 3 epochs."""

    name = "ablate"
    epochs = 3
    samples_per_identity = 20

    def __init__(self, seed: int):
        base = module("train").RunConfig()
        self.cfg = replace(base, epochs=self.epochs, data=replace(
            base.data, samples_per_identity=self.samples_per_identity,
            seed=seed))
        self.seed = seed
        self.reports = []

    def taps(self):
        return [("cli", "ablation_run", self.reports)]

    def setup(self, work: str) -> None:
        train = module("train")
        self.config_path = os.path.join(work, "ablate.cfg")
        with open(self.config_path, "w") as fh:
            fh.write("\n".join(train.config_to_lines(self.cfg)) + "\n")
        self.heldout, self.pairs = _heldout(self.seed, self.cfg.data.height)
        _warm_up(train.full_init(self.cfg), self.cfg, self.heldout.images)

    def job(self, out_dir: str):
        code, text = _capture(["ablate", "--config", self.config_path,
                               "--out", out_dir])
        # ablation_run is tapped: its one call holds this job's report
        _, report = self.reports.pop()
        kinds = len(module("train").DEFAULT_ABLATION_KINDS)
        n = self.cfg.data.total
        # per kind: SGD steps, per-epoch accuracy pass, held-out embedding
        return kinds * (2 * self.cfg.epochs * n + n), (code, out_dir, report)

    def check(self, output) -> list[tuple[str, bool]]:
        train, block = module("train"), module("block")
        code, out_dir, report = output
        self.last = report
        kinds = [row.kind for row in report.rows]
        loss = {row.kind: row.final_loss for row in report.rows}
        k_sum, k_sk = block.FusionKind.MSCONV_SUM, block.FusionKind.SKCONV_REFERENCE
        checks = [
            ("ablate: exit code 0", code == 0),
            ("ablate: one row per default kind",
             kinds == list(train.DEFAULT_ABLATION_KINDS)),
            ("ablate: msconv_sum and skconv final losses agree to 1e-9",
             abs(loss[k_sum] - loss[k_sk]) <= 1e-9 * abs(loss[k_sk])),
        ]
        for kind, result in report.results.items():
            params, cfg = train.load_checkpoint(os.path.join(out_dir, kind.value))
            same = params.keys() == result.params.keys() and all(
                np.array_equal(params[k], result.params[k].astype(np.float32))
                for k in params)
            checks.append((f"ablate: {kind.value} checkpoint reloads identical",
                           same and cfg == replace(self.cfg, fusion=kind)))
        return checks

    def tar(self) -> float:
        kind = module("block").FusionKind.MSCONV
        cfg = replace(self.cfg, fusion=kind)
        return _tar(self.last.results[kind].params, cfg, self.heldout,
                    self.pairs)


WORKLOADS = {w.name: w for w in (Train, Verify, Ablate)}
