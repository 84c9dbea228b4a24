"""Training loop, cosine-annealed SGD, run configuration, and checkpoints.

The recipe: SGD with momentum 0.9, coupled weight decay 5e-4 on weights (not
biases), learning rate annealed from 0.02 to 5e-6 along a quarter cosine wave
evaluated per step (``lr_at``).  Everything is seeded and independent of the
core count, so two runs of the same config produce byte-identical logs and
checkpoints.

Each step runs depth-first, like inference: its batch splits by
``T.even_chunks`` at ``model.depth_step`` into micro-batches, each run
forward and backward on its own tape with its loss seeded at its share of
the batch (m/n images).  Their losses and gradients are summed in plan
order, then one ``sgd_step`` follows.  The micro-batches run on one
``model.Workers`` per ``train`` call, one worker per core up to one per
chunk: the caller, which takes chunk 0, and helper processes forked before
the first step, which inherit the dataset and receive each step's
parameters.  Each worker's tapes share one workspace for the whole call
(see ``autograd.Tape``), the forward buffers of its first, largest
micro-batch, reused across steps and epochs; the per-epoch ``acc=`` pass
keeps its own.  The plan never depends on the core count and a chunk's bits
depend only on its images and the parameters, so neither do the bits of a
run.

``ablation_run`` runs its fusion kinds as cells, one kind per worker, in
whole rounds of ``min(cores, kinds)``; a cell's steps then run on its own
worker, since a ``Workers`` opened within a map forks nothing.  The kinds
left over run one after another, each on every core.

Run configs serialize to flat ``key = value`` text (the same format the CLI
reads).  A checkpoint is that config plus one file per tensor of
``run_tensor_shapes``; a save refuses what a load refuses.
"""

from __future__ import annotations

import math
import os
import shutil
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from operator import attrgetter

import numpy as np

from . import msct, tensor as T
from .block import FusionKind, param_rng
from .data import LabeledImages, SyntheticSpec, gen_synthetic, make_pairs
from .metrics import (VerificationSet, check_far, pair_accuracy, pair_scores,
                      tar_at_far)
from .model import (MarginKind, MarginLossConfig, StageSpec, TinyNetConfig,
                    Workers, depth_step, init_params, margin_ce_on_tape,
                    normalize_rows, param_shapes, tinynet_embed,
                    tinynet_forward)
from .autograd import Tape


class ConfigError(ValueError):
    """Malformed or unknown run-configuration input."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending batch location."""

    def __init__(self, epoch: int, step: int, batch_indices):
        self.epoch = epoch
        self.step = step
        self.batch_indices = list(int(i) for i in batch_indices)
        super().__init__(
            f"non-finite loss at epoch {epoch} step {step}; "
            f"batch indices {self.batch_indices}")

    def __reduce__(self):
        return type(self), (self.epoch, self.step, self.batch_indices)


@dataclass(frozen=True)
class RunConfig:
    data: SyntheticSpec = SyntheticSpec()
    model: TinyNetConfig = TinyNetConfig()
    # scale 16 keeps the epoch-loss trend smooth at desk size; the
    # conventional 64 overshoots once the tiny set is separated
    loss: MarginLossConfig = MarginLossConfig.of_kind(MarginKind.COS, 10,
                                                       scale=16.0)
    fusion: FusionKind = FusionKind.MSCONV
    lr_init: float = 0.02
    lr_min: float = 5e-6
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr_min < self.lr_init:
            raise ValueError("require 0 < lr_min < lr_init")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be positive, epochs non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # the model carries the run's fusion kind
        object.__setattr__(self, "model", self.model.with_fusion(self.fusion))
        # a key that sets several fields sets them to one value, so the
        # config text carries every RunConfig
        for key, _, (first, *rest) in CONFIG_KEYS:
            for path in rest:
                if _read_field(self, path) != _read_field(self, first):
                    raise ValueError(f"{path} must equal {first}: config key "
                                     f"{key!r} sets both")
        h, stride = self.data.height, self.model.total_stride()
        if h % stride:
            raise ValueError(f"spatial dims {h}x{h} not divisible by total "
                             f"stride {stride}")


def lr_at(cfg: RunConfig, total_steps: int, t: int) -> float:
    """Learning rate at step t in [0, T] of a run of T = ``total_steps``
    steps: the quarter-wave cosine decay lr_min + (lr_init - lr_min) *
    cos(pi*t/(2T)) of ``cfg.lr_init`` and ``cfg.lr_min``.

    Evaluated as the convex combination lr_min*(1-s) + lr_init*s with
    s = sin(pi*(T-t)/(2T)), which equals the cosine rule exactly in real
    arithmetic but hits both endpoints exactly in floating point (s is 0.0 at
    t=T and rounds to 1.0 at t=0).
    """
    if total_steps < 1:
        raise ValueError("schedule needs at least one step")
    if not 0 <= t <= total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    s = math.sin(math.pi * (total_steps - t) / (2.0 * total_steps))
    return cfg.lr_min * (1.0 - s) + cfg.lr_init * s


def _decayed(name: str) -> bool:
    # biases are exempt from weight decay
    return not name.split("/")[-1].startswith("b_")


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], cfg: RunConfig, lr: float,
             ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """One momentum-SGD update; returns fresh arrays, inputs untouched."""
    new_p, new_v = {}, {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape "
                             f"{p.shape} for {name}")
        if cfg.weight_decay and _decayed(name):
            g = g + cfg.weight_decay * p
        v = cfg.momentum * velocity[name] + g
        new_v[name] = v
        new_p[name] = p - lr * v
    return new_p, new_v


@dataclass
class TrainResult:
    config: RunConfig
    params: dict[str, np.ndarray]
    init: dict[str, np.ndarray]
    epoch_losses: list[float] = field(default_factory=list)
    epoch_accs: list[float] = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)


def _fmt(x: float) -> str:
    return repr(float(x))


def run_tensor_shapes(cfg: RunConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor of a run in init order: the model's ``param_shapes``,
    then the class centers.  A checkpoint holds exactly these."""
    return {**param_shapes(cfg.model),
            "centers": (cfg.loss.class_count, cfg.model.embed_dim)}


def full_init(cfg: RunConfig) -> dict[str, np.ndarray]:
    """Backbone parameters plus the class-center matrix."""
    params = init_params(cfg.model, cfg.seed)
    params["centers"] = param_rng(cfg.seed, "centers").normal(
        0.0, 1.0 / np.sqrt(cfg.model.embed_dim),
        size=run_tensor_shapes(cfg)["centers"])
    return params


def embed_dataset(params: dict[str, np.ndarray], model_cfg: TinyNetConfig,
                  images: np.ndarray, batch_size: int) -> np.ndarray:
    """Embeddings for every image: one ``tinynet_embed`` pass over the set,
    no more than ``batch_size`` images through the network at once."""
    return tinynet_embed(images, params, model_cfg, batch_size)


def train_accuracy(params: dict[str, np.ndarray], model_cfg: TinyNetConfig,
                   ds: LabeledImages, batch_size: int) -> float:
    """Fraction of samples whose nearest class center is their own."""
    embs = embed_dataset(params, model_cfg, ds.images, batch_size)
    centers = normalize_rows(np.asarray(params["centers"], dtype=np.float64))
    predicted = np.argmax(embs @ centers.T, axis=1)
    return float(np.mean(predicted == ds.labels))


def _micro_batch(ds: LabeledImages, cfg: RunConfig,
                 workspace: list[np.ndarray], chunk: slice,
                 params: dict[str, np.ndarray], idx: np.ndarray, epoch: int,
                 step: int) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and parameter gradients of images ``idx[chunk]``, both weighted
    by the chunk's share m/n of the step's n images, from one tape on
    ``workspace``; neither aliases it.

    Raises TrainingDivergedError, naming the whole step's batch, if the
    chunk's embeddings or loss are unusable.
    """
    part = idx[chunk]
    share = len(part) / len(idx)
    tape = Tape(workspace)
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    emb = tinynet_forward(tape, tape.constant(ds.images[part]), leaves,
                          cfg.model)
    # non-finite values and zero rows (norm overflow) both mean the
    # optimization state is unusable
    if not np.isfinite(emb.value).all() or not emb.value.any(axis=1).all():
        raise TrainingDivergedError(epoch, step, idx)
    centers = tape.l2_normalize_rows(leaves["centers"])
    loss_var = margin_ce_on_tape(tape, emb, centers, ds.labels[part], cfg.loss)
    loss = float(loss_var.value)
    if not math.isfinite(loss):
        raise TrainingDivergedError(epoch, step, idx)
    grads = tape.backward(loss_var, share)
    return loss * share, {k: grads[v] for k, v in leaves.items()}


def _step(workers: Workers, params, idx, chunks, epoch, step):
    """The step's loss and gradients: its chunks' ``_micro_batch`` parts,
    summed in plan order."""
    loss, grads = 0.0, None
    for part_loss, part in workers.map(chunks, params, idx, epoch, step):
        loss += part_loss
        grads = part if grads is None else {
            name: grads[name] + g for name, g in part.items()}
    return loss, grads


def train(cfg: RunConfig, dataset: LabeledImages | None = None) -> TrainResult:
    """Run the full recipe; pure apart from consuming the config and data.

    Emits one log line per epoch (mean step loss, train accuracy, last lr).
    Raises TrainingDivergedError if any step's loss is non-finite, and
    ChildProcessError if a helper process dies.
    """
    ds = gen_synthetic(cfg.data) if dataset is None else dataset
    params = full_init(cfg)
    init_snapshot = {k: v.copy() for k, v in params.items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}

    n = ds.images.shape[0]
    batches_per_epoch = -(-n // cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    chunk_step = depth_step(cfg.model, ds.images.shape[1:3],
                            np.result_type(ds.images, params["stem"]))
    most = (len(T.even_chunks(min(n, cfg.batch_size), chunk_step))
            if total_steps else 0)

    result = TrainResult(cfg, params, init_snapshot)
    step = 0
    work = partial(_micro_batch, ds, cfg, [])
    with closing(Workers(most, work)) as workers:
        for epoch in range(cfg.epochs):
            order = np.random.default_rng([cfg.seed, 3, epoch]).permutation(n)
            step_losses = []
            lr = cfg.lr_init
            for b in range(batches_per_epoch):
                idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                lr = lr_at(cfg, total_steps, step)
                loss, grads = _step(workers, params, idx,
                                    T.even_chunks(len(idx), chunk_step),
                                    epoch, step)
                params, velocity = sgd_step(params, grads, velocity, cfg, lr)
                step_losses.append(loss)
                step += 1
            epoch_loss = float(np.mean(step_losses))
            acc = train_accuracy(params, cfg.model, ds, cfg.batch_size)
            result.epoch_losses.append(epoch_loss)
            result.epoch_accs.append(acc)
            result.log_lines.append(
                f"epoch={epoch + 1} loss={_fmt(epoch_loss)} acc={_fmt(acc)} "
                f"lr={_fmt(lr)}")
    result.params = params
    return result


# -- verification evaluation -------------------------------------------------

# Pairs scored per pair_scores call: the rows one block gathers (two
# (PAIR_BLOCK, embed_dim) arrays and their product) take 1.5 MiB at the
# desk's embed_dim of 64, whatever the number of pairs.
PAIR_BLOCK = 1024


def verification_set(embs: np.ndarray, pairs) -> VerificationSet:
    """Cosine scores of ``[i, j, same]`` index pairs, split by same-flag.

    ``pairs`` is the ``(n, 3)`` int64 array that ``make_pairs`` and
    ``read_pairs`` return (a list of triples converts to it).

    Pairs are scored in blocks of PAIR_BLOCK, each one ``pair_scores`` call
    on the block's gathered rows, so scratch memory stays fixed as the pair
    count grows.  Each score is the same row-wise expression as in one call
    over all pairs, so the bytes are too.  Raises ValueError naming the
    first pair with an index outside ``embs``.
    """
    index = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 3)
    ii, jj = index[:, 0], index[:, 1]
    n = embs.shape[0]
    bad = np.flatnonzero((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"pair {k + 1} {tuple(index[k].tolist())} indexes "
                         f"an image outside the {n} loaded")
    scores = np.empty(index.shape[0])
    for a in range(0, index.shape[0], PAIR_BLOCK):
        b = a + PAIR_BLOCK
        scores[a:b] = pair_scores(embs[ii[a:b]], embs[jj[a:b]])
    same = index[:, 2] != 0
    return VerificationSet(scores[same], scores[~same])


def evaluate_verification(params, model_cfg: TinyNetConfig, ds: LabeledImages,
                          pairs, far_target: float, batch_size: int = 32,
                          ) -> dict[str, float]:
    check_far(far_target)
    embs = embed_dataset(params, model_cfg, ds.images, batch_size)
    vs = verification_set(embs, pairs)
    tar, thr = tar_at_far(vs, far_target)
    acc, acc_thr = pair_accuracy(vs)
    return {"tar": tar, "threshold": thr, "pair_acc": acc,
            "acc_threshold": acc_thr, "far_target": far_target}


# -- ablation harness ---------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    kind: FusionKind
    final_loss: float
    train_acc: float
    pair_acc: float
    tar: float
    threshold: float


@dataclass
class AblationReport:
    far_target: float
    rows: list[AblationRow]
    results: dict[FusionKind, TrainResult]


DEFAULT_ABLATION_KINDS = (FusionKind.MSCONV, FusionKind.MSCONV_SUM,
                          FusionKind.NO_SO, FusionKind.NO_MO_NO_SO,
                          FusionKind.SKCONV_REFERENCE)


def ablation_run(cfg: RunConfig, kinds=DEFAULT_ABLATION_KINDS, *,
                 far_target: float = 0.01, genuine_pairs: int = 300,
                 impostor_pairs: int = 1000) -> AblationReport:
    """Train one model per fusion kind on identical data and seed.

    Held-out evaluation uses a freshly generated identity set (data seed + 1)
    so the verification numbers measure the embedding space, not memorized
    training samples.  A kind listed twice and a FAR target outside (0, 1)
    are rejected before any training.

    Each kind is one cell: its ``train`` and its held-out evaluation.  On a
    ``Workers`` of ``count`` workers, one per core up to one per kind, and
    when count is two or more, the whole rounds, the first
    ``len(kinds) - len(kinds) % count`` cells, run as its chunks: cell k on
    worker k % count, the caller being worker 0, each cell's steps and
    embedding on its own worker.  The data, the
    held-out set and the pairs reach the helpers through the fork.  The
    cells left over then run in turn on the caller, each kind's steps on
    every core.  Rows come back in kind order and a kind's bits do not
    depend on its worker count, so neither do the report's.  Raises the
    earliest failed cell's error once every cell has ended.
    """
    check_far(far_target)
    if len(set(kinds)) != len(kinds):
        raise ValueError("a fusion kind is listed more than once: "
                         f"{[k.value for k in kinds]}")
    ds = gen_synthetic(cfg.data)
    eval_spec = replace(cfg.data, seed=cfg.data.seed + 1)
    eval_ds = gen_synthetic(eval_spec)
    pairs = make_pairs(eval_ds.labels, genuine_pairs, impostor_pairs,
                       seed=eval_spec.seed)

    def cell(kind: FusionKind) -> tuple[AblationRow, TrainResult]:
        run_cfg = replace(cfg, fusion=kind)
        res = train(run_cfg, dataset=ds)
        ver = evaluate_verification(res.params, run_cfg.model, eval_ds,
                                    pairs, far_target, cfg.batch_size)
        return AblationRow(
            kind=kind,
            final_loss=res.epoch_losses[-1] if res.epoch_losses else math.nan,
            train_acc=res.epoch_accs[-1] if res.epoch_accs else math.nan,
            pair_acc=ver["pair_acc"], tar=ver["tar"],
            threshold=ver["threshold"]), res

    with closing(Workers(len(kinds), cell)) as workers:
        count = workers.count
        whole = len(kinds) - len(kinds) % count if count > 1 else 0
        done = workers.map(kinds[:whole])
    done += [cell(kind) for kind in kinds[whole:]]
    return AblationReport(far_target, [row for row, _ in done],
                          {row.kind: res for row, res in done})


def format_ablation_report(report: AblationReport) -> str:
    """Human-readable table followed by a machine-readable key=value block."""
    head = (f"{'kind':<12} {'final_loss':>12} {'train_acc':>10} "
            f"{'pair_acc':>10} {'tar':>8} {'threshold':>10}")
    out = [f"fusion ablation (tar at far={report.far_target:g})", head,
           "-" * len(head)]
    for r in report.rows:
        out.append(f"{r.kind.value:<12} {r.final_loss:>12.6f} "
                   f"{r.train_acc:>10.4f} {r.pair_acc:>10.4f} "
                   f"{r.tar:>8.4f} {r.threshold:>10.4f}")
    out.append("")
    for r in report.rows:
        out.append(f"kind={r.kind.value} final_loss={_fmt(r.final_loss)} "
                   f"train_acc={_fmt(r.train_acc)} pair_acc={_fmt(r.pair_acc)} "
                   f"tar={_fmt(r.tar)} threshold={_fmt(r.threshold)}")
    return "\n".join(out) + "\n"


# -- flat key=value configuration ---------------------------------------------

def _finite(v: str) -> float:
    if not math.isfinite(x := float(v)):
        raise ValueError(f"{v!r} is not a finite number")
    return x


def _int_list(v: str) -> tuple[int, ...]:
    return tuple(int(part) for part in v.split(","))


def _choice(kind: type[Enum]):
    """Parser for the values of one enum."""
    def parse(v: str):
        try:
            return kind(v)
        except ValueError:
            raise ValueError(f"{v!r} is not one of "
                             f"{[k.value for k in kind]}") from None
    return parse


# Every config key once: (key, parse text, the dotted RunConfig fields it
# sets, the first of which reads it back; ``stages.<field>`` is that field of
# every stage, one list item each).  Unset keys default to the value read from
# RunConfig(), except the margins: the loss kind's model.MARGIN_DEFAULTS.
CONFIG_KEYS = (
    ("identities", int, ("data.identity_count", "loss.class_count")),
    ("samples_per_identity", int, ("data.samples_per_identity",)),
    ("image_size", int, ("data.height", "data.width")),
    ("channels", int, ("data.channels", "model.in_channels")),
    ("noise_sigma", _finite, ("data.noise_sigma",)),
    ("shift_range", int, ("data.shift_range",)),
    ("data_seed", int, ("data.seed",)),
    ("stem_channels", int, ("model.stem_channels",)),
    ("stage_blocks", _int_list, ("stages.blocks",)),
    ("stage_channels", _int_list, ("stages.channels",)),
    ("stage_strides", _int_list, ("stages.stride",)),
    ("embed_dim", int, ("model.embed_dim",)),
    ("dilations", _int_list, ("model.dilations",)),
    ("reduction", int, ("model.reduction",)),
    ("min_width", int, ("model.min_width",)),
    ("fusion", _choice(FusionKind), ("fusion",)),
    ("loss", _choice(MarginKind), ("loss.kind",)),
    ("scale", _finite, ("loss.scale",)),
    ("m1", _finite, ("loss.m1",)),
    ("m2", _finite, ("loss.m2",)),
    ("m3", _finite, ("loss.m3",)),
    ("lr_init", _finite, ("lr_init",)),
    ("lr_min", _finite, ("lr_min",)),
    ("momentum", _finite, ("momentum",)),
    ("weight_decay", _finite, ("weight_decay",)),
    ("batch_size", int, ("batch_size",)),
    ("epochs", int, ("epochs",)),
    ("seed", int, ("seed",)),
)
_PARSERS = {key: parse for key, parse, _ in CONFIG_KEYS}
_MARGINS = ("m1", "m2", "m3")


def _read_field(cfg: RunConfig, path: str):
    """The value of one CONFIG_KEYS field path in ``cfg``."""
    group, _, name = path.rpartition(".")
    if group == "stages":
        return tuple(getattr(s, name) for s in cfg.model.stages)
    return attrgetter(path)(cfg)


def read_kv_file(path) -> dict[str, str]:
    """`key = value` pairs of an ASCII file, comments (#) skipped; a line
    without ``=`` or with an unknown or repeated key fails at ``path:line``."""
    pairs: dict[str, str] = {}
    for lineno, line in msct.text_lines(path):
        if line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, "
                              f"got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate config key "
                              f"{key!r}")
        pairs[key] = value
    return pairs


def parse_value(key: str, text: str):
    """One config key's value from its text, or ConfigError."""
    if key not in _PARSERS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def build_config(pairs: dict[str, str]) -> RunConfig:
    """RunConfig from raw string pairs layered over desk defaults, each value
    set in every field its CONFIG_KEYS row names."""
    vals = {key: parse_value(key, raw) for key, raw in pairs.items()}
    base = RunConfig()
    fields: dict[str, dict] = defaultdict(dict)
    for key, _, paths in CONFIG_KEYS:
        if key in vals or key not in _MARGINS:
            value = vals[key] if key in vals else _read_field(base, paths[0])
            for path in paths:
                group, _, name = path.rpartition(".")
                fields[group][name] = value
    stages = fields.pop("stages")
    if len({len(v) for v in stages.values()}) != 1:
        *most, last = [key for key, _, paths in CONFIG_KEYS
                       if paths[0].startswith("stages.")]
        raise ConfigError(f"{', '.join(most)} and {last} must have equal "
                          "length")
    try:
        data = SyntheticSpec(**fields["data"])
        model = TinyNetConfig(
            stages=tuple(StageSpec(**dict(zip(stages, spec)))
                         for spec in zip(*stages.values())), **fields["model"])
        return RunConfig(data=data, model=model,
                         loss=MarginLossConfig.of_kind(**fields["loss"]),
                         **fields[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _format_value(v) -> str:
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def config_to_lines(cfg: RunConfig) -> list[str]:
    """Flat echo of the config; reading these lines back reproduces cfg."""
    return [f"{key} = {_format_value(_read_field(cfg, paths[0]))}"
            for key, _, paths in CONFIG_KEYS]


# -- checkpoints ---------------------------------------------------------------

def _check_tensors(cfg: RunConfig, tensors: dict[str, np.ndarray]) -> None:
    """Raises msct.FormatError naming the first of ``run_tensor_shapes``, in
    init order, that ``tensors`` (float32, as stored) lacks, holds misshapen
    or holds non-finite, and then a tensor the table does not name."""
    shapes = run_tensor_shapes(cfg)
    for name, want in shapes.items():
        got = tensors[name].shape if name in tensors else "nothing"
        if got != want:
            raise msct.FormatError(f"checkpoint parameter {name!r}: the files "
                                   f"hold {got}, the config needs {want}")
        if not np.isfinite(tensors[name]).all():
            raise msct.FormatError(f"checkpoint parameter {name!r} holds "
                                   "non-finite values")
    unnamed = sorted(tensors.keys() - shapes.keys())
    if unnamed:
        raise msct.FormatError(f"checkpoint parameter {unnamed[0]!r}: the "
                               "config names no such parameter")


def save_checkpoint(directory, params: dict[str, np.ndarray],
                    cfg: RunConfig) -> None:
    """A config echo (``config.txt``) and one ``msct.tensor_filename`` file
    per tensor of ``run_tensor_shapes``.  ``params``, as float32 stores it,
    must pass ``load_checkpoint``'s check, or msct.FormatError is raised
    before anything is written.

    Everything is written into a sibling directory ``.<name>.new-<pid>``,
    removed again if a write fails, which then takes the place of
    ``directory``: a previous checkpoint there is renamed aside, the new
    one renamed in, and the old one deleted.  So ``directory`` never holds
    a mix of new and old files.  A kill between the two renames leaves no
    checkpoint at ``directory`` and the previous one beside it as
    ``.<name>.old-<pid>``.
    """
    with np.errstate(over="ignore"):  # an overflow is the inf checked next
        stored = {k: np.asarray(v, dtype="<f4") for k, v in params.items()}
    _check_tensors(cfg, stored)
    parent, name = os.path.split(os.path.abspath(directory))
    os.makedirs(parent, exist_ok=True)
    staged = os.path.join(parent, f".{name}.new-{os.getpid()}")
    old = os.path.join(parent, f".{name}.old-{os.getpid()}")
    # what a killed write by an earlier process of this pid left behind
    shutil.rmtree(staged, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)
    try:
        os.mkdir(staged)
        for key in run_tensor_shapes(cfg):
            msct.write_tensor(
                os.path.join(staged, msct.tensor_filename(key)), stored[key])
        with open(os.path.join(staged, "config.txt"), "w") as fh:
            fh.write("\n".join(config_to_lines(cfg)) + "\n")
        if os.path.isdir(directory):
            os.replace(directory, old)
        os.replace(staged, directory)
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(directory) -> tuple[dict[str, np.ndarray], RunConfig]:
    """Tensors and config of a checkpoint directory: the config's
    ``run_tensor_shapes``, each read from its ``msct.tensor_filename`` file
    and checked as ``save_checkpoint`` checks them; then a ``.msct`` file no
    parameter names raises msct.FormatError.  Other files (an old
    ``manifest.txt``) are ignored."""
    cfg = build_config(read_kv_file(os.path.join(directory, "config.txt")))
    named = {msct.tensor_filename(k): k for k in run_tensor_shapes(cfg)}
    params = {name: msct.read_tensor(os.path.join(directory, filename))
              for filename, name in named.items()
              if os.path.exists(os.path.join(directory, filename))}
    _check_tensors(cfg, params)
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".msct") and filename not in named:
            raise msct.FormatError(f"{os.path.join(directory, filename)}: no "
                                   "parameter of the config names this file")
    return params, cfg
