"""Desk-scale embedding backbone and margin-based softmax losses.

TinyNet is a deliberately small stand-in for a production backbone: a stem
convolution, one or more stages of residual multi-scale blocks, global
average pooling, and an FC head whose output is L2-normalized onto the unit
sphere.  The margin losses (ArcFace / CosFace / combined-margin forms)
operate on cosine logits between embeddings and class-center rows.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from contextlib import closing
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import tensor as T
from .autograd import Tape, Var
from .block import (BLOCK_PARAM_NAMES, DEFAULT_MIN_WIDTH, DEFAULT_REDUCTION,
                    FusionKind, block_cost, block_forward_on_tape,
                    block_param_shapes, init_param)


@dataclass(frozen=True)
class StageSpec:
    """One stage: ``blocks`` residual units at ``channels`` width.

    The first block applies ``stride`` (with a 1x1 projection shortcut when
    stride or width changes); the rest are stride-1 identity residuals.
    """

    blocks: int
    channels: int
    stride: int = 1

    def __post_init__(self):
        if self.blocks < 1 or self.channels < 1 or self.stride < 1:
            raise ValueError(f"invalid stage spec {self}")


@dataclass(frozen=True)
class TinyNetConfig:
    in_channels: int = 3
    stem_channels: int = 16
    stages: tuple[StageSpec, ...] = (StageSpec(blocks=1, channels=32, stride=2),)
    embed_dim: int = 64
    dilations: tuple[int, int] = (1, 2)
    reduction: int = DEFAULT_REDUCTION
    min_width: int = DEFAULT_MIN_WIDTH
    fusion: FusionKind = FusionKind.MSCONV

    def __post_init__(self):
        if self.in_channels < 1 or self.stem_channels < 1 or self.embed_dim < 1:
            raise ValueError("channel and embedding widths must be positive")
        if not self.stages:
            raise ValueError("at least one stage required")
        if len(self.dilations) != 2:
            raise ValueError("dilations must be two comma-separated integers")
        if min(self.dilations) < 1:
            raise ValueError("dilations must be positive")

    def with_fusion(self, kind: FusionKind) -> "TinyNetConfig":
        """Same architecture with every block switched to ``kind``."""
        return replace(self, fusion=kind)

    def total_stride(self) -> int:
        out = 1
        for s in self.stages:
            out *= s.stride
        return out

    def block_layout(self):
        """Yields (name, c_in, c_out, stride, kind) for every block in order."""
        c_prev = self.stem_channels
        for si, stage in enumerate(self.stages):
            for bi in range(stage.blocks):
                stride = stage.stride if bi == 0 else 1
                yield f"s{si}b{bi}", c_prev, stage.channels, stride, self.fusion
                c_prev = stage.channels


def param_shapes(cfg: TinyNetConfig) -> dict[str, tuple[int, ...]]:
    """Every backbone parameter's shape by name, in init order: ``stem``,
    each block's arrays (``block_param_shapes``) as ``<block>/<array>`` and a
    1x1 ``<block>/proj`` exactly when the block changes stride or width,
    then ``w_embed`` and ``b_embed``."""
    shapes = {"stem": (3, 3, cfg.in_channels, cfg.stem_channels)}
    for name, c_in, c_out, stride, _ in cfg.block_layout():
        for p, shape in block_param_shapes(c_in, c_out, cfg.reduction,
                                           cfg.min_width).items():
            shapes[f"{name}/{p}"] = shape
        if stride != 1 or c_in != c_out:
            shapes[f"{name}/proj"] = (1, 1, c_in, c_out)
    shapes["w_embed"] = (cfg.stages[-1].channels, cfg.embed_dim)
    shapes["b_embed"] = (cfg.embed_dim,)
    return shapes


def init_params(cfg: TinyNetConfig, seed: int) -> dict[str, np.ndarray]:
    """``init_param`` over ``param_shapes(cfg)``: every layer draws from its
    own stream, tagged with its name (``w_embed``'s is ``embed/w``), so adding
    or removing a layer never shifts another layer's initialization."""
    return {name: init_param(seed, "embed/w" if name == "w_embed" else name,
                             shape)
            for name, shape in param_shapes(cfg).items()}


def tinynet_forward(tape: Tape, x: Var, params: dict[str, Var],
                    cfg: TinyNetConfig, traces: list | None = None) -> Var:
    """Record the backbone forward pass; returns the unit-norm embedding Var.

    Reads only the network's own names from ``params``.  Pass a list as
    ``traces`` to collect (block name, intermediates) pairs for
    visualization, each as ``block_forward_on_tape`` returns them.
    """
    _, h, w, _ = x.value.shape
    stride_all = cfg.total_stride()
    if h % stride_all or w % stride_all:
        raise ValueError(f"spatial dims {h}x{w} not divisible by total stride "
                         f"{stride_all}")
    cur = tape.conv2d(x, params["stem"], dilation=1, stride=1)
    for name, c_in, c_out, stride, kind in cfg.block_layout():
        blk = {p: params[f"{name}/{p}"] for p in BLOCK_PARAM_NAMES}
        if f"{name}/proj" in params:
            shortcut = tape.conv2d(cur, params[f"{name}/proj"],
                                   dilation=1, stride=stride)
        else:
            shortcut = cur
        cur, tr = block_forward_on_tape(tape, cur, blk, dilations=cfg.dilations,
                                        stride=stride, kind=kind,
                                        shortcut=shortcut)
        if traces is not None:
            traces.append((name, tr))
    pooled = tape.gap(cur)
    emb = tape.fc(pooled, params["w_embed"], params["b_embed"])
    return tape.l2_normalize_rows(emb)


def cost_rows(cfg: TinyNetConfig, height: int, width: int,
              ) -> list[tuple[str, int, int]]:
    """(row, params, flops) per layer of one sample's forward pass.

    Rows: ``stem``; per block ``<block>`` (``block.block_cost``),
    ``<block>/proj`` for a projected shortcut and ``<block>/add`` for the
    residual sum; ``head``.  Params come from ``param_shapes``; flops follow
    ``block_cost``'s convention, and the final l2 normalisation is free.
    """
    shapes = param_shapes(cfg)
    size = {name: math.prod(shape) for name, shape in shapes.items()}
    # a stride-1 conv or an FC spends one MAC per weight per output position
    rows = [("stem", size["stem"], height * width * size["stem"])]
    h, w = height, width
    for name, _, c_out, stride, kind in cfg.block_layout():
        bd = block_cost({p: shapes[f"{name}/{p}"] for p in BLOCK_PARAM_NAMES},
                        h, w, stride, kind)
        rows.append((name, bd["params"], bd["flops"]))
        h, w = T.conv_out_len(h, stride), T.conv_out_len(w, stride)
        if proj := size.get(f"{name}/proj"):
            rows.append((f"{name}/proj", proj, h * w * proj))
        rows.append((f"{name}/add", 0, h * w * c_out))
    c = shapes["w_embed"][0]
    head = size["w_embed"] + size["b_embed"]
    rows.append(("head", head, h * w * c + c + head))
    return rows


def _cores() -> int:
    """CPUs this process may run on, read afresh on every call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def depth_step(cfg: TinyNetConfig, size: tuple[int, int], dtype) -> int:
    """Images of ``size`` (height, width) whose largest activation in
    ``dtype`` fits ``T._DEPTH_BYTES``: the chunk size of every depth-first
    pass, in inference and in training alike.  It is 0 when one image's
    activation alone is larger, and ``T.even_chunks`` then runs one image
    per chunk."""
    h, w = size
    elems = h * w * cfg.stem_channels
    for _, _, c_out, stride, _ in cfg.block_layout():
        h, w = T.conv_out_len(h, stride), T.conv_out_len(w, stride)
        elems = max(elems, h * w * c_out)
    return T._DEPTH_BYTES // (elems * np.dtype(dtype).itemsize)


# the caller's end of every open helper pipe in this process
_CALLER_ENDS = set()
# whether this process is running the chunks of a map
_MAPPING = False
# in a helper, the pid of the caller that forked it; None in a caller
_CALLER = None


class Workers:
    """Up to ``most`` workers, and no more than ``_cores()``, that run
    ``work(chunk, *shared)``: the caller and ``count - 1`` helper processes,
    forked here once.  A helper inherits ``work`` and whatever it reads
    through the fork.  A caller that cannot fork (no "fork" start method,
    or a daemonic process) runs every chunk itself, ``count`` being 1, and
    so does a process that opens its ``Workers`` while it runs the chunks
    of a map: a nested map stays on the worker that runs the outer chunk,
    so maps inside maps never oversubscribe the cores."""

    def __init__(self, most: int, work):
        self.work = work
        self.helpers = []
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon or _MAPPING):
            return
        ctx = multiprocessing.get_context("fork")
        for _ in range(min(_cores(), most) - 1):
            conn, child = ctx.Pipe()
            _CALLER_ENDS.add(conn)
            process = ctx.Process(target=self._serve,
                                  args=(child, os.getpid()), daemon=True)
            process.start()
            child.close()
            self.helpers.append((conn, process))

    @property
    def count(self) -> int:
        """The workers: the caller and its helpers."""
        return len(self.helpers) + 1

    def _run(self, chunks: list, shared: tuple) -> list:
        """``work`` of each chunk in turn; the first to raise ends the list
        with its exception.  In a helper whose caller has died, and so is
        no longer its parent, the next chunk raises SystemExit instead."""
        global _MAPPING
        out, outer, _MAPPING = [], _MAPPING, True
        try:
            for chunk in chunks:
                if _CALLER is not None and os.getppid() != _CALLER:
                    raise SystemExit(1)
                try:
                    out.append(self.work(chunk, *shared))
                except Exception as exc:
                    out.append(exc)
                    break
        finally:
            _MAPPING = outer
        return out

    def _serve(self, conn, caller: int) -> None:
        """A helper of ``caller``: one reply to each message.  It first
        closes every caller's pipe end it inherited, of any ``Workers``, so
        a caller that dies reaches every helper as end of file, or as a
        broken pipe once its chunks end, or, between two chunks of any map
        it runs, as a parent that is no longer ``caller``; it ends then."""
        global _CALLER
        _CALLER = caller
        for end in _CALLER_ENDS:
            end.close()
        try:
            while True:
                conn.send(self._run(*conn.recv()))
        except (EOFError, OSError):
            return

    def map(self, chunks: list, *shared) -> list:
        """``work(chunk, *shared)`` of every chunk, in plan order; chunk k
        runs on worker k % count, the caller being worker 0.  Raises the
        earliest failed chunk's exception once every helper has answered; a
        helper that died answers ChildProcessError, naming how it ended."""
        count = self.count
        for h, (conn, _) in enumerate(self.helpers, start=1):
            try:
                conn.send((chunks[h::count], shared))
            except OSError:
                pass  # a dead helper; its recv below reports it
        replies = [self._run(chunks[::count], shared)]
        for conn, process in self.helpers:
            try:
                replies.append(conn.recv())
            except (EOFError, OSError):
                process.join()
                code = process.exitcode
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with code {code}")
                replies.append(
                    [ChildProcessError(f"helper {process.pid} {how}")])
        out = []
        for k in range(len(chunks)):
            part = replies[k % count][k // count]
            if isinstance(part, BaseException):
                raise part
            out.append(part)
        return out

    def close(self) -> None:
        """Kill and join the helpers: an idle one holds nothing to clean
        up, and a busy one (the caller was interrupted) need not finish."""
        for conn, process in self.helpers:
            _CALLER_ENDS.discard(conn)
            conn.close()
            process.kill()
            process.join()


def tinynet_embed(x: T.Tensor4, params: dict[str, np.ndarray],
                  cfg: TinyNetConfig, batch_size: int | None = None,
                  ) -> T.ChannelVec:
    """Pure embedding extraction, run depth-first in cache-sized chunks on
    every core.

    ``x`` splits once, by ``T.even_chunks`` at the ``depth_step``, and at
    no more than ``batch_size`` when given, and the whole network runs on
    one chunk at a time, on a fresh constant tape that records nothing.
    The chunks run on the ``Workers`` opened for the call, one per core up
    to one per chunk, with the caller's numpy error state, and closed
    within it.  Each process's tapes share one workspace for the call
    (see ``autograd.Tape``), the buffers its first, largest chunk
    allocated, which the returned embeddings never alias; ``train``'s
    micro-batches reuse theirs the same way, in a workspace of their own.

    The plan never depends on the core count and each chunk's bits depend
    only on its images, so the bytes are those of one pass over the whole
    of ``x``, on any number of cores; see the ``tensor`` module docstring.
    """
    x = T.check_layout(x, "nhwc", "input")
    n = x.shape[0]
    dtype = np.result_type(x, params["stem"])
    step = min(depth_step(cfg, x.shape[1:3], dtype),
               n if batch_size is None else batch_size)
    chunks = T.even_chunks(n, step)
    workspace = []

    def run(chunk: slice) -> np.ndarray:
        tape = Tape(workspace)
        consts = {name: tape.constant(v) for name, v in params.items()}
        return tinynet_forward(tape, tape.constant(x[chunk]), consts, cfg).value

    with closing(Workers(len(chunks), run)) as workers:
        return np.concatenate(workers.map(chunks))


# -- margin losses -----------------------------------------------------------

# arccos argument clamp; keeps the angular forms differentiable at cos = +-1
COS_CLAMP = 1.0 - 1e-7


class MarginKind(Enum):
    PLAIN = "plain"
    ARC = "arc"
    COS = "cos"
    COMBINED = "combined"


# (m1, m2, m3) each loss kind takes for the margins a caller leaves unset
MARGIN_DEFAULTS = {
    MarginKind.PLAIN: (1.0, 0.0, 0.0),
    MarginKind.ARC: (1.0, 0.5, 0.0),
    MarginKind.COS: (1.0, 0.0, 0.35),
    MarginKind.COMBINED: (1.0, 0.3, 0.2),
}


@dataclass(frozen=True)
class MarginLossConfig:
    """Scaled cosine logits with a margin on the target class.

    The target logit is s * (cos(m1*theta + m2) - m3) where theta is the
    angle between the embedding and its class center; non-target logits are
    plain s * cos(theta_j).  m1=1, m2=0 reduces the target form to
    cos(theta) - m3 and is evaluated without any arccos.
    """

    kind: MarginKind
    class_count: int
    scale: float = 64.0
    m1: float = 1.0
    m2: float = 0.0
    m3: float = 0.0

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.m1 <= 0 or self.m2 < 0 or self.m3 < 0:
            raise ValueError("margins must be non-negative (m1 positive)")
        if self.kind is MarginKind.PLAIN and \
                (self.m1, self.m2, self.m3) != (1.0, 0.0, 0.0):
            raise ValueError("plain loss takes no margins")

    @classmethod
    def of_kind(cls, kind: MarginKind, class_count: int, scale: float = 64.0,
                **margins: float) -> "MarginLossConfig":
        """The kind's MARGIN_DEFAULTS, with any margin named in ``margins``."""
        defaults = dict(zip(("m1", "m2", "m3"), MARGIN_DEFAULTS[kind]))
        return cls(kind, class_count, scale, **{**defaults, **margins})


def _check_margin_inputs(emb: np.ndarray, labels: np.ndarray,
                         centers: np.ndarray, cfg: MarginLossConfig) -> np.ndarray:
    if emb.ndim != 2 or centers.ndim != 2 or emb.shape[1] != centers.shape[1]:
        raise T.ShapeError(f"embeddings {emb.shape} vs centers {centers.shape}")
    if centers.shape[0] != cfg.class_count:
        raise T.ShapeError(f"{centers.shape[0]} centers for {cfg.class_count} classes")
    labels = np.asarray(labels)
    if labels.shape != (emb.shape[0],):
        raise T.ShapeError(f"labels shape {labels.shape} for batch {emb.shape[0]}")
    if labels.min() < 0 or labels.max() >= cfg.class_count:
        raise ValueError("label out of range")
    for tag, rows in (("embedding", emb), ("center", centers)):
        norms = np.sqrt(np.sum(rows * rows, axis=1))
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > 1e-4:
            raise ValueError(f"{tag} rows not L2-normalized (off by {worst:.3e})")
    return labels.astype(np.int64)


def _margin_forward(emb, labels, centers, cfg):
    """Loss value plus the analytic gradients w.r.t. embeddings and centers."""
    labels = _check_margin_inputs(emb, labels, centers, cfg)
    n = emb.shape[0]
    rows = np.arange(n)
    cos_all = emb @ centers.T
    target = cos_all[rows, labels]

    if cfg.m1 == 1.0 and cfg.m2 == 0.0:
        psi = target - cfg.m3
        factor = np.ones(n)
    else:
        clamped = np.clip(target, -COS_CLAMP, COS_CLAMP)
        theta = np.arccos(clamped)
        psi = np.cos(cfg.m1 * theta + cfg.m2) - cfg.m3
        active = (target > -COS_CLAMP) & (target < COS_CLAMP)
        factor = np.where(
            active, cfg.m1 * np.sin(cfg.m1 * theta + cfg.m2) / np.sin(theta), 0.0)

    logits = cfg.scale * cos_all
    logits[rows, labels] = cfg.scale * psi
    peak = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - peak)
    total = expd.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) + peak[:, 0] - logits[rows, labels]))

    dlogits = expd / total
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    dcos = cfg.scale * dlogits
    dcos[rows, labels] *= factor
    return loss, dcos @ centers, dcos.T @ emb


def margin_ce_on_tape(tape: Tape, emb: Var, centers: Var, labels,
                      cfg: MarginLossConfig) -> Var:
    """Margin cross-entropy as one fused tape op with analytic backward."""
    loss, d_emb, d_centers = _margin_forward(emb.value, labels,
                                             centers.value, cfg)

    def vjp(g):
        s = float(g)
        return (s * d_emb, s * d_centers)

    return tape.emit("margin_ce", (emb, centers), np.asarray(loss), vjp)


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Unit-norm rows; zero rows stay zero."""
    norms = np.sqrt(np.sum(rows * rows, axis=1, keepdims=True))
    return rows / np.where(norms > 0, norms, 1.0)
