"""Multi-scale convolution block with sigmoid-difference channel attention.

Two same-size 3x3 branches at different dilations produce U1 (fine scale) and
U2 (coarse scale).  Their element-wise product U3 = U1*U2 highlights salient
features where both branches respond; their difference U4 = U1-U2 carries the
differential features and cancels noise shared by the branches.  A squeeze
(global average pool), bottleneck FC, and expand FC turn U3 into two channel
score vectors a_hat, b_hat; the fused output is

    V = U2 + sigmoid(a_hat - b_hat) * U4

which equals the softmax-weighted two-branch sum a*U1 + b*U2, so the block is
an exact reparameterization of selective-kernel fusion (see
``equivalence_check``).  Ablation variants swap either fusion input for a
plain sum; a reference selective-kernel path is included for comparison.

On the tape a block is its two branch convolutions plus one ``msconv_fuse``
op (``fuse_on_tape``) that does everything after them, residual add
included; the fusion kind picks its dataflow.  ``block_param_shapes`` names
a block's arrays and their shapes, ``init_param`` draws any of them and
``block_cost`` counts a block's work from the shapes alone.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .autograd import Tape, Var


class FusionKind(Enum):
    """Which pair of fusion ops feeds the attention and the reweighting."""

    MSCONV = "msconv"              # attention on U1*U2, reweights U1-U2
    MSCONV_SUM = "msconv_sum"      # attention on U1+U2, reweights U1-U2
    NO_MO = "msconv_sum"           # multiplication removed: alias of MSCONV_SUM
    NO_SO = "no_so"                # attention on U1*U2, reweights U1+U2
    NO_MO_NO_SO = "no_mo_no_so"    # both replaced by sums
    SKCONV_REFERENCE = "skconv"    # softmax-weighted sum of U1, U2

    @classmethod
    def _missing_(cls, value):
        # "no_mo" names the same dataflow as "msconv_sum"; accept the spelling
        return cls.MSCONV_SUM if value == "no_mo" else None


# fusion kinds whose attention input is the element-wise product
_MUL_ATTENTION = frozenset({FusionKind.MSCONV, FusionKind.NO_SO})
# fusion kinds whose reweighted tensor is the element-wise difference
_SUB_TARGET = frozenset({FusionKind.MSCONV, FusionKind.MSCONV_SUM})

DEFAULT_REDUCTION = 16
DEFAULT_MIN_WIDTH = 32


def reduced_width(channels: int, reduction: int = DEFAULT_REDUCTION,
                  min_width: int = DEFAULT_MIN_WIDTH) -> int:
    """Bottleneck width d = max(floor(channels / reduction), min_width)."""
    if channels < 1 or reduction < 1 or min_width < 1:
        raise ValueError("channels, reduction and min_width must be positive")
    return max(channels // reduction, min_width)


def param_rng(seed: int, tag: str) -> np.random.Generator:
    """Deterministic per-layer stream; distinct tags give independent streams."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def init_param(seed: int, tag: str, shape: tuple[int, ...]) -> np.ndarray:
    """The one draw rule: a 1-D shape (a bias) is zeros; any other shape is
    Normal(0, 1/fan_in) with fan_in = prod(shape[:-1]), from ``tag``'s
    stream."""
    if len(shape) == 1:
        return np.zeros(shape)
    return param_rng(seed, tag).normal(
        0.0, 1.0 / np.sqrt(math.prod(shape[:-1])), size=shape)


def block_param_shapes(c_in: int, c_out: int, reduction: int,
                       min_width: int) -> dict[str, tuple[int, ...]]:
    """A block's array shapes by name, in checkpoint order: the branch
    kernels k3 and k5 (one shape, two dilations) and the attention
    bottleneck, whose expand half-widths are the a_hat and b_hat heads."""
    d = reduced_width(c_out, reduction, min_width)
    return {"k3": (3, 3, c_in, c_out), "k5": (3, 3, c_in, c_out),
            "w_reduce": (c_out, d), "b_reduce": (d,),
            "w_expand": (d, 2 * c_out), "b_expand": (2 * c_out,)}


BLOCK_PARAM_NAMES = tuple(block_param_shapes(1, 1, 1, 1))


@dataclass(frozen=True)
class MSConvState:
    """One block's arrays, keyed as in ``block_param_shapes``, and its branch
    geometry.  No library code uses it; it stays only for
    ``perfbench/test_perfbench.py``."""

    params: dict[str, np.ndarray]
    dilations: tuple[int, int]
    stride: int

    @classmethod
    def init(cls, c_in: int, c_out: int, *, seed: int = 0, tag: str = "block",
             dilations: tuple[int, int] = (1, 2), stride: int = 1,
             reduction: int = DEFAULT_REDUCTION,
             min_width: int = DEFAULT_MIN_WIDTH) -> "MSConvState":
        """``init_param`` over the block's shapes, array p tagged ``tag/p``."""
        shapes = block_param_shapes(c_in, c_out, reduction, min_width)
        params = {p: init_param(seed, f"{tag}/{p}", shape)
                  for p, shape in shapes.items()}
        return cls(params, dilations, stride)


TRACE_FIELDS = ("u1", "u2", "s", "z", "a_hat", "b_hat", "c")


def block_forward_on_tape(tape: Tape, x: Var, params: dict[str, Var], *,
                          dilations: tuple[int, int], stride: int = 1,
                          kind: FusionKind = FusionKind.MSCONV,
                          shortcut: Var | None = None,
                          ) -> tuple[Var, dict[str, Var | np.ndarray]]:
    """Record one block forward pass; shared by inference and training.

    Records the two branch convolutions and one ``msconv_fuse`` op, which
    also adds ``shortcut`` (the residual input, when given) to the fused
    output.  Returns the output Var plus the named intermediates
    (TRACE_FIELDS): ``u1`` and ``u2`` as Vars, ``s``, ``z``, ``a_hat``,
    ``b_hat`` and ``c`` as arrays.  The fused op never builds U1*U2 or U1-U2
    whole, so neither is traced.
    """
    if not isinstance(kind, FusionKind):
        raise ValueError(f"unknown fusion kind {kind!r}")
    u1 = tape.conv2d(x, params["k3"], dilation=dilations[0], stride=stride)
    u2 = tape.conv2d(x, params["k5"], dilation=dilations[1], stride=stride)
    v, gate = fuse_on_tape(tape, u1, u2, params, kind, shortcut)
    return v, {"u1": u1, "u2": u2, **gate}


# the attention parameters, in the fused op's input order
_GATE_PARAMS = ("w_reduce", "b_reduce", "w_expand", "b_expand")


def fuse_on_tape(tape: Tape, u1: Var, u2: Var, params: dict[str, Var],
                 kind: FusionKind, shortcut: Var | None,
                 ) -> tuple[Var, dict[str, np.ndarray]]:
    """Everything after the branch convs as one tape op with analytic vjp.

    Per chunk of ``T._chunk_step`` images (one image of ``u1``) the forward
    forms U3 in one reused buffer and pools it into ``s``; the gate runs on
    the whole batch; a second walk writes each chunk of the output in place.
    Each value keeps the expression and operand order of the Tape ops that
    would compute it one by one (mul or add, gap, fc, relu, sigmoid,
    scale_channels, add), so its bits equal theirs.  The vjp saves ``u1``,
    ``u2``, ``s``, ``z`` and ``c``, recomputes U4 per chunk, and allocates
    only the two branch gradients; the shortcut's gradient is the upstream
    gradient itself.
    """
    u1v, u2v = u1.value, u2.value
    wr, br, we, be = (params[p].value for p in _GATE_PARAMS)
    n, h, w, ch = u1v.shape
    if u2v.shape != u1v.shape or (shortcut is not None
                                  and shortcut.value.shape != u1v.shape):
        raise T.ShapeError(f"fusion needs equal shapes, got {u1v.shape}, "
                           f"{u2v.shape}" + ("" if shortcut is None else
                                             f", {shortcut.value.shape}"))
    if we.ndim != 2 or we.shape[1] != 2 * ch:
        raise T.ShapeError(f"expand weights must be (d, {2 * ch}) for {ch} "
                           f"channels, got {we.shape}")
    attend = np.multiply if kind in _MUL_ATTENTION else np.add
    skconv = kind is FusionKind.SKCONV_REFERENCE
    # skconv's gradient is msconv_sum's: the two are one function
    differ = np.subtract if skconv or kind in _SUB_TARGET else np.add
    step = T._chunk_step(n, u1v[0].nbytes)
    dtype = np.result_type(u1v, u2v)

    def chunks():
        for i in range(0, n, step):
            yield slice(i, min(i + step, n))

    buf = np.empty((step, h, w, ch), dtype=dtype)
    s = np.empty((n, ch), dtype=dtype)
    for rows in chunks():
        u3 = buf[:rows.stop - rows.start]
        attend(u1v[rows], u2v[rows], out=u3)
        s[rows] = u3.mean(axis=(1, 2))
    z = T.relu(T.fc(s, wr, br))
    e = T.fc(z, we, be)
    a_hat, b_hat = e[:, :ch], e[:, ch:]
    c = T.sigmoid(a_hat - b_hat)
    cb = c[:, None, None, :]
    out = tape.empty(u1v.shape, np.result_type(dtype, c))
    if skconv:
        bb = (1.0 - c)[:, None, None, :]
    for rows in chunks():
        o = out[rows]
        if skconv:
            t = buf[:rows.stop - rows.start]
            np.multiply(u1v[rows], cb[rows], out=o)
            np.multiply(u2v[rows], bb[rows], out=t)
            o += t
        else:
            differ(u1v[rows], u2v[rows], out=o)
            o *= cb[rows]
            o += u2v[rows]
        if shortcut is not None:
            o += shortcut.value[rows]

    def vjp(g):
        gbuf = np.empty((step, h, w, ch), dtype=np.result_type(g, dtype))
        gc = np.empty_like(c)
        for rows in chunks():
            u4 = gbuf[:rows.stop - rows.start]
            differ(u1v[rows], u2v[rows], out=u4)
            u4 *= g[rows]
            gc[rows] = u4.sum(axis=(1, 2))
        gd = gc * c * (1.0 - c)
        ge = np.concatenate([gd, -gd], axis=1)
        gz = (ge @ we.T) * (z > 0)
        gs = (gz @ wr.T)[:, None, None, :] / (h * w)
        gu1 = np.empty_like(u1v, dtype=gbuf.dtype)
        gu2 = np.empty_like(gu1)
        for rows in chunks():
            d1, d2, gk = gu1[rows], gu2[rows], g[rows]
            t = gbuf[:rows.stop - rows.start]
            np.multiply(gk, cb[rows], out=t)
            differ(gk, t, out=d2)
            if kind in _MUL_ATTENTION:
                np.multiply(gs[rows], u2v[rows], out=d1)
                d1 += t
                np.multiply(gs[rows], u1v[rows], out=t)
                d2 += t
            else:
                np.add(t, gs[rows], out=d1)
                d2 += gs[rows]
        grads = (gu1, gu2, s.T @ gz, gz.sum(axis=0), z.T @ ge, ge.sum(axis=0))
        return grads if shortcut is None else grads + (g,)

    inputs = (u1, u2, *(params[p] for p in _GATE_PARAMS))
    if shortcut is not None:
        inputs += (shortcut,)
    v = tape.emit("msconv_fuse", inputs, out, vjp)
    return v, {"s": s, "z": z, "a_hat": a_hat, "b_hat": b_hat, "c": c}


def equivalence_check(u1: T.Tensor4, u2: T.Tensor4,
                      a_hat: T.ChannelVec, b_hat: T.ChannelVec) -> float:
    """Max |V_softmax - V_sigmoid| over all elements.

    V_softmax weights the branches by a shifted-exponential softmax pair
    computed from scratch (both exponentials evaluated, no 1-a shortcut);
    V_sigmoid is the block's (U1-U2)*sigmoid(a_hat-b_hat) + U2 form.  The two
    are algebraically identical, so this measures only floating-point drift.
    """
    T.check_tensor4(u1, "u1")
    T.check_tensor4(u2, "u2")
    T.check_channel_vec(a_hat, "a_hat")
    T.check_channel_vec(b_hat, "b_hat")
    m = np.maximum(a_hat, b_hat)
    ea = np.exp(a_hat - m)
    eb = np.exp(b_hat - m)
    a = ea / (ea + eb)
    b = eb / (ea + eb)
    v_softmax = a[:, None, None, :] * u1 + b[:, None, None, :] * u2
    v_sigmoid = (u1 - u2) * T.sigmoid(a_hat - b_hat)[:, None, None, :] + u2
    return float(np.max(np.abs(v_softmax - v_sigmoid)))


def so_noise_test(sigma: float, trials: int, mu: float = 0.0,
                  seed: int = 0) -> tuple[float, float]:
    """Sample mean and variance of N1 - N2 for i.i.d. N ~ Normal(mu, sigma^2).

    The difference cancels the common mean and doubles the variance, which is
    the mechanism by which the subtractive branch suppresses shared noise.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    n1 = rng.normal(mu, sigma, trials)
    n2 = rng.normal(mu, sigma, trials)
    diff = n1 - n2
    return float(diff.mean()), float(diff.var())


def block_cost(shapes: dict[str, tuple[int, ...]], height: int, width: int,
               stride: int, kind: FusionKind) -> dict[str, int]:
    """Exact per-sample learnable-element and arithmetic-op counts by layer.

    ``shapes`` are the block's array shapes (``block_param_shapes``);
    ``height`` x ``width`` is the input grid.  ``params`` and ``flops`` are
    the totals.  Accounting convention (what the instrumented scalar-loop
    counter in the test suite tallies):
      * convolutions and FC matmuls: one MAC per tap, padding taps included
        (oh*ow*c_out*kh*kw*c_in per conv; c_in*c_out per FC sample);
      * FC bias: one add per output element;
      * element-wise mul/add/sub on the branch grid: one op per element;
      * global average pool: one add per pooled element plus one divide per
        channel;
      * a_hat - b_hat: one op per channel;
      * applying the channel weights: one mul per element per weighted
        branch, then one add per element to combine; the reference twin also
        spends one op per channel forming 1 - a;
      * relu and sigmoid are activation table lookups and are not counted.
    """
    if not isinstance(kind, FusionKind):
        raise ValueError(f"unknown fusion kind {kind!r}")
    kh, kw, c_in, c = shapes["k3"]
    d = shapes["w_reduce"][1]
    grid = T.conv_out_len(height, stride) * T.conv_out_len(width, stride) * c
    skconv = kind is FusionKind.SKCONV_REFERENCE
    parts = {"conv_branches": 2 * grid * kh * kw * c_in,
             "attention_fuse": grid,
             "target_fuse": 0 if skconv else grid,
             "gap": grid + c,
             "fc_reduce": c * d + d,
             "fc_expand": d * 2 * c + 2 * c,
             "score_sub": c,
             "combine": 2 * grid + grid + c if skconv else grid + grid}
    return {"params": sum(math.prod(shape) for shape in shapes.values()),
            **parts, "flops": sum(parts.values())}


def params_flops_breakdown(st: MSConvState, height: int, width: int,
                           kind: FusionKind = FusionKind.MSCONV,
                           ) -> dict[str, int]:
    """``block_cost`` of one block's arrays and stride.  No library code
    uses it; it stays only for ``perfbench/test_perfbench.py``."""
    return block_cost({p: arr.shape for p, arr in st.params.items()},
                      height, width, st.stride, kind)
