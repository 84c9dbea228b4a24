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
op that does everything after them, residual add included; the fusion kind
picks its dataflow.  The op walks the batch in the convolutions' chunks
(``T._chunk_step`` of one image of U1): one pass pools U3 chunk by chunk
through one reused buffer, the gate runs on the whole batch, and a second
pass writes each chunk of V in place.  Neither U3 nor U4 is ever built
whole.  Every value is computed with the expressions and operand order of
the separate tape ops this op replaced, so forward bits did not move.  The
analytic vjp recomputes U4 per chunk and allocates only the two branch
gradients.  Backward bits moved in two places: a projected shortcut's input
gradient now joins the branch gradients last instead of first, and the
selective-kernel kind takes msconv_sum's gradient algebra, the two kinds
being one function.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import msct
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

# Branch dilation pairs with equal parameter cost: a 3x3 kernel at dilation D
# covers a (2D+1)-square extent, so (1,2) pairs a 3x3 with an effective 5x5.
KERNEL_COMBOS = {
    "k3k3": (1, 1),
    "k3k5": (1, 2),
    "k5k3": (2, 1),
    "k5k7": (2, 3),
}

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


# serialized names of a block's learnable arrays, in MSConvState field order
BLOCK_PARAM_NAMES = ("k3", "k5", "w_reduce", "b_reduce", "w_expand", "b_expand")


def _gauss(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)


@dataclass(frozen=True)
class MSConvState:
    """All learnable parameters of one block.

    k3 and k5 are the two branch kernels (identical shape, different
    dilation); w/b_reduce and w/b_expand are the attention bottleneck.  The
    expand output width is twice the channel count: the first half is the
    a_hat head, the second half the b_hat head.
    """

    k3: T.ConvKernel
    k5: T.ConvKernel
    w_reduce: np.ndarray
    b_reduce: np.ndarray
    w_expand: np.ndarray
    b_expand: np.ndarray
    reduction: int = DEFAULT_REDUCTION
    min_width: int = DEFAULT_MIN_WIDTH

    def __post_init__(self):
        a, b = self.k3, self.k5
        if (a.kh, a.kw, a.c_in, a.c_out) != (b.kh, b.kw, b.c_in, b.c_out):
            raise T.ShapeError("branch kernels must have identical dims "
                               f"{a.weights.shape} vs {b.weights.shape}")
        if a.stride != b.stride:
            raise T.ShapeError("branch kernels must share the stride")
        c, d = self.c_out, self.width
        if self.w_reduce.shape != (c, d) or self.b_reduce.shape != (d,):
            raise T.ShapeError(f"reduce projection must be ({c},{d})+({d},), got "
                               f"{self.w_reduce.shape}+{self.b_reduce.shape}")
        if self.w_expand.shape != (d, 2 * c) or self.b_expand.shape != (2 * c,):
            raise T.ShapeError(f"expand projection must be ({d},{2*c})+({2*c},), got "
                               f"{self.w_expand.shape}+{self.b_expand.shape}")

    @property
    def c_in(self) -> int:
        return self.k3.c_in

    @property
    def c_out(self) -> int:
        return self.k3.c_out

    @property
    def stride(self) -> int:
        return self.k3.stride

    @property
    def width(self) -> int:
        return reduced_width(self.c_out, self.reduction, self.min_width)

    @classmethod
    def init(cls, c_in: int, c_out: int, *, seed: int = 0, tag: str = "block",
             dilations: tuple[int, int] = KERNEL_COMBOS["k3k5"], stride: int = 1,
             reduction: int = DEFAULT_REDUCTION,
             min_width: int = DEFAULT_MIN_WIDTH) -> "MSConvState":
        """Fan-in-scaled Gaussian weights, zero biases, per-layer seed streams."""
        d = reduced_width(c_out, reduction, min_width)
        kshape = (3, 3, c_in, c_out)
        return cls(
            k3=T.ConvKernel(_gauss(param_rng(seed, tag + "/k3"), kshape, 9 * c_in),
                            dilation=dilations[0], stride=stride),
            k5=T.ConvKernel(_gauss(param_rng(seed, tag + "/k5"), kshape, 9 * c_in),
                            dilation=dilations[1], stride=stride),
            w_reduce=_gauss(param_rng(seed, tag + "/w_reduce"), (c_out, d), c_out),
            b_reduce=np.zeros(d),
            w_expand=_gauss(param_rng(seed, tag + "/w_expand"), (d, 2 * c_out), d),
            b_expand=np.zeros(2 * c_out),
            reduction=reduction,
            min_width=min_width,
        )

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray], *,
                    dilations: tuple[int, int], stride: int, reduction: int,
                    min_width: int) -> "MSConvState":
        """State from arrays keyed by BLOCK_PARAM_NAMES plus the geometry."""
        k3, k5, w_reduce, b_reduce, w_expand, b_expand = (
            params[name] for name in BLOCK_PARAM_NAMES)
        return cls(k3=T.ConvKernel(k3, dilations[0], stride),
                   k5=T.ConvKernel(k5, dilations[1], stride),
                   w_reduce=w_reduce, b_reduce=b_reduce,
                   w_expand=w_expand, b_expand=b_expand,
                   reduction=reduction, min_width=min_width)

    def param_dict(self) -> dict[str, np.ndarray]:
        """Learnable arrays keyed by their serialized names."""
        return dict(zip(BLOCK_PARAM_NAMES, (
            self.k3.weights, self.k5.weights, self.w_reduce, self.b_reduce,
            self.w_expand, self.b_expand)))

    def with_params(self, params: dict[str, np.ndarray]) -> "MSConvState":
        """Same geometry, new parameter arrays."""
        return MSConvState.from_params(
            params, dilations=(self.k3.dilation, self.k5.dilation),
            stride=self.stride, reduction=self.reduction,
            min_width=self.min_width)


# The selective-kernel reference twin holds exactly the same parameters; only
# the forward dataflow differs.
SKConvState = MSConvState

TRACE_FIELDS = ("u1", "u2", "u3", "u4", "s", "z", "a_hat", "b_hat", "c")


@dataclass(frozen=True)
class MSConvTrace:
    """Every intermediate of one forward pass.

    For the selective-kernel reference, ``c`` is the softmax weight on U1 and
    ``u4`` is absent (None).
    """

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray | None
    s: np.ndarray
    z: np.ndarray
    a_hat: np.ndarray
    b_hat: np.ndarray
    c: np.ndarray


def block_forward_on_tape(tape: Tape, x: Var, params: dict[str, Var], *,
                          dilations: tuple[int, int], stride: int = 1,
                          kind: FusionKind = FusionKind.MSCONV,
                          shortcut: Var | None = None,
                          ) -> tuple[Var, dict[str, Var | np.ndarray | None]]:
    """Record one block forward pass; shared by inference and training.

    Records the two branch convolutions and one ``msconv_fuse`` op, which
    also adds ``shortcut`` (the residual input, when given) to the fused
    output.  Returns the output Var plus the named intermediates: ``u1`` and
    ``u2`` as Vars, ``s``, ``z``, ``a_hat``, ``b_hat`` and ``c`` as arrays.
    The fused op never builds ``u3`` or ``u4`` whole, so both are None here;
    ``msconv_forward`` rebuilds them.
    """
    if not isinstance(kind, FusionKind):
        raise ValueError(f"unknown fusion kind {kind!r}")
    u1 = tape.conv2d(x, params["k3"], dilation=dilations[0], stride=stride)
    u2 = tape.conv2d(x, params["k5"], dilation=dilations[1], stride=stride)
    v, gate = _fuse_on_tape(tape, u1, u2, params, kind, shortcut)
    trace = dict.fromkeys(TRACE_FIELDS)
    trace.update(u1=u1, u2=u2, **gate)
    return v, trace


# the attention parameters, in the fused op's input order
_GATE_PARAMS = ("w_reduce", "b_reduce", "w_expand", "b_expand")


def _fuse_on_tape(tape: Tape, u1: Var, u2: Var, params: dict[str, Var],
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


def msconv_forward(x: T.Tensor4, st: MSConvState,
                   kind: FusionKind = FusionKind.MSCONV,
                   ) -> tuple[T.Tensor4, MSConvTrace]:
    """Pure forward pass returning the fused output and all intermediates.

    U3 and U4 are rebuilt from U1 and U2 with the fused op's expressions.
    """
    T.check_tensor4(x, "x")
    tape = Tape()
    consts = {name: tape.constant(arr) for name, arr in st.param_dict().items()}
    v, tr = block_forward_on_tape(tape, tape.constant(x), consts,
                                  dilations=(st.k3.dilation, st.k5.dilation),
                                  stride=st.stride, kind=kind)
    values = {name: (val.value if isinstance(val, Var) else val)
              for name, val in tr.items()}
    u1, u2 = values["u1"], values["u2"]
    values["u3"] = (T.ew_mul if kind in _MUL_ATTENTION else T.ew_add)(u1, u2)
    if kind is not FusionKind.SKCONV_REFERENCE:
        values["u4"] = (T.ew_sub if kind in _SUB_TARGET else T.ew_add)(u1, u2)
    return v.value, MSConvTrace(**values)


def skconv_forward(x: T.Tensor4, st: SKConvState) -> T.Tensor4:
    """Reference selective-kernel fusion: V = a*U1 + b*U2, softmax weights."""
    v, _ = msconv_forward(x, st, FusionKind.SKCONV_REFERENCE)
    return v


def ablate(kind: FusionKind, x: T.Tensor4, st: MSConvState) -> T.Tensor4:
    """Forward pass under the named fusion variant."""
    v, _ = msconv_forward(x, st, kind)
    return v


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


def count_params_flops(st: MSConvState, height: int, width: int,
                       kind: FusionKind = FusionKind.MSCONV,
                       ) -> tuple[int, int]:
    """Exact per-sample learnable-element and arithmetic-op counts.

    Accounting convention (what the instrumented scalar-loop counter in the
    test suite tallies):
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
    totals = params_flops_breakdown(st, height, width, kind)
    return totals["params"], totals["flops"]


def params_flops_breakdown(st: MSConvState, height: int, width: int,
                           kind: FusionKind = FusionKind.MSCONV,
                           ) -> dict[str, int]:
    """Per-layer op counts behind count_params_flops, for reports."""
    if not isinstance(kind, FusionKind):
        raise ValueError(f"unknown fusion kind {kind!r}")
    c_in, c, d = st.c_in, st.c_out, st.width
    kh, kw = st.k3.kh, st.k3.kw
    oh = T.conv_out_len(height, st.stride)
    ow = T.conv_out_len(width, st.stride)
    grid = oh * ow * c

    conv_macs = 2 * grid * kh * kw * c_in
    attention_fuse = grid
    gap_ops = grid + c
    reduce_macs = c * d + d
    expand_macs = d * 2 * c + 2 * c
    score_sub = c
    if kind is FusionKind.SKCONV_REFERENCE:
        target_fuse = 0
        combine = 2 * grid + grid + c
    else:
        target_fuse = grid
        combine = grid + grid

    breakdown = {
        "params": 2 * st.k3.param_count + c * d + d + d * 2 * c + 2 * c,
        "conv_branches": conv_macs,
        "attention_fuse": attention_fuse,
        "target_fuse": target_fuse,
        "gap": gap_ops,
        "fc_reduce": reduce_macs,
        "fc_expand": expand_macs,
        "score_sub": score_sub,
        "combine": combine,
    }
    breakdown["flops"] = (conv_macs + attention_fuse + target_fuse + gap_ops
                          + reduce_macs + expand_macs + score_sub + combine)
    return breakdown


def save_block(directory, st: MSConvState) -> None:
    """Write the six parameter tensors plus a manifest into a directory."""
    msct.save_tensors(directory, st.param_dict())


def load_block(directory, *, dilations: tuple[int, int] = KERNEL_COMBOS["k3k5"],
               stride: int = 1, reduction: int = DEFAULT_REDUCTION,
               min_width: int = DEFAULT_MIN_WIDTH) -> MSConvState:
    """Rebuild a block from a saved directory.

    Geometry (dilations, stride, reduction) is not stored in the tensor files
    and must be supplied; model checkpoints echo it in their config file.
    """
    arrs = msct.load_tensors(directory)
    missing = [k for k in BLOCK_PARAM_NAMES if k not in arrs]
    if missing:
        raise msct.FormatError(f"block manifest missing entries: {missing}")
    return MSConvState.from_params(arrs, dilations=dilations, stride=stride,
                                   reduction=reduction, min_width=min_width)
