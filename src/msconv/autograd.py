"""Reverse-mode differentiation on an explicit tape.

A :class:`Tape` records one forward pass as a list of :class:`GradRecord`
entries, each holding the saved inputs and a rule mapping the upstream
gradient to gradients for every input.  ``Tape.backward`` walks the records
in reverse, summing gradients where a value fans out, in a fixed traversal
order so results are reproducible.  It adds in place only into a buffer it
owns: a sum it allocated, or a conv's fresh input gradient.

Values enter the tape in one of two ways.  ``Tape.leaf`` enters a value that
needs a gradient (a parameter, or an input under test); ``Tape.constant``
enters one that needs none (training images, or every value of an inference
pass).  An op's output needs a gradient when any of its inputs does, and only
such ops are recorded: a tape fed constants alone records nothing, keeps no
vjp closure, and holds no value beyond its workspace and the Vars its caller
keeps, while running the same forward code as training.  Constants never
receive a gradient.

Values are plain numpy arrays and must not be mutated while the tape is
alive; the optimizer produces fresh arrays instead of updating in place.  A
tape is single-owner and is consumed by ``backward``.

The convolution and the block's fused op take their output arrays from
``Tape.empty``, which hands out the buffers of the tape's workspace (a list
of arrays, empty at first) in allocation order.  A plain ``Tape()`` has a
private list; tapes given one list share it, so a sequence of passes over
batches no larger than the first, run through one fresh tape each, reuses
the first pass's memory.  A tape's values and saved buffers stay valid only
until the next tape on its workspace allocates; callers keep only values
computed outside it (the embedding head's outputs, a loss, parameter
gradients).  A workspace serves one tape at a time: each worker process of
``model.tinynet_embed`` and of ``train`` has its own.

``backward`` frees each recorded op's output gradient once the record that
produced the value has used it, so only leaf gradients live to the end: the
returned :class:`Gradients` answers for leaves and constants and raises
``ValueError`` for the output of a recorded op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T


class TapeReuseError(RuntimeError):
    """The tape was used after backward consumed it."""


class GradientCheckError(RuntimeError):
    """Finite-difference check hit a non-finite value."""


class Var:
    """Handle to one value on a tape: its slot number and the value itself."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(#{self.index}, shape={self.value.shape})"


@dataclass
class GradRecord:
    """One recorded op: tag, input/output slots, and its backward rule.

    ``vjp`` receives the upstream gradient (same shape as the output) and
    returns one gradient per input, each shaped like that input, or None for
    inputs that do not need a gradient.
    """

    op_id: str
    inputs: tuple[int, ...]
    output: int
    vjp: Callable[[np.ndarray], tuple]


class Gradients:
    """Result of backward: gradient lookup by Var, zero for untouched values.

    Answers for leaves and constants; a recorded op's output raises
    ValueError, as backward freed its gradient.
    """

    def __init__(self, tape: "Tape", grads: dict[int, np.ndarray],
                 freed: set[int]):
        self._tape = tape
        self._grads = grads
        self._freed = freed

    def __getitem__(self, var: Var) -> np.ndarray:
        if var.tape is not self._tape:
            raise ValueError("Var belongs to a different tape")
        if var.index in self._freed:
            raise ValueError(f"{var!r} is a recorded op's output; its gradient "
                             "was freed during backward")
        g = self._grads.get(var.index)
        if g is None:
            return np.zeros_like(var.value)
        return g


class Tape:
    """One forward pass's values and the records backward walks.

    ``workspace`` is the list of buffers ``empty`` reuses in allocation
    order, a private one when not given; see the module docstring.
    """

    def __init__(self, workspace: list[np.ndarray] | None = None):
        self._workspace = [] if workspace is None else workspace
        self._allocated = 0
        self._count = 0
        # slot -> shape, for every value that needs a gradient
        self._grad_shapes: dict[int, tuple[int, ...]] = {}
        self._records: list[GradRecord] = []
        self._owned: dict[int, list] = {}  # backward's; see _conv2d_vjp
        self._consumed = False

    # -- plumbing ----------------------------------------------------------

    def _push(self, value: np.ndarray, needs_grad: bool) -> Var:
        var = Var(self, self._count, np.asarray(value))
        self._count += 1
        if needs_grad:
            self._grad_shapes[var.index] = var.value.shape
        return var

    def _needs_grad(self, var: Var) -> bool:
        return var.index in self._grad_shapes

    def _guard(self):
        if self._consumed:
            raise TapeReuseError("tape already consumed by backward")

    def _check(self, *vars_: Var) -> None:
        self._guard()
        for v in vars_:
            if v.tape is not self:
                raise ValueError("Var belongs to a different tape")

    def empty(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised array for an op's output: the leading
        ``shape[0]`` rows of the workspace's next buffer in allocation
        order.  A buffer too small, or of another row shape or dtype, is
        replaced by a fresh one first.
        """
        ws, k = self._workspace, self._allocated
        self._allocated += 1
        if k == len(ws):
            ws.append(np.empty(shape, dtype=dtype))
        buf = ws[k]
        if buf.dtype != dtype or buf.shape[1:] != tuple(shape[1:]) \
                or buf.shape[0] < shape[0]:
            ws[k] = buf = np.empty(shape, dtype=dtype)
        return buf[:shape[0]]

    def leaf(self, value: np.ndarray) -> Var:
        """Enter a value that needs a gradient; leaves have no record."""
        self._guard()
        return self._push(value, True)

    def constant(self, value: np.ndarray) -> Var:
        """Enter a value that needs no gradient and never receives one."""
        self._guard()
        return self._push(value, False)

    def emit(self, op_id: str, inputs: Sequence[Var], value: np.ndarray,
             vjp: Callable[[np.ndarray], tuple]) -> Var:
        """Add a custom op.  ``vjp(g)`` must return one gradient per input.

        The op is recorded only when one of its inputs needs a gradient;
        otherwise its output is a constant and ``vjp`` is dropped.
        """
        self._check(*inputs)
        if T.debug_checks_enabled():
            arr = np.asarray(value)
            if arr.size and not np.isfinite(arr).all():
                raise T.NonFiniteError(f"non-finite output of {op_id}")
        needs_grad = any(self._needs_grad(v) for v in inputs)
        out = self._push(value, needs_grad)
        if needs_grad:
            self._records.append(
                GradRecord(op_id, tuple(v.index for v in inputs), out.index, vjp)
            )
        return out

    # -- ops ---------------------------------------------------------------

    def conv2d(self, x: Var, w: Var, *, dilation: int = 1, stride: int = 1) -> Var:
        xv, wv = x.value, w.value
        out = T.conv2d_raw(xv, wv, dilation, stride, out=self.empty(
            T.conv2d_out_shape(xv, wv, dilation, stride),
            np.result_type(xv, wv)))
        need_x, need_w = self._needs_grad(x), self._needs_grad(w)
        owned, slot = self._owned, x.index

        def vjp(g):
            acc = owned.setdefault(slot, [None, frozenset()])
            return _conv2d_vjp(g, xv, wv, dilation, stride, need_x, need_w, acc)

        return self.emit("conv2d", (x, w), out, vjp)

    def mul(self, a: Var, b: Var) -> Var:
        av, bv = a.value, b.value
        return self.emit("ew_mul", (a, b), T.ew_mul(av, bv),
                         lambda g: (g * bv, g * av))

    def add(self, a: Var, b: Var) -> Var:
        return self.emit("ew_add", (a, b), T.ew_add(a.value, b.value),
                         lambda g: (g, g))

    def sub(self, a: Var, b: Var) -> Var:
        return self.emit("ew_sub", (a, b), T.ew_sub(a.value, b.value),
                         lambda g: (g, -g))

    def gap(self, x: Var) -> Var:
        _, h, w, _ = x.value.shape
        shape = x.value.shape

        def vjp(g):
            return (np.broadcast_to(g[:, None, None, :] / (h * w), shape).copy(),)

        return self.emit("global_avg_pool", (x,), T.global_avg_pool(x.value), vjp)

    def fc(self, x: Var, w: Var, b: Var) -> Var:
        xv, wv = x.value, w.value

        def vjp(g):
            return (g @ wv.T, xv.T @ g, g.sum(axis=0))

        return self.emit("fc", (x, w, b), T.fc(xv, wv, b.value), vjp)

    def relu(self, x: Var) -> Var:
        xv = x.value
        return self.emit("relu", (x,), T.relu(xv),
                         lambda g: (g * (xv > 0),))

    def sigmoid(self, x: Var) -> Var:
        out = T.sigmoid(x.value)
        return self.emit("sigmoid", (x,), out,
                         lambda g: (g * out * (1.0 - out),))

    def one_minus(self, x: Var) -> Var:
        return self.emit("one_minus", (x,), 1.0 - x.value, lambda g: (-g,))

    def half(self, x: Var, which: int) -> Var:
        """First (0) or second (1) half of the channel axis of an (n, 2c) value."""
        n, c2 = x.value.shape
        if c2 % 2:
            raise T.ShapeError(f"cannot halve odd channel count {c2}")
        c = c2 // 2
        lo, hi = (0, c) if which == 0 else (c, c2)

        def vjp(g):
            full = np.zeros((n, c2), dtype=g.dtype)
            full[:, lo:hi] = g
            return (full,)

        return self.emit(f"half{which}", (x,), x.value[:, lo:hi].copy(), vjp)

    def scale_channels(self, x: Var, c: Var) -> Var:
        """Per-channel reweighting: out[n,h,w,k] = x[n,h,w,k] * c[n,k]."""
        xv, cv = x.value, c.value
        if xv.ndim != 4 or cv.ndim != 2 or xv.shape[0] != cv.shape[0] \
                or xv.shape[3] != cv.shape[1]:
            raise T.ShapeError(
                f"scale_channels needs (n,h,w,c) and (n,c), got {xv.shape}, {cv.shape}"
            )

        def vjp(g):
            return (g * cv[:, None, None, :], np.sum(g * xv, axis=(1, 2)))

        return self.emit("scale_channels", (x, c), xv * cv[:, None, None, :], vjp)

    def l2_normalize_rows(self, x: Var) -> Var:
        """Rows scaled to unit L2 norm; all-zero rows map to zero rows."""
        xv = x.value
        norms = np.sqrt(np.sum(xv * xv, axis=1, keepdims=True))
        safe = np.where(norms > 0, norms, 1.0)
        out = xv / safe

        def vjp(g):
            dot = np.sum(g * out, axis=1, keepdims=True)
            gx = (g - out * dot) / safe
            return (np.where(norms > 0, gx, 0.0),)

        return self.emit("l2_normalize_rows", (x,), out, vjp)

    def sum(self, x: Var) -> Var:
        shape, dtype = x.value.shape, x.value.dtype

        def vjp(g):
            return (np.full(shape, g, dtype=dtype),)

        return self.emit("sum", (x,), np.asarray(x.value.sum()), vjp)

    def mean(self, x: Var) -> Var:
        shape, dtype = x.value.shape, x.value.dtype
        count = x.value.size

        def vjp(g):
            return (np.full(shape, g / count, dtype=dtype),)

        return self.emit("mean", (x,), np.asarray(x.value.mean()), vjp)

    # -- reverse pass --------------------------------------------------------

    def backward(self, loss: Var, seed: float = 1.0) -> Gradients:
        """Propagate a scalar seed from the loss back to every recorded value.

        Consumes the tape: a second backward, or any further op, raises
        :class:`TapeReuseError`.  The result holds leaf gradients only; see
        :class:`Gradients`.

        Later contributions add in place into a buffer the backward owns (a
        sum it allocated, or a conv's fresh dx, which later convs add into
        chunk by chunk), never into an array a vjp returned (``add`` returns
        ``(g, g)``).  A conv's fresh dx that arrives after such an array
        takes it in place (``dx + g`` is ``g + dx`` bit for bit).  Each
        element keeps the sum order of fresh sums.
        """
        self._guard()
        if loss.tape is not self:
            raise ValueError("loss Var belongs to a different tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        self._consumed = True

        grads: dict[int, np.ndarray] = {
            loss.index: np.full(loss.value.shape, seed, dtype=loss.value.dtype)
        }
        owned = self._owned
        # popping each record frees the values its vjp saved once used, and
        # popping its output's gradient frees that once the vjp has read it
        freed: set[int] = set()
        while self._records:
            rec = self._records.pop()
            freed.add(rec.output)
            owned.pop(rec.output, None)
            g = grads.pop(rec.output, None)
            if g is None:
                continue
            partials = rec.vjp(g)
            if len(partials) != len(rec.inputs):
                raise RuntimeError(f"{rec.op_id} returned {len(partials)} gradients "
                                   f"for {len(rec.inputs)} inputs")
            for idx, gi in zip(rec.inputs, partials):
                shape = self._grad_shapes.get(idx)
                if gi is None or shape is None:
                    continue
                if gi.shape != shape:
                    raise RuntimeError(
                        f"{rec.op_id} gradient shape {gi.shape} != value shape "
                        f"{shape}"
                    )
                have, mine = grads.get(idx), owned.get(idx, (None,))[0]
                if have is None:
                    grads[idx] = gi
                elif gi.dtype != have.dtype or mine is not have \
                        and mine is not gi:
                    grads[idx] = have + gi
                    owned[idx] = [grads[idx], frozenset()]
                elif gi is not have:  # else a conv added its dx in already
                    mine += gi if have is mine else have
                    grads[idx] = mine
        return Gradients(self, grads, freed)


def _phase_taps(k: int, dilation: int, stride: int, size: int, out_len: int):
    """The taps that reach each input phase along one axis.

    The forward reads input row ``stride*o + dilation*t - pad`` through tap
    t, so input row ``r + stride*j`` of phase r receives ``g[j + off]``
    through each tap with ``r + pad - dilation*t == stride*off``: a stride-1
    correlation of ``g`` per phase.  A tap whose shifted rows all fall
    outside ``g`` is left out, so a phase may have no tap.

    Returns per phase r (length, [(t, off), ...]) in tap order.
    """
    pad = T.same_pad(k, dilation)
    phases = []
    for r in range(stride):
        length = len(range(r, size, stride))
        taps = []
        for t in range(k):
            off, rem = divmod(r + pad - dilation * t, stride)
            # kept when some row j in [0, length) has 0 <= j + off < out_len
            if rem == 0 and max(0, -off) < min(length, out_len - off):
                taps.append((t, off))
        phases.append((length, taps))
    return phases


def _conv2d_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, need_x: bool = True,
                need_w: bool = True, acc: list | None = None,
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Gradients of conv2d_raw w.r.t. input and weights; None where unneeded.

    Both run one GEMM per image and row fold, so an image's dx depends only
    on that image and dW's bits not on the chunk size.  dx splits into the
    stride**2 phases dx[:, ry::s, rx::s], each a stride-1 correlation of
    ``g`` with the taps that reach it (``_phase_taps``).  ``g`` is folded
    with the column offsets its column taps read side by side, then each
    row tap, in ky order, is one GEMM with their w[ky, kx].T stacked
    (``T._row_folded_gemm``, in blocks of rows, in chunks of one image of
    dx).  When every column phase is reached, one GEMM fills all of a dx
    row's phases (N = s*c_in, zero blocks where a tap skips a phase, the
    output rows contiguous); otherwise each reached phase is a GEMM of its
    own.  A phase no tap reaches stays zero.  dW adds ``fold.T @ g`` per
    kernel row and image, in image order, on the forward's folds of ``x``.

    ``acc``, the backward's [buffer, clean] entry for x, takes dx added in
    chunk by chunk if of dx's dtype, else a fresh dx with clean its zeroed
    phases (stride, ry, rx).  A tapless phase's +0.0, which only turns -0.0
    to +0.0, is added where not clean: a sum is -0.0 only if all terms are.
    """
    n, h, wd, c_in = x.shape
    kh, kw, _, c_out = w.shape
    oh, ow = g.shape[1], g.shape[2]
    dx = dw = None
    if need_x:
        rows = _phase_taps(kh, dilation, stride, h, oh)
        cols = _phase_taps(kw, dilation, stride, wd, ow)
        lo = min(off for _, ty in rows for _, off in ty)
        count = max(off + length for length, ty in rows for _, off in ty) - lo
        # every column phase in one GEMM when each is reached, else apart
        reached = [rx for rx, (_, tx) in enumerate(cols) if tx]
        folds, targets = [], []
        for f, gr in enumerate([reached] if len(reached) == stride
                               else [[rx] for rx in reached]):
            offs = sorted({off for rx in gr for _, off in cols[rx][1]})
            folds.append(((lo, 1, count), [(off, 1) for off in offs],
                          len(range(gr[0], wd, stride))))
            # w[:, kx].T at each column tap's (offset of g, phase of dx)
            mats = np.zeros((kh, len(offs), c_out, len(gr), c_in), w.dtype)
            for p, rx in enumerate(gr):
                for kx, off in cols[rx][1]:
                    mats[:, offs.index(off), :, p] = w[:, kx].transpose(0, 2, 1)
            mats = mats.reshape(kh, -1, len(gr) * c_in)
            targets += [(slice(ry, None, stride),
                         slice(gr[0], None, stride if len(gr) == 1 else 1),
                         [(f, off - lo, mats[ky]) for ky, off in ty])
                        for ry, (_, ty) in enumerate(rows) if ty]
        zero = frozenset((stride, ry, rx) for ry, (_, ty) in enumerate(rows)
                         for rx, (_, tx) in enumerate(cols)
                         if not (ty and tx))
        dx, clean = acc or (None, None)
        add = dx is not None and dx.dtype == np.result_type(g, w)
        if add:
            for _, ry, rx in zero - clean:
                dx[:, ry::stride, rx::stride] += 0.0
        else:  # a phase no tap reaches is never written and must read zero
            dx = (np.zeros if zero else np.empty)(x.shape, np.result_type(g, w))
            if acc is not None:
                acc[:] = dx, zero
        T._row_folded_gemm(g, T._chunk_step(n, dx[0].nbytes), folds,
                           targets, dx, add)
    if need_w:
        folds, reads = T._conv_folds(kh, kw, dilation, stride, oh, ow)
        dw = np.zeros(w.shape, dtype=w.dtype)
        rows_w = dw.reshape(kh, kw * c_in, c_out)
        for i, bufs in T._row_folds(x, T._chunk_step(n, g[0].nbytes), folds):
            g_rows = g[i:i + len(bufs[0])].reshape(len(bufs[0]), -1, c_out)
            for ky, (f, j0) in enumerate(reads):
                fold = bufs[f][:, j0:j0 + oh].reshape(*g_rows.shape[:2], -1)
                for part in np.matmul(fold.transpose(0, 2, 1), g_rows):
                    rows_w[ky] += part
    return dx, dw


def finite_diff_check(build, params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Central-difference validation of the tape's analytic gradients.

    ``build(tape, vars)`` must construct a forward pass from the named leaf
    Vars and return the scalar loss Var.  Every element of every parameter is
    perturbed by +/- eps; the numeric slope is compared to the analytic
    gradient with the error scaled by max(1, |analytic|, |numeric|), which
    stays meaningful near zero gradients.  Returns the max relative error
    over all elements.

    Run this in float64; eps = 1e-5 balances truncation against roundoff.
    """
    work = {name: np.array(v, dtype=np.float64) for name, v in params.items()}

    def evaluate(with_grads: bool):
        tape = Tape()
        enter = tape.leaf if with_grads else tape.constant
        leaves = {name: enter(v) for name, v in work.items()}
        loss = build(tape, leaves)
        val = float(loss.value)
        if not np.isfinite(val):
            raise GradientCheckError(f"forward produced non-finite loss {val}")
        if not with_grads:
            return val, None
        grads = tape.backward(loss)
        return val, {name: grads[leaf] for name, leaf in leaves.items()}

    _, analytic = evaluate(with_grads=True)
    max_err = 0.0
    for name, arr in work.items():
        ana = analytic[name].ravel()
        if not np.isfinite(ana).all():
            raise GradientCheckError(f"analytic gradient of {name} is non-finite")
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus, _ = evaluate(with_grads=False)
            flat[i] = orig - eps
            f_minus, _ = evaluate(with_grads=False)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            if not np.isfinite(numeric):
                raise GradientCheckError(
                    f"non-finite central difference at {name}[{i}]"
                )
            err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
