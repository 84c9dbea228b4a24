"""Rank-4 tensor primitives: direct 2-D convolution and elementwise fusion ops.

Activations live in numpy arrays laid out channel-last, shape ``(n, h, w, c)``
(batch, rows, cols, channels), C-contiguous.  Channel statistics use shape
``(n, c)``.  Every function here is pure: inputs are never mutated and the
same inputs produce bit-identical outputs (accumulation order is fixed).

``conv2d_raw`` walks the batch in chunks sized from the input's shape: as
many images as fit ``_CHUNK_BYTES`` (256 KiB) of output, at least one, so a
chunk's accumulator stays in cache while every tap adds into it.  Each image
row still gets the same GEMM per tap, summed in the same row-major tap
order, so the chunk size never changes a bit of the result.  The private
kernel behind it, ``_chunked_tap_gemm``, runs every conv GEMM, 1x1 kernels
included: the forward's, and in ``autograd`` the conv's input gradient, one
stride-1 correlation of the output gradient per stride phase, in the same
chunks.  The backward's bits changed when it moved to chunks (its weight
gradient now sums per chunk); the forward's bits did not.  ``conv2d_raw``
writes into a caller's ``out`` buffer when given one, so an inference pass
can reuse its activation memory.

Inference runs depth-first on top of that: ``model.tinynet_embed`` splits
an image set once, by ``even_chunks``, into chunks of ``model.depth_step``
images, as many as fit ``_DEPTH_BYTES`` (2 MiB, the L2 size) of one image's
largest activation (fewer when its caller caps the batch size), and runs the
whole network on one chunk at a time, one chunk per process and core at
once (``model.Workers``).  Training splits each step's batch by the same
rule into micro-batches, run forward and backward the same way.  Every
forward op here is row-independent, so a chunk's bits depend only on its
images: any split gives the bits of one pass over the whole set.

Precision follows the inputs.  The library feeds float64 everywhere: the
synthetic data and the parameter initialisation are float64, so training,
inference and the gradient checks all run in it.  Only checkpoint and
dataset files store float32.
"""

from __future__ import annotations

import numpy as np

# Aliases used in signatures for readability; both are plain numpy arrays.
Tensor4 = np.ndarray  # (n, h, w, c)
ChannelVec = np.ndarray  # (n, c)


class ShapeError(ValueError):
    """Operand dimensions do not satisfy an op's contract."""


class UnsupportedConfigError(ValueError):
    """Structurally valid input that the op refuses (e.g. even kernel size)."""


class NonFiniteError(FloatingPointError):
    """A tape op produced inf/nan while debug checks were enabled."""


_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle the tape's finiteness check of op outputs (off by default)."""
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


def check_layout(x: np.ndarray, layout: str, name: str) -> np.ndarray:
    """``x`` as an array with one non-empty axis per letter of ``layout``."""
    x = np.asarray(x)
    if x.ndim != len(layout):
        raise ShapeError(f"{name} must have rank {len(layout)} "
                         f"({','.join(layout)}), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has an empty dimension: {x.shape}")
    return x


def same_pad(k: int, dilation: int) -> int:
    """Per-side zero padding that preserves spatial size at stride 1.

    Only odd kernel sizes admit symmetric same-padding; even sizes are
    rejected.
    """
    if k % 2 == 0:
        raise UnsupportedConfigError(f"even kernel size {k} is not supported")
    return dilation * (k - 1) // 2


def conv_out_len(size: int, stride: int) -> int:
    """Output length along one spatial axis: ceil(size / stride)."""
    return -(-size // stride)


# Output bytes of one chunk: with its padded input and one tap product
# beside it, a chunk's working set stays well inside a 2 MiB L2.
_CHUNK_BYTES = 256 * 1024


def _chunk_step(n: int, image_bytes: int) -> int:
    """Images per chunk: as many as fit _CHUNK_BYTES of output, at least one."""
    return min(n, max(1, _CHUNK_BYTES // image_bytes))


# Bytes of one depth-first inference chunk's largest activation: 2 MiB, the
# L2 size, holds 4 stem outputs of 64x64 images or 16 of 32x32.
_DEPTH_BYTES = 2 * 1024 * 1024


def even_chunks(n: int, step: int) -> list[slice]:
    """Slices that split ``n`` images into ``ceil(n / step)`` near-equal
    chunks, largest first, so buffers sized by the first chunk hold every
    later one.  No chunk has more than ``step`` images; a step below one
    counts as one.
    """
    step = max(1, step)
    count = max(1, -(-n // step))
    size, extra = divmod(n, count)
    ends = [k * size + min(k, extra) for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _tap_slices(kh: int, kw: int, dilation: int, stride: int, oh: int, ow: int):
    """Yields (ky, kx, rows, cols): each tap's slices of the padded input.

    Taps come in row-major (ky, kx) order, the accumulation order of
    conv2d_raw and its vjp.
    """
    for ky in range(kh):
        y0 = ky * dilation
        ys = slice(y0, y0 + (oh - 1) * stride + 1, stride)
        for kx in range(kw):
            x0 = kx * dilation
            yield ky, kx, ys, slice(x0, x0 + (ow - 1) * stride + 1, stride)


def _padded_chunks(x: Tensor4, pads, step: int):
    """Yields (i, chunk): ``x[i:i+step]`` inside a zero border.

    ``pads`` is ((top, bottom), (left, right)).  Every chunk is copied into
    the interior of one reused buffer whose border stays zero; with no
    padding the chunk is a view of ``x``.
    """
    (top, bottom), (left, right) = pads
    n, h, w, c = x.shape
    if not (top or bottom or left or right):
        for i in range(0, n, step):
            yield i, x[i:i + step]
        return
    xp = np.zeros((step, top + h + bottom, left + w + right, c), dtype=x.dtype)
    for i in range(0, n, step):
        m = min(step, n - i)
        xp[:m, top:top + h, left:left + w, :] = x[i:i + m]
        yield i, xp[:m]


def _chunked_tap_gemm(src: Tensor4, pads, step: int, phases, out: Tensor4,
                      add: bool = False) -> None:
    """Writes (or with ``add`` adds) ``out[:, rows, cols] = sum of padded
    src[:, ys, xs, :] @ mat``.

    ``phases`` lists (rows, cols, taps) with taps a list of (ys, xs, mat):
    slices of ``src`` padded by ``pads`` and a (c_src, c_out) matrix.  The
    batch is walked in chunks of ``step`` images; per chunk and phase the
    first tap's product is assigned and later ones are added from one
    reused buffer, in list order.  A strided phase, or any under ``add``, is
    summed in a contiguous buffer and copied or added in once.  Every image
    row gets the same GEMM per tap at any chunk size: ``step`` moves no bit.
    """
    size = max(out[0, rows, cols].size for rows, cols, _ in phases)
    tap_buf = np.empty(step * size, dtype=out.dtype)
    buffered = add or not all(out[:, rows, cols].flags.c_contiguous
                              for rows, cols, _ in phases)
    acc_buf = np.empty_like(tap_buf) if buffered else None
    for i, chunk in _padded_chunks(src, pads, step):
        for rows, cols, taps in phases:
            dst = out[i:i + len(chunk), rows, cols]
            acc = acc_buf[:dst.size].reshape(dst.shape) if buffered else dst
            tap = tap_buf[:dst.size].reshape(dst.shape)
            (ys, xs, mat), *rest = taps
            np.matmul(chunk[:, ys, xs, :], mat, out=acc)
            for ys, xs, mat in rest:
                np.matmul(chunk[:, ys, xs, :], mat, out=tap)
                acc += tap
            if add:
                dst += acc
            elif buffered:
                dst[...] = acc


def conv2d_out_shape(x: Tensor4, weights: np.ndarray, dilation: int = 1,
                     stride: int = 1) -> tuple[int, int, int, int]:
    """Output shape of ``conv2d_raw(x, weights, dilation, stride)``.

    Raises ShapeError or UnsupportedConfigError for operands the conv
    refuses.
    """
    x = check_layout(x, "nhwc", "conv input")
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise ShapeError(f"kernel weights must be (kh,kw,c_in,c_out), got {weights.shape}")
    kh, kw, c_in, c_out = weights.shape
    n, h, w, c = x.shape
    if c != c_in:
        raise ShapeError(f"input has {c} channels but kernel expects {c_in}")
    if dilation < 1 or stride < 1:
        raise UnsupportedConfigError(
            f"dilation and stride must be >= 1, got {dilation}, {stride}"
        )
    return n, conv_out_len(h, stride), conv_out_len(w, stride), c_out


def conv2d_raw(
    x: Tensor4, weights: np.ndarray, dilation: int = 1, stride: int = 1,
    out: Tensor4 | None = None,
) -> Tensor4:
    """Direct 2-D convolution with same zero padding and dilated taps.

    Output shape is (n, ceil(h/stride), ceil(w/stride), c_out); taps falling
    outside the input read zero.  Accumulation runs over taps in row-major
    (ky, kx) order, with the channel reduction done per tap, so results are
    deterministic for fixed inputs.  The result is written into ``out``
    when given (every element is overwritten; it must have the output's
    shape and dtype) and into a fresh array otherwise.

    Every kernel walks the batch through ``_chunked_tap_gemm`` in chunks of
    ``max(1, _CHUNK_BYTES // one image's output bytes)`` images, so a
    chunk's output and tap product stay in cache while all taps add into
    it; the bits do not depend on the chunk size.  A 1x1 kernel has no
    padding and reads views of ``x``.
    """
    shape = conv2d_out_shape(x, weights, dilation, stride)
    x, weights = np.asarray(x), np.asarray(weights)
    dtype = np.result_type(x, weights)
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"conv output buffer must be {shape} {dtype}, got "
                         f"{out.shape} {out.dtype}")
    kh, kw = weights.shape[:2]
    taps = [(ys, xs, weights[ky, kx]) for ky, kx, ys, xs
            in _tap_slices(kh, kw, dilation, stride, shape[1], shape[2])]
    ph = same_pad(kh, dilation)
    pw = same_pad(kw, dilation)
    _chunked_tap_gemm(x, ((ph, ph), (pw, pw)),
                      _chunk_step(shape[0], out[0].nbytes),
                      [(slice(None), slice(None), taps)], out)
    return out


def _check_same_shape(x: np.ndarray, y: np.ndarray, op: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{op} requires identical shapes, got {x.shape} vs {y.shape}")


def ew_mul(x: Tensor4, y: Tensor4) -> Tensor4:
    """Elementwise product.  Amplifies positions where both operands respond."""
    x, y = np.asarray(x), np.asarray(y)
    _check_same_shape(x, y, "ew_mul")
    return x * y


def ew_sub(x: Tensor4, y: Tensor4) -> Tensor4:
    """Elementwise difference x - y.  Cancels content shared by both operands."""
    x, y = np.asarray(x), np.asarray(y)
    _check_same_shape(x, y, "ew_sub")
    return x - y


def ew_add(x: Tensor4, y: Tensor4) -> Tensor4:
    x, y = np.asarray(x), np.asarray(y)
    _check_same_shape(x, y, "ew_add")
    return x + y


def global_avg_pool(x: Tensor4) -> ChannelVec:
    """Mean over all spatial positions, per sample and channel: (n,h,w,c) -> (n,c)."""
    x = check_layout(x, "nhwc", "pool input")
    return x.mean(axis=(1, 2))


def fc(x: ChannelVec, weights: np.ndarray, bias: np.ndarray) -> ChannelVec:
    """Affine map per sample: x @ weights + bias, (n,c_in) -> (n,c_out).

    Each row is its own vector-matrix product, so its bits depend only on
    that row and the weights, never on how many rows share the call (a
    BLAS GEMM may block rows differently as their count changes).  The
    product re-reads the weights once per row, which costs little while
    they stay in cache: the desk network's largest FC weight is 16 KiB.
    """
    x = check_layout(x, "nc", "fc input")
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"fc weights must be ({x.shape[1]}, c_out), got {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(f"fc bias must be ({weights.shape[1]},), got {bias.shape}")
    return np.matmul(x[:, None, :], weights)[:, 0, :] + bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x), 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated branch-wise so neither tail overflows."""
    x = np.asarray(x, dtype=np.result_type(x, np.float32))
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out
