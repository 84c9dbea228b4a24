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
kernel behind it, ``_chunked_tap_gemm``, also computes the conv's input
gradient in ``autograd``: one stride-1 correlation of the output gradient
per stride phase, in the same chunks.  The backward's bits changed when it
moved to chunks (its weight gradient now sums per chunk); the forward's
bits did not.  ``conv2d_raw`` writes into a caller's ``out`` buffer when
given one, so an inference pass can reuse its activation memory.

Inference runs depth-first on top of that: ``model.tinynet_embed`` splits
an image set once, by ``even_chunks``, into chunks of as many images as fit
``_DEPTH_BYTES`` (2 MiB, the L2 size) of one image's largest activation
(fewer when its caller caps the batch size), and runs the whole network on
one chunk at a time, one chunk per core at once.  The split never depends on
the core count and a chunk's bits depend only on its images, so the split
fixes the bits whatever the number of cores.  Split two or more images, no chunk holds
one: a one-row GEMM takes OpenBLAS's gemv path, whose bits differ.  With
more rows the bits equal one pass over the whole set at the desk widths,
where every op here is row-independent.  They need not at narrow FC widths:
on OpenBLAS 0.3.31's Haswell kernels a row of ``(n, k) @ (k, m)`` depends
on ``n`` when ``m % 8`` is 1, 2 or 3 and ``k >= 16``, or ``m == 1`` and
``k >= 8``, which a small ``min_width`` or a large ``reduction`` reaches.

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
    """An op produced inf/nan while debug checks were enabled."""


_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle post-op finiteness validation (off by default; costs a scan)."""
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


def _finite_guard(out: np.ndarray, op: str) -> np.ndarray:
    if _debug_checks and not np.isfinite(out).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return out


def check_tensor4(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{name} must have rank 4 (n,h,w,c), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has an empty dimension: {x.shape}")
    return x


def check_channel_vec(x: np.ndarray, name: str = "vector") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"{name} must have rank 2 (n,c), got shape {x.shape}")
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
    """Slices that split ``n`` images into near-equal chunks, largest first.

    The images split into ``max(1, min(ceil(n / step), n // 2))`` chunks
    for ``step`` at least two (a smaller step counts as two), so buffers
    sized by the first chunk hold every later one.  No chunk has more than
    ``step`` images (but three when ``step`` is two and ``n`` is odd), and
    none has one image when ``n >= 2`` (see the module docstring).
    """
    step = max(2, step)
    count = max(1, min(-(-n // step), n // 2))
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


def _chunked_tap_gemm(src: Tensor4, pads, step: int, phases, out: Tensor4) -> None:
    """Writes ``out[:, rows, cols] = sum of padded src[:, ys, xs, :] @ mat``.

    ``phases`` lists (rows, cols, taps) with taps a list of (ys, xs, mat):
    slices of ``src`` padded by ``pads`` and a (c_src, c_out) matrix.  The
    batch is walked in chunks of ``step`` images; per chunk and phase the
    first tap's product is assigned and later ones are added from one
    reused buffer, in list order.  A strided phase of ``out`` is summed in a
    contiguous buffer and copied in once.  Every image row gets the same
    GEMM per tap whatever the chunk size, so ``step`` never changes a bit.
    """
    size = max(out[0, rows, cols].size for rows, cols, _ in phases)
    tap_buf = np.empty(step * size, dtype=out.dtype)
    strided = not all(out[:, rows, cols].flags.c_contiguous
                      for rows, cols, _ in phases)
    acc_buf = np.empty_like(tap_buf) if strided else None
    for i, chunk in _padded_chunks(src, pads, step):
        for rows, cols, taps in phases:
            dst = out[i:i + len(chunk), rows, cols]
            acc = acc_buf[:dst.size].reshape(dst.shape) if strided else dst
            tap = tap_buf[:dst.size].reshape(dst.shape)
            (ys, xs, mat), *rest = taps
            np.matmul(chunk[:, ys, xs, :], mat, out=acc)
            for ys, xs, mat in rest:
                np.matmul(chunk[:, ys, xs, :], mat, out=tap)
                acc += tap
            if strided:
                dst[...] = acc


def conv2d_out_shape(x: Tensor4, weights: np.ndarray, dilation: int = 1,
                     stride: int = 1) -> tuple[int, int, int, int]:
    """Output shape of ``conv2d_raw(x, weights, dilation, stride)``.

    Raises ShapeError or UnsupportedConfigError for operands the conv
    refuses.
    """
    x = check_tensor4(x, "conv input")
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

    A kernel of several taps walks the batch through ``_chunked_tap_gemm``
    in chunks of ``max(1, _CHUNK_BYTES // one image's output bytes)``
    images, so a chunk's output and tap product stay in cache while all taps
    add into it; the bits do not depend on the chunk size.  A one-tap kernel
    has nothing to accumulate and stays one matmul over the whole batch.
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
    if len(taps) == 1:
        ys, xs, mat = taps[0]
        np.matmul(x[:, ys, xs, :], mat, out=out)
        return _finite_guard(out, "conv2d")
    ph = same_pad(kh, dilation)
    pw = same_pad(kw, dilation)
    _chunked_tap_gemm(x, ((ph, ph), (pw, pw)),
                      _chunk_step(shape[0], out[0].nbytes),
                      [(slice(None), slice(None), taps)], out)
    return _finite_guard(out, "conv2d")


def _check_same_shape(x: np.ndarray, y: np.ndarray, op: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{op} requires identical shapes, got {x.shape} vs {y.shape}")


def ew_mul(x: Tensor4, y: Tensor4) -> Tensor4:
    """Elementwise product.  Amplifies positions where both operands respond."""
    x, y = np.asarray(x), np.asarray(y)
    _check_same_shape(x, y, "ew_mul")
    return _finite_guard(x * y, "ew_mul")


def ew_sub(x: Tensor4, y: Tensor4) -> Tensor4:
    """Elementwise difference x - y.  Cancels content shared by both operands."""
    x, y = np.asarray(x), np.asarray(y)
    _check_same_shape(x, y, "ew_sub")
    return _finite_guard(x - y, "ew_sub")


def ew_add(x: Tensor4, y: Tensor4) -> Tensor4:
    x, y = np.asarray(x), np.asarray(y)
    _check_same_shape(x, y, "ew_add")
    return _finite_guard(x + y, "ew_add")


def global_avg_pool(x: Tensor4) -> ChannelVec:
    """Mean over all spatial positions, per sample and channel: (n,h,w,c) -> (n,c)."""
    x = check_tensor4(x, "pool input")
    return _finite_guard(x.mean(axis=(1, 2)), "global_avg_pool")


def fc(x: ChannelVec, weights: np.ndarray, bias: np.ndarray) -> ChannelVec:
    """Affine map per sample: x @ weights + bias, (n,c_in) -> (n,c_out)."""
    x = check_channel_vec(x, "fc input")
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"fc weights must be ({x.shape[1]}, c_out), got {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(f"fc bias must be ({weights.shape[1]},), got {bias.shape}")
    return _finite_guard(x @ weights + bias, "fc")


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
