"""Rank-4 tensor primitives: direct 2-D convolution and elementwise fusion ops.

Activations live in numpy arrays laid out channel-last, shape ``(n, h, w, c)``
(batch, rows, cols, channels), C-contiguous.  Channel statistics use shape
``(n, c)``.  Every function here is pure: inputs are never mutated and the
same inputs produce bit-identical outputs (accumulation order is fixed).

``conv2d_raw`` runs through ``_row_folded_gemm``, which also runs the
conv's input gradient in ``autograd``.  Per chunk of images (as many as fit
``_CHUNK_BYTES`` of output) it copies the input once into one zero-bordered
buffer per row stride phase, whose last axis holds one kernel row's kw taps
side by side (K = kw*c).  Each kernel row is then one GEMM per image and
block of output rows, the block's fold at most ``_BLOCK_BYTES`` (192 KiB)
unless one row is larger, later kernel rows added, so an image's bits
depend only on that image.  ``conv2d_raw`` writes into a caller's
``out`` buffer when given one, so inference can reuse its activation memory.

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


# Output bytes of one chunk: with its folded input and one kernel row's
# product beside it, a chunk's working set stays well inside a 2 MiB L2.
_CHUNK_BYTES = 256 * 1024

# Fold bytes of one GEMM's row block: a float64 (512, 48) @ (48, 32), 192
# KiB, runs at 26-38 GMAC/s on one core and a (1024, 48) one at 14-24,
# while a K = 9 stem GEMM still gains from 512 rows to a 64x64 image's 4096.
_BLOCK_BYTES = 192 * 1024


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


def _clip(start: int, stride: int, count: int, size: int):
    """(dst, src) slices: the j < count with start + stride*j in [0, size)."""
    lo = max(0, -(start // stride))
    hi = max(lo, min(count, (size - 1 - start) // stride + 1))
    src = range(start, start + stride * count, stride)[lo:hi]
    return slice(lo, hi), slice(src.start, src.stop, stride)


def _row_folds(src: Tensor4, step: int, folds):
    """Yields (i, bufs): ``src[i:i+step]`` folded once per fold.

    A fold (rows, taps, width) names rows (start, stride, count) and column
    taps (start, stride) of ``src``, out of range reading zero; its buffer
    (m, count, width, taps*c), zeroed once and reused, holds the taps'
    pixels side by side.  A one-tap fold that clips nothing is a view.
    """
    n, h, w, c = src.shape
    # one c-channel pixel per item: 1.1-2.2x faster than a loop over floats
    pixel = np.dtype((np.void, c * src.itemsize))
    pixels = np.ascontiguousarray(src).view(pixel)[..., 0]
    plans = []
    for (r0, rs, count), taps, width in folds:
        copies = [(_clip(r0, rs, count, h), _clip(x0, xs, width, w))
                  for x0, xs in taps]
        (dr, _), (dc, _) = copies[0]
        view = len(taps) == 1 and (dr, dc) == (slice(0, count), slice(0, width))
        plans.append((None if view else np.zeros(
            (step, count, width, len(taps) * c), src.dtype), copies))
    for i in range(0, n, step):
        m, bufs = min(step, n - i), []
        for buf, copies in plans:
            if buf is None:  # a view of src
                (_, sr), (_, sc) = copies[0]
                bufs.append(src[i:i + m, sr, sc])
                continue
            for t, ((dr, sr), (dc, sc)) in enumerate(copies):
                buf.view(pixel)[:m, dr, dc, t] = pixels[i:i + m, sr, sc]
            bufs.append(buf[:m])
        yield i, bufs


def _row_folded_gemm(src: Tensor4, step: int, folds, targets, out: Tensor4,
                     add: bool = False) -> None:
    """Writes (or with ``add`` adds) ``out[:, rows, cols] = sum of
    fold[:, j0:] @ mat`` over each target's (rows, cols, [(fold, j0, mat)]).

    A fold (``_row_folds``, in chunks of ``step`` images) row of ``width``
    pixels gives ``width * N`` products, the first of which fill a row of
    ``out[:, rows, cols]``.  Rows go in blocks of at most ``_BLOCK_BYTES``
    of fold (at least one row), one GEMM per image and block (per row on a
    strided view), the first assigned and later ones added, in a buffer
    unless the rows are whole and contiguous.  Every GEMM's shape depends
    only on one image's geometry: ``step`` and the batch move no bit.
    """
    plans = []
    for rows, cols, gemms in targets:
        width, (k, n_out) = folds[gemms[0][0]][2], gemms[0][2].shape
        block = max(1, _BLOCK_BYTES // (width * k * src.itemsize))
        plans.append((rows, cols, gemms, width, n_out, block))
    size = step * max(min(block, len(out[0, rows, cols])) * width * n_out
                      for rows, cols, _, width, n_out, block in plans)
    tap_buf, acc_buf = np.empty(size, out.dtype), np.empty(size, out.dtype)
    for i, bufs in _row_folds(src, step, folds):
        m = len(bufs[0])
        for rows, cols, gemms, width, n_out, block in plans:
            target = out[i:i + m, rows, cols]
            for a in range(0, target.shape[1], block):
                dst = target[:, a:a + block]
                b, length = dst.shape[1], dst[0, 0].size
                direct = not add and dst[0].flags.c_contiguous \
                    and length == width * n_out
                acc = (dst if direct else acc_buf[:m * b * width * n_out]
                       ).reshape(m, b * width, n_out)
                tap = tap_buf[:acc.size].reshape(acc.shape)
                for k, (f, j0, mat) in enumerate(gemms):
                    fold = bufs[f][:, j0 + a:j0 + a + b]
                    if fold[0].flags.c_contiguous:  # else one GEMM per row
                        fold = fold.reshape(m, b * width, -1)
                    np.matmul(fold, mat, out=(tap if k else acc).reshape(
                        *fold.shape[:-1], -1))
                    if k:
                        acc += tap
                part = acc.reshape(m, b, -1)[..., :length].reshape(dst.shape)
                if add:
                    dst += part
                elif not direct:
                    dst[...] = part


def _conv_folds(kh: int, kw: int, dilation: int, stride: int, oh: int,
                ow: int):
    """The conv input's folds and, per kernel row, (fold, j0): kernel row
    ky reads rows ``j0 + o`` of its row stride phase's fold.  Only phases
    some kernel row reads get a fold, spanning just the rows read."""
    pad, offs = same_pad(kh, dilation), range(0, dilation * kh, dilation)
    phases = sorted({o % stride for o in offs})
    spans = [[o for o in offs if o % stride == p] for p in phases]
    taps = [(dilation * kx - same_pad(kw, dilation), stride) for kx in range(kw)]
    folds = [((os[0] - pad, stride, (os[-1] - os[0]) // stride + oh), taps, ow)
             for os in spans]
    fold_of = [phases.index(o % stride) for o in offs]
    return folds, [(f, (o - spans[f][0]) // stride)
                   for f, o in zip(fold_of, offs)]


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
    outside the input read zero.  The result is written into ``out`` when
    given (every element is overwritten; it must have the output's shape
    and dtype) and into a fresh array otherwise.

    Kernel row ky is one GEMM of its kw taps side by side (K = kw*c) with
    ``weights[ky]`` per image and block of output rows, rows added in ky
    order (``_row_folded_gemm``); an image's bits depend only on that
    image.  A 1x1 kernel reads views of ``x``, one GEMM per output row at
    a stride above one.
    """
    shape = conv2d_out_shape(x, weights, dilation, stride)
    x, weights = np.asarray(x), np.asarray(weights)
    dtype = np.result_type(x, weights)
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != dtype:
        raise ShapeError(f"conv output buffer must be {shape} {dtype}, got "
                         f"{out.shape} {out.dtype}")
    kh, kw, _, c_out = weights.shape
    folds, reads = _conv_folds(kh, kw, dilation, stride, shape[1], shape[2])
    gemms = [(f, j0, weights[ky].reshape(-1, c_out))
             for ky, (f, j0) in enumerate(reads)]
    _row_folded_gemm(x, _chunk_step(shape[0], out[0].nbytes), folds,
                     [(slice(None), slice(None), gemms)], out)
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
