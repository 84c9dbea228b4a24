"""MSCT tensor files, and the ASCII text lists that name them.

Binary layout: magic ``MSCT``, little-endian u32 rank, u32 per dimension,
then the values as little-endian IEEE-754 float32, row-major.  Readers
reject anything with the wrong magic or whose byte length disagrees with
the header.  A checkpoint holds one file per tensor, named by
``tensor_filename``; ``train.run_tensor_shapes`` lists its tensors.  The
dataset's ``labels.txt`` and ``pairs.txt`` are ASCII text read through
``text_lines``.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

MAGIC = b"MSCT"


class FormatError(ValueError):
    """Corrupt or mismatched MSCT file or text list."""


def tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + np.ascontiguousarray(arr, dtype="<f4").tobytes()


def write_tensor(path: str | os.PathLike, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(tensor_bytes(arr))


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 8:
        raise FormatError("truncated header")
    (rank,) = struct.unpack_from("<I", blob, 4)
    body = 8 + 4 * rank
    if len(blob) < body:
        raise FormatError("truncated dimension list")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    # numpy refuses a shape whose nonzero dimensions span more bytes than an
    # index can address, even when a zero dimension leaves it empty
    if math.prod(d for d in dims if d) * 4 > sys.maxsize:
        raise FormatError(f"dimensions {dims} exceed the addressable size")
    count = math.prod(dims)
    expected = body + 4 * count
    if len(blob) != expected:
        raise FormatError(f"payload length {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=body, count=count)
    try:
        return data.reshape(dims).copy()
    except ValueError:  # more dimensions than numpy holds
        raise FormatError(f"rank {rank} exceeds numpy's limit") from None


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """``tensor_from_bytes`` of a file; its FormatError names ``path``."""
    with open(path, "rb") as f:
        try:
            return tensor_from_bytes(f.read())
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None


def text_lines(path: str | os.PathLike):
    """Yields (line number, stripped line) of an ASCII text file's non-blank
    lines; a non-ASCII byte raises FormatError naming ``path:line``."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: non-ASCII byte "
                                  f"{raw[exc.start]:#04x}") from None
            if line:
                yield lineno, line


def check_plain_name(filename: str, where: str) -> str:
    """``filename`` when it is a plain basename, so the file sits in the
    directory of the list naming it; otherwise FormatError naming ``where``
    (``path:line``)."""
    if filename in ("", ".", "..") or os.path.basename(filename) != filename:
        raise FormatError(f"{where}: filename {filename!r} is not a plain "
                          "file name")
    return filename


def tensor_filename(name: str) -> str:
    """The file of tensor ``name`` in a checkpoint: ``"s0b0/k3"`` is
    ``s0b0_k3.msct``."""
    return name.replace("/", "_").replace(".", "_") + ".msct"

