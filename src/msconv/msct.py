"""MSCT tensor files and name=filename manifests.

Binary layout: magic ``MSCT``, little-endian u32 rank, u32 per dimension,
then the values as little-endian IEEE-754 float32, row-major.  Readers
reject anything with the wrong magic or whose byte length disagrees with
the header.  Manifests, like the dataset's ``labels.txt`` and ``pairs.txt``,
are ASCII text read through ``text_lines``.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

MAGIC = b"MSCT"


class FormatError(ValueError):
    """Corrupt or mismatched MSCT file or manifest."""


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
    count = 1
    for d in dims:
        count *= d
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


def write_manifest(path: str | os.PathLike, entries: dict[str, str]) -> None:
    with open(path, "w", encoding="ascii") as f:
        for name, filename in entries.items():
            f.write(f"{name}={filename}\n")


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


def read_manifest(path: str | os.PathLike) -> dict[str, str]:
    """name -> filename per line; a bad line or a name listed twice raises
    FormatError naming ``path:line`` (and the earlier line)."""
    entries: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in text_lines(path):
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected name=filename")
        name, filename = line.split("=", 1)
        if name in line_of:
            raise FormatError(f"{path}:{lineno}: {name!r} is already listed "
                              f"on line {line_of[name]}")
        line_of[name] = lineno
        entries[name] = check_plain_name(filename, f"{path}:{lineno}")
    return entries


def save_tensors(directory: str | os.PathLike,
                 tensors: dict[str, np.ndarray]) -> None:
    """Write one .msct per tensor plus a manifest, names sorted for stable bytes.

    Raises ValueError, before writing anything, when two names map to the
    same file.
    """
    entries = {name: name.replace("/", "_").replace(".", "_") + ".msct"
               for name in sorted(tensors)}
    owner: dict[str, str] = {}
    for name, filename in entries.items():
        first = owner.setdefault(filename, name)
        if first != name:
            raise ValueError(f"tensor names {first!r} and {name!r} both map "
                             f"to the file {filename!r}")
    os.makedirs(directory, exist_ok=True)
    for name, filename in entries.items():
        write_tensor(os.path.join(directory, filename), tensors[name])
    write_manifest(os.path.join(directory, "manifest.txt"), entries)


def load_tensors(directory: str | os.PathLike) -> dict[str, np.ndarray]:
    entries = read_manifest(os.path.join(directory, "manifest.txt"))
    return {name: read_tensor(os.path.join(directory, fn)) for name, fn in entries.items()}
