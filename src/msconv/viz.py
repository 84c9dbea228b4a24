"""Grayscale dumps of branch feature maps for a chosen block.

For the selected block the top-k channels by activation energy are rendered
as binary PGM images of U1, U2, U1+U2, U1*U2 and U1-U2, and the raw U1/U2
tensors are dumped alongside so the derived maps can be recomputed and
checked offline.
"""

from __future__ import annotations

import os

import numpy as np

from . import msct
from .autograd import Tape
from .model import TinyNetConfig, tinynet_forward

MAP_OPS = ("u1", "u2", "add", "mul", "sub")


def to_gray(arr: np.ndarray) -> np.ndarray:
    """Min-max normalize a 2-D map to uint8; constant maps become mid-gray."""
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.full(arr.shape, 128, dtype=np.uint8)
    return np.rint((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary (P5) PGM, maxval 255."""
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError("write_pgm expects a 2-D uint8 array")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def top_channels(u1: np.ndarray, u2: np.ndarray, k: int) -> list[int]:
    """Channels ranked by total squared activation across both branches."""
    energy = np.sum(u1 * u1, axis=(0, 1)) + np.sum(u2 * u2, axis=(0, 1))
    ranked = np.argsort(-energy, kind="stable")
    return [int(c) for c in ranked[:k]]


def visualize_features(params: dict[str, np.ndarray], cfg: TinyNetConfig,
                       image: np.ndarray, layer: int, out_dir,
                       top_k: int = 5) -> list[str]:
    """Render one block's branch maps for one image; returns written paths.

    ``layer`` indexes blocks in forward order.  Maps are per-channel min-max
    normalized, so they show structure, not absolute magnitude.
    """
    if top_k < 0:
        raise ValueError(f"top must be non-negative, got {top_k}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        image = image[None]
    if image.ndim != 4 or image.shape[0] != 1:
        raise ValueError(f"expected one (h, w, c) image, got shape {image.shape}")

    tape = Tape()
    consts = {k_: tape.constant(v) for k_, v in params.items()}
    traces: list = []
    tinynet_forward(tape, tape.constant(image), consts, cfg, traces=traces)
    if not 0 <= layer < len(traces):
        raise ValueError(f"layer {layer} out of range [0, {len(traces)})")
    name, trace = traces[layer]
    u1 = trace["u1"].value[0]
    u2 = trace["u2"].value[0]

    os.makedirs(out_dir, exist_ok=True)
    msct.write_tensor(os.path.join(out_dir, "u1.msct"), u1)
    msct.write_tensor(os.path.join(out_dir, "u2.msct"), u2)
    written = [os.path.join(out_dir, "u1.msct"),
               os.path.join(out_dir, "u2.msct")]
    maps = {"u1": u1, "u2": u2, "add": u1 + u2, "mul": u1 * u2,
            "sub": u1 - u2}
    for ch in top_channels(u1, u2, top_k):
        for op in MAP_OPS:
            path = os.path.join(out_dir, f"{name}_{op}_c{ch:03d}.pgm")
            write_pgm(path, to_gray(maps[op][:, :, ch]))
            written.append(path)
    return written
