"""Synthetic identity datasets for desk-scale verification experiments.

Each identity is a fixed coarse random pattern; samples are the pattern plus
Gaussian pixel noise and a small circular shift, clamped to [-1, 1].  The
generator is a pure function of its spec, so datasets regenerate bit-identically
from a seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import msct

# identities are drawn at 1/PATCH resolution and upsampled, so patterns have
# coarse structure that survives pooling
PATCH = 4


@dataclass(frozen=True)
class SyntheticSpec:
    identity_count: int = 10
    samples_per_identity: int = 50
    height: int = 32
    width: int = 32
    channels: int = 3
    noise_sigma: float = 0.1
    shift_range: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.identity_count < 1 or self.samples_per_identity < 1:
            raise ValueError("need at least one identity and one sample")
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ValueError("image dims must be positive")
        if self.noise_sigma < 0 or self.shift_range < 0:
            raise ValueError("jitter amounts must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def total(self) -> int:
        return self.identity_count * self.samples_per_identity


@dataclass(frozen=True)
class LabeledImages:
    """images: (total, h, w, c) in [-1, 1]; labels: (total,) identity ids.

    ``names`` holds the image filenames in row order when the set was read
    from a directory, None when it was generated.
    """

    images: np.ndarray
    labels: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.images.ndim != 4 or self.labels.shape != (self.images.shape[0],):
            raise ValueError(f"inconsistent dataset shapes {self.images.shape} "
                             f"vs {self.labels.shape}")


def base_pattern(spec: SyntheticSpec, identity: int) -> np.ndarray:
    """The identity's noiseless template, already in [-1, 1]."""
    rng = np.random.default_rng([spec.seed, identity])
    coarse_h = -(-spec.height // PATCH)
    coarse_w = -(-spec.width // PATCH)
    coarse = rng.uniform(-1.0, 1.0, (coarse_h, coarse_w, spec.channels))
    up = np.repeat(np.repeat(coarse, PATCH, axis=0), PATCH, axis=1)
    return up[:spec.height, :spec.width, :]


def gen_synthetic(spec: SyntheticSpec) -> LabeledImages:
    """Deterministic labeled image set, identity-major sample order."""
    images = np.empty((spec.total, spec.height, spec.width, spec.channels))
    labels = np.empty(spec.total, dtype=np.int64)
    pos = 0
    for identity in range(spec.identity_count):
        base = base_pattern(spec, identity)
        jitter = np.random.default_rng([spec.seed, identity, 1])
        for _ in range(spec.samples_per_identity):
            dy, dx = jitter.integers(-spec.shift_range, spec.shift_range + 1,
                                     size=2)
            img = np.roll(base, (int(dy), int(dx)), axis=(0, 1))
            img = img + jitter.normal(0.0, spec.noise_sigma, img.shape)
            images[pos] = np.clip(img, -1.0, 1.0)
            labels[pos] = identity
            pos += 1
    return LabeledImages(images, labels)


# -- disk format: one tensor file per image + labels.txt + optional pairs ----

def _image_name(index: int) -> str:
    return f"img{index:05d}.msct"


def save_dataset(directory, ds: LabeledImages) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = []
    for i in range(ds.images.shape[0]):
        name = _image_name(i)
        msct.write_tensor(os.path.join(directory, name), ds.images[i])
        lines.append(f"{name},{int(ds.labels[i])}")
    with open(os.path.join(directory, "labels.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(directory) -> LabeledImages:
    """The images and labels that ``labels.txt`` lists, in its order.

    Every line of ``labels.txt`` is checked before any image is read: a
    line that is not ``name,label``, a label that is not a non-negative
    integer or a name that is not a plain file name
    (``msct.check_plain_name``) or that an earlier line already lists
    raises msct.FormatError naming ``labels.txt:line`` (and the earlier
    line); a list with no image raises it naming the file.
    Then one float64 ``(n, h, w, c)`` array is allocated on the first image
    and each image is cast into its row as it is read, so the load holds
    that one copy of the dataset plus one image; the float32 to float64
    cast is exact.  An image that is not a non-empty (h, w, c)
    array of finite values, or differs in shape from the first image,
    raises msct.FormatError naming the image file.
    """
    path = os.path.join(directory, "labels.txt")
    labels, line_of = [], {}
    for lineno, row in msct.text_lines(path):
        name, _, ident = row.partition(",")
        if not ident:
            raise msct.FormatError(f"{path}:{lineno}: bad labels line {row!r}")
        if not ident.strip().isdigit():
            raise msct.FormatError(f"{path}:{lineno}: label {ident!r} is not a "
                                   "non-negative integer")
        name = msct.check_plain_name(name, f"{path}:{lineno}")
        if name in line_of:
            raise msct.FormatError(f"{path}:{lineno}: {name!r} is already "
                                   f"listed on line {line_of[name]}")
        line_of[name] = lineno
        labels.append(int(ident))
    names = list(line_of)
    if not names:
        raise msct.FormatError(f"{path}: lists no images")
    images = None
    for i, name in enumerate(names):
        image_path = os.path.join(directory, name)
        image = msct.read_tensor(image_path)
        if image.ndim != 3 or not image.size:
            raise msct.FormatError(f"{image_path}: shape {image.shape} is not "
                                   "a non-empty (h, w, c) image")
        if images is None:
            images = np.empty((len(names),) + image.shape)
        elif image.shape != images.shape[1:]:
            raise msct.FormatError(f"{image_path}: shape {image.shape} differs "
                                   f"from {images.shape[1:]} of {names[0]}")
        if not np.isfinite(image).all():
            raise msct.FormatError(f"{image_path}: non-finite pixel values")
        images[i] = image
    return LabeledImages(images, np.asarray(labels, dtype=np.int64),
                         tuple(names))


def make_pairs(labels: np.ndarray, genuine_count: int, impostor_count: int,
               seed: int) -> list[tuple[int, int, int]]:
    """Sampled (index_a, index_b, same) triples, deterministic given seed.

    Genuine pairs draw two distinct samples of one identity; impostor pairs
    draw samples of two distinct identities.  Requires non-negative counts,
    at least two samples for some identity and at least two identities.
    """
    if genuine_count < 0 or impostor_count < 0:
        raise ValueError(f"pair counts must be non-negative, got genuine="
                         f"{genuine_count} impostor={impostor_count}")
    labels = np.asarray(labels)
    rng = np.random.default_rng([seed, 2])
    by_id: dict[int, np.ndarray] = {
        int(v): np.flatnonzero(labels == v) for v in np.unique(labels)}
    rich = [v for v, idx in by_id.items() if idx.size >= 2]
    ids = sorted(by_id)
    if genuine_count and not rich:
        raise ValueError("no identity has two samples; cannot form genuine pairs")
    if impostor_count and len(ids) < 2:
        raise ValueError("need two identities for impostor pairs")
    pairs = []
    for _ in range(genuine_count):
        ident = rich[int(rng.integers(len(rich)))]
        i, j = rng.choice(by_id[ident], size=2, replace=False)
        pairs.append((int(i), int(j), 1))
    for _ in range(impostor_count):
        a, b = rng.choice(len(ids), size=2, replace=False)
        i = rng.choice(by_id[ids[int(a)]])
        j = rng.choice(by_id[ids[int(b)]])
        pairs.append((int(i), int(j), 0))
    return pairs


def write_pairs(path, pairs: list[tuple[int, int, int]]) -> None:
    """Pair list file: file_a,file_b,same{0|1} per line."""
    with open(path, "w") as fh:
        for i, j, same in pairs:
            fh.write(f"{_image_name(i)},{_image_name(j)},{int(bool(same))}\n")


def read_pairs(path, names) -> list[tuple[int, int, int]]:
    """(row_a, row_b, same) triples of a pair list file.

    ``names`` lists the image filenames in dataset row order, as
    ``load_dataset`` reads them from ``labels.txt``; each filename resolves
    to its row, and one that is not listed raises FormatError.
    """
    pairs = []
    rows = {name: i for i, name in enumerate(names)}

    def row_of(name: str) -> int:
        if name not in rows:
            raise msct.FormatError(
                f"pair {len(pairs) + 1} names {name!r}, which is not "
                f"among the {len(names)} images in labels.txt")
        return rows[name]

    for lineno, line in msct.text_lines(path):
        parts = line.split(",")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise msct.FormatError(f"{path}:{lineno}: bad pairs line {line!r}")
        pairs.append((row_of(parts[0]), row_of(parts[1]), int(parts[2])))
    return pairs
