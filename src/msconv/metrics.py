"""Verification metrics over genuine/impostor similarity scores.

Thresholding convention, fixed for determinism with tied scores:
  * accept means score >= threshold;
  * candidate thresholds are the sorted unique scores of both lists plus one
    sentinel just above the global maximum (the always-reject point);
  * tar_at_far picks the smallest candidate whose false-accept rate is at or
    under the target, with no interpolation between candidates;
  * pair_accuracy picks the candidate maximizing verification accuracy,
    breaking ties toward the smallest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VerificationSet:
    """Similarity scores of same-identity and cross-identity pairs."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        for tag in ("genuine", "impostor"):
            arr = np.asarray(getattr(self, tag), dtype=np.float64).ravel()
            if arr.size == 0:
                raise ValueError(f"{tag} score list is empty")
            if not np.isfinite(arr).all():
                raise ValueError(f"{tag} scores contain non-finite values")
            object.__setattr__(self, tag, arr)


def pair_scores(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity of two equally shaped embedding batches."""
    a = np.asarray(emb_a, dtype=np.float64)
    b = np.asarray(emb_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"embedding batches must match, got {a.shape} {b.shape}")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("cosine similarity undefined for zero vectors")
    return np.sum(a * b, axis=1) / (na * nb)


def _candidates(vs: VerificationSet) -> np.ndarray:
    merged = np.unique(np.concatenate([vs.genuine, vs.impostor]))
    sentinel = np.nextafter(merged[-1], np.inf)
    return np.append(merged, sentinel)


def _accept_counts(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Count of scores >= t for each threshold, via one sort."""
    ordered = np.sort(scores)
    return scores.size - np.searchsorted(ordered, thresholds, side="left")


def check_far(far_target: float) -> None:
    """Rejects a FAR target outside (0, 1), NaN included."""
    if not 0.0 < far_target < 1.0:
        raise ValueError(f"far_target must be in (0, 1), got {far_target}")


def tar_at_far(vs: VerificationSet, far_target: float) -> tuple[float, float]:
    """True-accept rate at the smallest threshold meeting the FAR target."""
    check_far(far_target)
    cand = _candidates(vs)
    far = _accept_counts(vs.impostor, cand) / vs.impostor.size
    # far is nonincreasing along cand and ends at 0, so a qualifying
    # candidate always exists
    pick = int(np.argmax(far <= far_target))
    threshold = float(cand[pick])
    tar = _accept_counts(vs.genuine, np.array([threshold]))[0] / vs.genuine.size
    return float(tar), threshold


def pair_accuracy(vs: VerificationSet) -> tuple[float, float]:
    """Best verification accuracy over all candidate thresholds."""
    cand = _candidates(vs)
    correct = (_accept_counts(vs.genuine, cand)
               + (vs.impostor.size - _accept_counts(vs.impostor, cand)))
    pick = int(np.argmax(correct))
    total = vs.genuine.size + vs.impostor.size
    return float(correct[pick] / total), float(cand[pick])
