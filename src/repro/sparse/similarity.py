"""Set-similarity measures of Section IV-C, computed from overlap counts.

All three measures are normalized to [0, 1]:

* cosine  C(A, B) = |A n B| / sqrt(|A| * |B|)
* dice    D(A, B) = 2 |A n B| / (|A| + |B|)
* jaccard J(A, B) = |A n B| / |A u B|

The functions take the set sizes and the overlap, which is how the
ScanCount index produces them — the token sets themselves never need to be
materialized again at query time.

Each scalar measure has an array counterpart (``*_array``) operating on
whole ``(sizes_a, sizes_b, overlaps)`` count arrays at once; they perform
the same float64 operations in the same order, so results are
bit-identical with the scalar versions — the batched join kernels rely
on this for parity with the per-query reference joins of the test suite.
"""

from __future__ import annotations

import math
from typing import Callable, FrozenSet, Tuple

import numpy as np

__all__ = [
    "cosine",
    "dice",
    "jaccard",
    "cosine_array",
    "dice_array",
    "jaccard_array",
    "similarity_function",
    "vector_similarity_function",
    "set_similarity",
    "SIMILARITY_MEASURES",
]

SIMILARITY_MEASURES: Tuple[str, ...] = ("cosine", "dice", "jaccard")


def cosine(size_a: int, size_b: int, overlap: int) -> float:
    """Cosine similarity of two sets from sizes and overlap."""
    if size_a == 0 or size_b == 0:
        return 0.0
    return overlap / math.sqrt(size_a * size_b)


def dice(size_a: int, size_b: int, overlap: int) -> float:
    """Dice similarity of two sets from sizes and overlap."""
    if size_a + size_b == 0:
        return 0.0
    return 2.0 * overlap / (size_a + size_b)


def jaccard(size_a: int, size_b: int, overlap: int) -> float:
    """Jaccard coefficient of two sets from sizes and overlap."""
    union = size_a + size_b - overlap
    if union == 0:
        return 0.0
    return overlap / union


def cosine_array(
    sizes_a: np.ndarray, sizes_b: np.ndarray, overlaps: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`cosine` over parallel count arrays."""
    denominator = np.sqrt(
        np.asarray(sizes_a, dtype=np.int64) * np.asarray(sizes_b, np.int64)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.asarray(overlaps, dtype=np.float64) / denominator
    return np.where(denominator > 0.0, result, 0.0)


def dice_array(
    sizes_a: np.ndarray, sizes_b: np.ndarray, overlaps: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`dice` over parallel count arrays."""
    total = np.asarray(sizes_a, dtype=np.int64) + np.asarray(
        sizes_b, dtype=np.int64
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        result = (2.0 * np.asarray(overlaps, dtype=np.float64)) / total
    return np.where(total > 0, result, 0.0)


def jaccard_array(
    sizes_a: np.ndarray, sizes_b: np.ndarray, overlaps: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`jaccard` over parallel count arrays."""
    union = (
        np.asarray(sizes_a, dtype=np.int64)
        + np.asarray(sizes_b, dtype=np.int64)
        - np.asarray(overlaps, dtype=np.int64)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.asarray(overlaps, dtype=np.float64) / union
    return np.where(union > 0, result, 0.0)


_BY_NAME = {"cosine": cosine, "dice": dice, "jaccard": jaccard}

_VECTOR_BY_NAME = {
    "cosine": cosine_array,
    "dice": dice_array,
    "jaccard": jaccard_array,
}


def similarity_function(name: str) -> Callable[[int, int, int], float]:
    """The measure named ``name`` (case-insensitive)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown similarity measure {name!r}") from None


def vector_similarity_function(
    name: str,
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The array measure named ``name`` (case-insensitive)."""
    try:
        return _VECTOR_BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown similarity measure {name!r}") from None


def set_similarity(a: FrozenSet[str], b: FrozenSet[str], measure: str) -> float:
    """Similarity of two explicit token sets (convenience / testing)."""
    overlap = len(a & b)
    return similarity_function(measure)(len(a), len(b), overlap)
