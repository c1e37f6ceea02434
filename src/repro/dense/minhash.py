"""MinHash LSH over character k-shingles (Section IV-D).

Each entity's shingle set is summarized by a minhash signature — the
minima of random permutations of the shingle universe, realized with
universal hashing.  Signatures are split into ``bands`` bands of ``rows``
rows; two entities collide (become a candidate pair) when they agree on
all rows of at least one band.  The bands/rows split approximates a
high-pass filter on Jaccard similarity with threshold roughly
``(1/bands)^(1/rows)``.

This is the only dense NN method in the paper with a *syntactic* scope:
it never touches embeddings.
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from ..core.candidates import CandidateSet
from ..core.filters import Filter
from ..core.incremental import BucketIndex
from ..core.profile import EntityCollection, EntityProfile
from ..core.stages import INDEX, NN_STAGES, PREPROCESS, QUERY
from ..text.cleaning import TextCleaner
from ..text.tokenizers import shingles
from .base import bucket_join

__all__ = ["MinHashLSH", "IncrementalMinHashLSH"]

# 2^31 - 1: small enough that a * x + b fits in uint64, large enough for
# the shingle vocabularies of ER datasets.
_MERSENNE_PRIME = (1 << 31) - 1


def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little") % _MERSENNE_PRIME


class MinHashLSH(Filter):
    """Banded MinHash LSH filter.

    Parameters
    ----------
    bands / rows:
        The banding scheme; ``bands * rows`` is the signature length (the
        paper uses powers of two with products in {128, 256, 512}).
    shingle_k:
        Character shingle length (the paper tries k in [2, 5]).
    cleaning:
        Apply stop-word removal and stemming first.
    seed:
        Seed of the random hash family — the source of the method's
        stochasticity (Table II).
    """

    name = "mh-lsh"
    stages = NN_STAGES

    def __init__(
        self,
        bands: int = 32,
        rows: int = 8,
        shingle_k: int = 3,
        cleaning: bool = False,
        seed: int = 0,
    ) -> None:
        if bands < 1 or rows < 1:
            raise ValueError("bands and rows must be positive")
        if shingle_k < 1:
            raise ValueError(f"shingle_k must be positive, got {shingle_k}")
        super().__init__()
        self.bands = bands
        self.rows = rows
        self.shingle_k = shingle_k
        self.cleaning = cleaning
        self.seed = seed
        self._cleaner = TextCleaner()

    @property
    def is_stochastic(self) -> bool:
        return True

    def reseed(self, seed: int) -> None:
        """Change the hash-family seed (used to average over repetitions)."""
        self.seed = seed

    @property
    def num_permutations(self) -> int:
        return self.bands * self.rows

    @property
    def approximate_threshold(self) -> float:
        """The Jaccard level where the collision S-curve crosses over."""
        return (1.0 / self.bands) ** (1.0 / self.rows)

    # ------------------------------------------------------------------
    # Signatures.
    # ------------------------------------------------------------------

    def _hash_family(self) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        count = self.num_permutations
        a = rng.integers(1, _MERSENNE_PRIME, size=count, dtype=np.uint64)
        b = rng.integers(0, _MERSENNE_PRIME, size=count, dtype=np.uint64)
        return a, b

    def _signature(
        self, tokens: FrozenSet[str], a: np.ndarray, b: np.ndarray
    ) -> Optional[np.ndarray]:
        if not tokens:
            return None
        hashes = np.fromiter(
            (_token_hash(t) for t in tokens), dtype=np.uint64, count=len(tokens)
        )
        # (a * x + b) mod p; both factors are < 2^31 so uint64 cannot overflow.
        products = (hashes[:, None] * a[None, :] + b[None, :]) % _MERSENNE_PRIME
        return products.min(axis=0)

    def _shingle_sets(
        self, collection: EntityCollection, attribute: Optional[str]
    ) -> List[FrozenSet[str]]:
        texts = collection.texts(attribute)
        if self.cleaning:
            texts = [self._cleaner.clean(text) for text in texts]
        return [frozenset(shingles(text, self.shingle_k)) for text in texts]

    # ------------------------------------------------------------------
    # Filtering.
    # ------------------------------------------------------------------

    def _run(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str],
    ) -> CandidateSet:
        with self.trace.stage(
            PREPROCESS, input_size=len(left) + len(right)
        ):
            a, b = self._hash_family()
            left_sets = self._shingle_sets(left, attribute)
            right_sets = self._shingle_sets(right, attribute)
            left_signatures = [self._signature(s, a, b) for s in left_sets]
            right_signatures = [self._signature(s, a, b) for s in right_sets]
        with self.trace.stage(INDEX, input_size=len(left_signatures)):
            left_ids, left_matrix = self._stack(left_signatures)
        with self.trace.stage(
            QUERY, input_size=len(right_signatures)
        ) as query:
            right_ids, right_matrix = self._stack(right_signatures)
            matrix = np.vstack([left_matrix, right_matrix])
            joins = []
            for band in range(self.bands):
                # Exact codes of the band's chunks on both sides, so equal
                # codes mean equal chunks (no hash, hence no collisions).
                codes = np.unique(
                    matrix[:, band * self.rows : (band + 1) * self.rows],
                    axis=0,
                    return_inverse=True,
                )[1].reshape(-1)
                left_pos, right_pos = bucket_join(
                    codes[: len(left_ids)], codes[len(left_ids) :]
                )
                joins.append((left_ids[left_pos], right_ids[right_pos]))
            candidates = CandidateSet.from_ids(
                *(np.concatenate(ids) for ids in zip(*joins))
            )
            query.output_size = len(candidates)
        return candidates

    def _stack(
        self, signatures: List[Optional[np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ids and stacked signatures of the entities that have one."""
        ids = np.flatnonzero([s is not None for s in signatures])
        matrix = np.array([signatures[i] for i in ids], dtype=np.uint64)
        return ids, matrix.reshape(len(ids), self.num_permutations)

    def describe(self) -> str:
        flags = " [clean]" if self.cleaning else ""
        return (
            f"{self.name}(bands={self.bands}, rows={self.rows}, "
            f"k={self.shingle_k}){flags}"
        )


class IncrementalMinHashLSH(BucketIndex):
    """Mutable banded MinHash LSH tables: one bucket per band chunk.

    Delegates the signature math to a private :class:`MinHashLSH` so the
    streamed bucketing is bit-identical to the batch filter under the
    same seed: an entity added here lands in exactly the buckets the
    batch ``_run`` would put it in, and a query visits exactly the
    buckets its signature selects.  The bucket keys are
    ``(band, chunk bytes)``; an entity without shingles has none.
    """

    name = "inc-mh-lsh"

    def __init__(
        self,
        bands: int = 32,
        rows: int = 8,
        shingle_k: int = 3,
        cleaning: bool = False,
        seed: int = 0,
        attribute: Optional[str] = None,
    ) -> None:
        super().__init__(attribute=attribute)
        self._lsh = MinHashLSH(
            bands=bands, rows=rows, shingle_k=shingle_k,
            cleaning=cleaning, seed=seed,
        )
        self._a, self._b = self._lsh._hash_family()

    @property
    def bands(self) -> int:
        return self._lsh.bands

    @property
    def rows(self) -> int:
        return self._lsh.rows

    def _keys(self, profile: EntityProfile) -> List[Tuple[int, bytes]]:
        text = self.text_of(profile)
        if self._lsh.cleaning:
            text = self._lsh._cleaner.clean(text)
        tokens = frozenset(shingles(text, self._lsh.shingle_k))
        signature = self._lsh._signature(tokens, self._a, self._b)
        if signature is None:
            return []
        rows = self._lsh.rows
        return [
            (band, signature[band * rows : (band + 1) * rows].tobytes())
            for band in range(self._lsh.bands)
        ]

    def describe(self) -> str:
        return self._lsh.describe().replace(self._lsh.name, self.name, 1)
