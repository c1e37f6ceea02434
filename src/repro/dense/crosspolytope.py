"""Cross-Polytope LSH (Andoni et al., NIPS 2015) — the FALCONN substitute.

A cross-polytope hash partitions the unit sphere by the Voronoi cells of
the vertices of a randomly rotated cross-polytope (the l1 unit ball): the
hash of a vector is the closest signed standard basis vector after a
pseudo-random rotation.  As in FALCONN, the rotation is three rounds of
"random sign flips followed by a fast Hadamard transform", applied to the
vector padded to the next power of two; the ``last_cp_dimension``
parameter truncates the final hash function's space, trading granularity
for collision probability.  ``hashes`` values are concatenated per table;
``tables`` tables are probed, each with a multiprobe sequence over the
runner-up vertices.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.stages import INDEX, QUERY
from .base import DenseNNFilter, bucket_join
from .embeddings import HashedNGramEmbedder

__all__ = ["CrossPolytopeLSH", "fwht"]


def fwht(matrix: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis (power-of-2 size).

    Unnormalized butterfly; callers that need orthogonality divide by
    sqrt(n).  Operates on a copy.
    """
    result = np.array(matrix, dtype=np.float32, copy=True)
    n = result.shape[-1]
    if n & (n - 1):
        raise ValueError(f"last axis must be a power of two, got {n}")
    lead = result.shape[:-1]
    h = 1
    while h < n:
        view = result.reshape(*lead, n // (2 * h), 2, h)
        a = view[..., 0, :]
        b = view[..., 1, :]
        butterfly = np.empty_like(view)
        butterfly[..., 0, :] = a + b
        butterfly[..., 1, :] = a - b
        result = butterfly.reshape(*lead, n)
        h *= 2
    return result


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


class CrossPolytopeLSH(DenseNNFilter):
    """Multi-table, multi-probe cross-polytope LSH over entity embeddings."""

    name = "cp-lsh"

    def __init__(
        self,
        tables: int = 10,
        hashes: int = 1,
        last_cp_dimension: Optional[int] = None,
        probes: Optional[int] = None,
        cleaning: bool = False,
        seed: int = 0,
        embedder: Optional[HashedNGramEmbedder] = None,
    ) -> None:
        if tables < 1:
            raise ValueError(f"tables must be positive, got {tables}")
        if hashes < 1:
            raise ValueError(f"hashes must be positive, got {hashes}")
        super().__init__(cleaning=cleaning, embedder=embedder)
        self.tables = tables
        self.hashes = hashes
        self.last_cp_dimension = last_cp_dimension
        self.probes = probes if probes is not None else tables
        self.seed = seed

    @property
    def is_stochastic(self) -> bool:
        return True

    def reseed(self, seed: int) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    # Hashing.
    # ------------------------------------------------------------------

    def _rotations(self, padded_dim: int) -> np.ndarray:
        """Sign matrices of shape (tables, hashes, rounds, padded_dim)."""
        rng = np.random.default_rng(self.seed)
        return rng.choice(
            np.array([-1.0, 1.0], dtype=np.float32),
            size=(self.tables, self.hashes, 3, padded_dim),
        )

    def _rotate(self, vectors: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Apply 3x (diagonal signs, Hadamard) pseudo-random rotation."""
        result = vectors
        scale = 1.0 / np.sqrt(vectors.shape[-1])
        for round_index in range(3):
            result = fwht(result * signs[round_index][None, :]) * scale
        return result

    def _hash_values(
        self, vectors: np.ndarray, signs: np.ndarray, is_last: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per vector: the winning vertex id and the runner-up vertex id."""
        rotated = self._rotate(vectors, signs)
        if is_last and self.last_cp_dimension:
            dim = min(self.last_cp_dimension, rotated.shape[1])
            rotated = rotated[:, :dim]
        magnitudes = np.abs(rotated)
        best = np.argmax(magnitudes, axis=1)
        rows = np.arange(rotated.shape[0])
        best_signs = rotated[rows, best] < 0
        winners = 2 * best + best_signs.astype(np.int64)
        # Runner-up vertex for multiprobe.
        masked = magnitudes.copy()
        masked[rows, best] = -1.0
        second = np.argmax(masked, axis=1)
        second_signs = rotated[rows, second] < 0
        runners = 2 * second + second_signs.astype(np.int64)
        return winners, runners

    def _bucket_keys(
        self, vectors: np.ndarray, rotations: np.ndarray, table: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated hash keys plus the per-vector probe alternative."""
        padded = np.zeros(
            (vectors.shape[0], rotations.shape[-1]), dtype=np.float32
        )
        padded[:, : vectors.shape[1]] = vectors
        keys = np.zeros(vectors.shape[0], dtype=np.int64)
        alternatives = np.zeros(vectors.shape[0], dtype=np.int64)
        base = 2 * rotations.shape[-1] + 2
        for h in range(self.hashes):
            is_last = h == self.hashes - 1
            winners, runners = self._hash_values(
                padded, rotations[table, h], is_last
            )
            keys = keys * base + winners
            # The probe alternative flips only the last hash function.
            if is_last:
                alternatives = (keys - winners) + runners
            else:
                alternatives = alternatives * base + winners
        return keys, alternatives

    # ------------------------------------------------------------------
    # Filtering.
    # ------------------------------------------------------------------

    def _index_and_query(
        self, indexed: np.ndarray, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        padded_dim = _next_power_of_two(indexed.shape[1])
        with self.trace.stage(INDEX, input_size=indexed.shape[0]):
            rotations = self._rotations(padded_dim)
            index_keys = [
                self._bucket_keys(indexed, rotations, table)[0]
                for table in range(self.tables)
            ]
        joins = []
        with self.trace.stage(QUERY, input_size=queries.shape[0]):
            for table, keys in enumerate(index_keys):
                probe_keys, alternatives = self._bucket_keys(
                    queries, rotations, table
                )
                if self.probes > self.tables:
                    probe_keys = np.concatenate([probe_keys, alternatives])
                index_pos, probe_pos = bucket_join(keys, probe_keys)
                joins.append((index_pos, probe_pos % queries.shape[0]))
        return tuple(np.concatenate(ids) for ids in zip(*joins))

    def describe(self) -> str:
        return (
            f"{super().describe()}(L={self.tables}, h={self.hashes}, "
            f"cp={self.last_cp_dimension}, probes={self.probes})"
        )
