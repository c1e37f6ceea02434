"""Block building methods (Section IV-B of the paper).

Every builder maps an entity's textual content to a set of signatures
(blocking keys); entities with identical signatures end up in one block.
:meth:`BlockBuilder.build` encodes the signatures of both sides' texts
into one vocabulary-coded :class:`~repro.text.store.TokenStore`
(:meth:`BlockBuilder.key_store`) and groups its codes with
:meth:`~repro.blocking.blocks.BlockCollection.from_store`.  Standard and
Q-Grams Blocking read their stores off the text substrate (their keys
are the T1G and C{q}G token sets, token blocking in the sense of
arXiv:1905.06167); the other builders encode their :meth:`keys` sets.

Implemented builders, in the paper's order:

* :class:`StandardBlocking` — whitespace tokens.
* :class:`QGramsBlocking` — character q-grams of the tokens.
* :class:`ExtendedQGramsBlocking` — concatenations of at least
  ``L = max(1, floor(k*t))`` q-grams per token.
* :class:`SuffixArraysBlocking` — token suffixes of length >= ``l_min``,
  blocks capped at ``b_max`` entities (proactive).
* :class:`ExtendedSuffixArraysBlocking` — all token substrings of length
  >= ``l_min``, capped at ``b_max`` (proactive).
* :class:`SortedNeighborhoodBlocking` — the classic sliding-window method;
  the paper tested and excluded it (it is incompatible with block and
  comparison cleaning), we ship it for completeness.
"""

from __future__ import annotations

import abc
from itertools import combinations
from typing import List, Optional, Sequence, Set, Tuple

from ..core.profile import EntityCollection
from ..text.store import (
    TokenStore,
    encode_sets,
    encode_texts,
    qgram_sequence,
    store_of,
    word_sequence,
)
from ..text.tokenizers import token_qgrams, word_tokens
from .blocks import Block, BlockCollection

__all__ = [
    "BlockBuilder",
    "StandardBlocking",
    "QGramsBlocking",
    "ExtendedQGramsBlocking",
    "SuffixArraysBlocking",
    "ExtendedSuffixArraysBlocking",
    "SortedNeighborhoodBlocking",
]


class BlockBuilder(abc.ABC):
    """Base class: signature extraction + grouping into blocks."""

    name: str = "block-builder"

    @abc.abstractmethod
    def keys(self, text: str) -> Set[str]:
        """The signatures of one entity's textual content."""

    def key_store(self, texts: Sequence[str]) -> TokenStore:
        """Every text's signatures, coded: row ``r`` is ``keys(texts[r])``."""
        return encode_sets([self.keys(text) for text in texts])

    def build(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str] = None,
    ) -> BlockCollection:
        """Blocks between ``left`` and ``right`` under the schema setting."""
        texts = left.texts(attribute) + right.texts(attribute)
        return BlockCollection.from_store(self.key_store(texts), len(left))

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class StandardBlocking(BlockBuilder):
    """Every distinct token of the considered values is one signature."""

    name = "standard"

    def keys(self, text: str) -> Set[str]:
        return set(word_tokens(text))

    def key_store(self, texts: Sequence[str]) -> TokenStore:
        return encode_texts(texts, "T1G", cleaning=False)


class QGramsBlocking(BlockBuilder):
    """Every distinct character q-gram of the tokens is one signature."""

    name = "qgrams"

    def __init__(self, q: int = 3) -> None:
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        self.q = q

    def keys(self, text: str) -> Set[str]:
        grams: Set[str] = set()
        for token in word_tokens(text):
            grams.update(token_qgrams(token, self.q))
        return grams

    def key_store(self, texts: Sequence[str]) -> TokenStore:
        # The C{q}G token sets, through the layers of ``encode_texts``
        # (whose model codes stop at q = 9).
        return store_of(qgram_sequence(word_sequence(texts), self.q), False)

    def describe(self) -> str:
        return f"{self.name}(q={self.q})"


class ExtendedQGramsBlocking(BlockBuilder):
    """Signatures are concatenations of at least L q-grams per token.

    For a token with ``k`` q-grams and threshold ``t`` in [0, 1),
    ``L = max(1, floor(k * t))``; the signatures are all combinations of
    ``L..k`` q-grams (in order, joined), yielding smaller blocks whose
    members share more content than under plain Q-Grams Blocking.

    Tokens with many q-grams would explode combinatorially; above
    ``max_grams_per_token`` q-grams we fall back to the plain q-grams of
    the token (the same safeguard JedAI applies).
    """

    name = "extended-qgrams"

    def __init__(
        self, q: int = 3, t: float = 0.9, max_grams_per_token: int = 12
    ) -> None:
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        if not 0.0 <= t < 1.0:
            raise ValueError(f"t must be in [0, 1), got {t}")
        self.q = q
        self.t = t
        self.max_grams_per_token = max_grams_per_token

    def keys(self, text: str) -> Set[str]:
        signatures: Set[str] = set()
        for token in word_tokens(text):
            grams = token_qgrams(token, self.q)
            k = len(grams)
            if k == 1:
                signatures.add(grams[0])
                continue
            if k > self.max_grams_per_token:
                signatures.update(grams)
                continue
            minimum = max(1, int(k * self.t))
            for size in range(minimum, k + 1):
                for combo in combinations(grams, size):
                    signatures.add("_".join(combo))
        return signatures

    def describe(self) -> str:
        return f"{self.name}(q={self.q}, t={self.t})"


class _ProactiveBuilder(BlockBuilder):
    """Shared machinery for the two suffix-based, size-capped builders."""

    def __init__(self, l_min: int = 3, b_max: int = 50) -> None:
        if l_min < 1:
            raise ValueError(f"l_min must be positive, got {l_min}")
        if b_max < 2:
            raise ValueError(f"b_max must be >= 2, got {b_max}")
        self.l_min = l_min
        self.b_max = b_max

    def build(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str] = None,
    ) -> BlockCollection:
        return self.cap(super().build(left, right, attribute))

    def cap(self, blocks: BlockCollection) -> BlockCollection:
        """``blocks`` without those holding more than ``b_max`` entities."""
        return blocks.select(blocks.sizes <= self.b_max)

    def describe(self) -> str:
        return f"{self.name}(l_min={self.l_min}, b_max={self.b_max})"


class SuffixArraysBlocking(_ProactiveBuilder):
    """Token suffixes of length >= l_min; blocks capped at b_max entities."""

    name = "suffix-arrays"

    def keys(self, text: str) -> Set[str]:
        suffixes: Set[str] = set()
        for token in word_tokens(text):
            if len(token) < self.l_min:
                continue
            for start in range(len(token) - self.l_min + 1):
                suffixes.add(token[start:])
        return suffixes


class ExtendedSuffixArraysBlocking(_ProactiveBuilder):
    """All token substrings of length >= l_min; capped at b_max entities."""

    name = "extended-suffix-arrays"

    def keys(self, text: str) -> Set[str]:
        substrings: Set[str] = set()
        for token in word_tokens(text):
            n = len(token)
            if n < self.l_min:
                continue
            for start in range(n - self.l_min + 1):
                for end in range(start + self.l_min, n + 1):
                    substrings.add(token[start:end])
        return substrings


class SortedNeighborhoodBlocking(BlockBuilder):
    """Classic Sorted Neighborhood: sort by key, slide a window of size w.

    The paper evaluated this method but excluded it from the reported
    results because it consistently underperforms (its blocks cannot be
    refined by block/comparison cleaning).  Provided for completeness and
    for the ablation benchmarks.
    """

    name = "sorted-neighborhood"

    def __init__(self, window: int = 3) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window

    def keys(self, text: str) -> Set[str]:
        return set(word_tokens(text))

    def build(
        self,
        left: EntityCollection,
        right: EntityCollection,
        attribute: Optional[str] = None,
    ) -> BlockCollection:
        entries: List[Tuple[str, int, int]] = []  # (key, side, entity)
        for entity, text in enumerate(left.texts(attribute)):
            for key in self.keys(text):
                entries.append((key, 0, entity))
        for entity, text in enumerate(right.texts(attribute)):
            for key in self.keys(text):
                entries.append((key, 1, entity))
        entries.sort()
        blocks: List[Block] = []
        for start in range(0, max(0, len(entries) - self.window + 1)):
            window = entries[start : start + self.window]
            lefts = tuple(sorted({e for __, side, e in window if side == 0}))
            rights = tuple(sorted({e for __, side, e in window if side == 1}))
            if lefts and rights:
                blocks.append(Block(key=f"w{start}", left=lefts, right=rights))
        return BlockCollection(blocks)

    def describe(self) -> str:
        return f"{self.name}(w={self.window})"
