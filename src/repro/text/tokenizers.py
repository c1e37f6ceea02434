"""Tokenization and the representation models of the paper.

The sparse NN methods (Table IV) use ten representation models:

* ``T1G`` — whitespace tokens as a set; ``T1GM`` — as a multiset.
* ``CnG`` for n in {2,3,4,5} — character n-grams as a set; ``CnGM`` — as a
  multiset.

Multisets are realized by de-duplicating with an occurrence counter, as in
the paper: ``{a, a, b} -> {a#1, a#2, b#1}``, which lets all set-similarity
machinery operate on plain sets.

Blocking methods reuse :func:`word_tokens` (Standard Blocking signatures)
and :func:`character_qgrams` (Q-Grams Blocking signatures).
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Tuple

__all__ = [
    "normalize",
    "word_tokens",
    "character_qgrams",
    "token_qgrams",
    "shingles",
    "multiset_tokens",
    "RepresentationModel",
    "REPRESENTATION_MODELS",
    "tokenize",
]

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def normalize(text: str) -> str:
    """Lowercase and collapse every non-alphanumeric run to one space."""
    return _NON_ALNUM.sub(" ", text.lower()).strip()


def word_tokens(text: str) -> List[str]:
    """Whitespace tokens of the normalized text (Standard Blocking keys)."""
    normalized = normalize(text)
    return normalized.split() if normalized else []


def character_qgrams(text: str, q: int) -> List[str]:
    """Character q-grams of each whitespace token (Q-Grams Blocking keys).

    Tokens shorter than ``q`` contribute themselves whole, so that short
    but discriminative tokens (e.g. "Joe") are not lost.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    grams: List[str] = []
    for token in word_tokens(text):
        if len(token) <= q:
            grams.append(token)
        else:
            grams.extend(token[i : i + q] for i in range(len(token) - q + 1))
    return grams


def token_qgrams(token: str, q: int) -> List[str]:
    """q-grams of a single token (used by Extended Q-Grams Blocking)."""
    if len(token) <= q:
        return [token]
    return [token[i : i + q] for i in range(len(token) - q + 1)]


def shingles(text: str, k: int) -> List[str]:
    """Character k-shingles over the whole normalized string.

    Unlike :func:`character_qgrams`, shingling spans token boundaries
    (spaces included), matching the k-shingle representation MinHash LSH
    uses in the paper (Section V, "Scope").
    """
    normalized = normalize(text)
    if not normalized:
        return []
    if len(normalized) <= k:
        return [normalized]
    return [normalized[i : i + k] for i in range(len(normalized) - k + 1)]


def multiset_tokens(tokens: List[str]) -> List[str]:
    """De-duplicate a token list with occurrence counters.

    ``["a", "a", "b"] -> ["a#1", "a#2", "b#1"]`` — the paper's multiset
    trick that keeps duplicate tokens distinguishable inside a plain set.
    """
    seen: Dict[str, int] = {}
    result = []
    for token in tokens:
        count = seen.get(token, 0) + 1
        seen[token] = count
        result.append(f"{token}#{count}")
    return result


class RepresentationModel:
    """One of the paper's ten token representation models (Table IV)."""

    def __init__(self, code: str) -> None:
        code = code.upper()
        match = re.fullmatch(r"(T1|C([2-9]))G(M?)", code)
        if not match:
            raise ValueError(f"unknown representation model {code!r}")
        self.code = code
        self.is_multiset = bool(match.group(3))
        self.qgram_size = int(match.group(2)) if match.group(2) else None

    def tokens(self, text: str) -> FrozenSet[str]:
        """The token set of ``text`` under this model."""
        if self.qgram_size is None:
            raw = word_tokens(text)
        else:
            raw = character_qgrams(text, self.qgram_size)
        if self.is_multiset:
            raw = multiset_tokens(raw)
        return frozenset(raw)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RepresentationModel):
            return self.code == other.code
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RepresentationModel({self.code!r})"


#: The ten models of Table IV, in the paper's order.
REPRESENTATION_MODELS: Tuple[str, ...] = (
    "T1G", "T1GM",
    "C2G", "C2GM", "C3G", "C3GM", "C4G", "C4GM", "C5G", "C5GM",
)


def tokenize(text: str, model: str) -> FrozenSet[str]:
    """Token set of ``text`` under the named representation model."""
    return RepresentationModel(model).tokens(text)
