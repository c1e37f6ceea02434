"""Dataset statistics: the quantities behind Table VI and Figure 3,
plus the per-(dataset, attribute, representation) token statistics that
feed the cost-based tuning layer.

* best-attribute selection by coverage and distinctiveness (Section VI,
  "Schema settings");
* attribute coverage and groundtruth coverage (Figure 3a);
* vocabulary size and overall character length per schema setting, with
  and without cleaning (Figures 3b, 3c);
* :class:`TokenStats` — the token coverage of one (texts, model,
  cleaning) combination, memoised for the process
  (:func:`token_stats`); the kNN-Join tuner's prune rule
  (:mod:`repro.tuning.sparse`) reads it without running a filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..text.memo import clean_collection, tokenize_collection
from ..text.store import TokenStore
from ..text.tokenizers import word_tokens
from .generator import ERDataset

__all__ = [
    "AttributeStats",
    "attribute_stats",
    "select_best_attribute",
    "vocabulary_size",
    "character_length",
    "TextVolume",
    "text_volume",
    "TokenStats",
    "compute_token_stats",
    "token_stats",
    "clear_token_stats_cache",
]


@dataclass(frozen=True)
class AttributeStats:
    """Coverage and distinctiveness of one attribute over both collections."""

    attribute: str
    coverage: float
    distinctiveness: float

    @property
    def score(self) -> float:
        """The selection criterion: coverage weighted by distinctiveness."""
        return self.coverage * self.distinctiveness


def attribute_stats(dataset: ERDataset) -> List[AttributeStats]:
    """Per-attribute stats pooled over both collections, best first."""
    attributes = sorted(
        set(dataset.left.attribute_names) | set(dataset.right.attribute_names)
    )
    total = len(dataset.left) + len(dataset.right)
    stats = []
    for attribute in attributes:
        values = [
            profile.value(attribute)
            for collection in (dataset.left, dataset.right)
            for profile in collection
            if profile.has_value(attribute)
        ]
        coverage = len(values) / total if total else 0.0
        distinctiveness = len(set(values)) / len(values) if values else 0.0
        stats.append(
            AttributeStats(
                attribute=attribute,
                coverage=coverage,
                distinctiveness=distinctiveness,
            )
        )
    stats.sort(key=lambda s: (-s.score, s.attribute))
    return stats


def select_best_attribute(dataset: ERDataset) -> str:
    """The most suitable attribute for schema-based settings."""
    stats = attribute_stats(dataset)
    if not stats:
        raise ValueError(f"dataset {dataset.name} has no attributes")
    return stats[0].attribute


def _texts(
    dataset: ERDataset, attribute: Optional[str], cleaning: bool
) -> List[str]:
    left = dataset.left.texts(attribute)
    right = dataset.right.texts(attribute)
    if cleaning:
        return clean_collection(left) + clean_collection(right)
    return left + right


def vocabulary_size(
    dataset: ERDataset,
    attribute: Optional[str] = None,
    cleaning: bool = False,
) -> int:
    """Total number of distinct tokens in the dataset's textual content."""
    vocabulary = set()
    for text in _texts(dataset, attribute, cleaning):
        vocabulary.update(word_tokens(text))
    return len(vocabulary)


def character_length(
    dataset: ERDataset,
    attribute: Optional[str] = None,
    cleaning: bool = False,
) -> int:
    """Total number of characters in the dataset's textual content."""
    return sum(len(text) for text in _texts(dataset, attribute, cleaning))


@dataclass(frozen=True)
class TextVolume:
    """The Figure-3 measurements for one dataset."""

    vocabulary_agnostic: int
    vocabulary_agnostic_clean: int
    vocabulary_based: int
    vocabulary_based_clean: int
    characters_agnostic: int
    characters_agnostic_clean: int
    characters_based: int
    characters_based_clean: int


def text_volume(dataset: ERDataset, attribute: Optional[str] = None) -> TextVolume:
    """Vocabulary size and character length across settings and cleaning."""
    attribute = attribute or dataset.key_attribute
    return TextVolume(
        vocabulary_agnostic=vocabulary_size(dataset, None, False),
        vocabulary_agnostic_clean=vocabulary_size(dataset, None, True),
        vocabulary_based=vocabulary_size(dataset, attribute, False),
        vocabulary_based_clean=vocabulary_size(dataset, attribute, True),
        characters_agnostic=character_length(dataset, None, False),
        characters_agnostic_clean=character_length(dataset, None, True),
        characters_based=character_length(dataset, attribute, False),
        characters_based_clean=character_length(dataset, attribute, True),
    )


# ----------------------------------------------------------------------
# Token statistics for cost-based tuning.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TokenStats:
    """Token coverage of one (texts, model, cleaning) combination."""

    #: Entities sharing at least one token with the *other* side; every
    #: covered query returns >= 1 candidate at any k.
    left_covered: int
    right_covered: int
    #: Duplicate pairs sharing at least one token: a ceiling on the
    #: duplicates any configuration over these token sets retains, since
    #: token-disjoint pairs never meet in a posting list or overlap row.
    gt_overlapping: int

    def covered_queries(self, reverse: bool) -> int:
        """Queries sharing >= 1 token with the indexed side.

        ``reverse=False`` indexes the left collection and queries with
        the right one (the joins' default orientation).
        """
        return self.left_covered if reverse else self.right_covered


def _rows_hit(store: TokenStore, hit: np.ndarray) -> int:
    """Rows of ``store`` with at least one entry of ``hit`` (per id) set."""
    rows = np.repeat(np.arange(len(store), dtype=np.int64), store.sizes)
    return int(np.unique(rows[hit]).size)


def compute_token_stats(
    left_texts: Sequence[str],
    right_texts: Sequence[str],
    gt_pairs: Iterable[Tuple[int, int]],
    model: str,
    cleaning: bool = False,
) -> TokenStats:
    """Compute :class:`TokenStats` for one preprocessing combination.

    Both sides' coded stores come from the shared memoised tokenizer, so
    a subsequent tuner pass reuses them.  Right-side token ids are mapped
    onto the left vocabulary once; a row is covered when it holds a
    token some row of the other side holds.
    """
    left = tokenize_collection(left_texts, model, cleaning)
    right = tokenize_collection(right_texts, model, cleaning)
    # Right vocabulary id -> left id of a token some left row holds, or -1.
    held = {left.vocabulary[i]: i for i in np.unique(left.ids).tolist()}
    to_left = np.fromiter(
        (held.get(token, -1) for token in right.vocabulary),
        dtype=np.int64,
        count=len(right.vocabulary),
    )
    right_on_left = to_left[right.ids]
    shared = right_on_left >= 0
    left_shared = np.zeros(len(left.vocabulary), dtype=bool)
    left_shared[right_on_left[shared]] = True

    pairs = np.asarray(list(gt_pairs), dtype=np.int64).reshape(-1, 2)
    gt_left = left.take(pairs[:, 0])
    gt_right = right.take(pairs[:, 1])
    # Key each (pair, left token id) and keep the pairs both sides share.
    width = len(left.vocabulary) + 1
    pair_ids = np.arange(len(pairs), dtype=np.int64)
    left_keys = np.repeat(pair_ids, gt_left.sizes) * width + gt_left.ids
    right_ids = to_left[gt_right.ids]
    right_keys = (
        np.repeat(pair_ids, gt_right.sizes) * width + right_ids
    )[right_ids >= 0]
    common = np.intersect1d(left_keys, right_keys, assume_unique=True)

    return TokenStats(
        left_covered=_rows_hit(left, left_shared[left.ids]),
        right_covered=_rows_hit(right, shared),
        gt_overlapping=int(np.unique(common // width).size),
    )


_token_stats_memo: Dict[tuple, TokenStats] = {}


def token_stats(
    left_texts: Sequence[str],
    right_texts: Sequence[str],
    gt_pairs: Iterable[Tuple[int, int]],
    model: str,
    cleaning: bool = False,
) -> TokenStats:
    """:func:`compute_token_stats`, memoized for the process.

    Keyed by both sides' texts, the groundtruth pairs, ``model`` and
    ``cleaning``, so repeated pruned kNN-Join tunes of one dataset count
    each combination once between them.
    """
    gt = tuple(gt_pairs)
    key = (tuple(left_texts), tuple(right_texts), gt, model, bool(cleaning))
    stats = _token_stats_memo.get(key)
    if stats is None:
        stats = compute_token_stats(
            left_texts, right_texts, gt, model=model, cleaning=cleaning
        )
        # Statistics are a pure function of the key: a concurrent miss
        # only recounts, and setdefault keeps one object per key.
        stats = _token_stats_memo.setdefault(key, stats)
    return stats


def clear_token_stats_cache() -> None:
    """Drop every memoized :class:`TokenStats` (tests / memory)."""
    _token_stats_memo.clear()
