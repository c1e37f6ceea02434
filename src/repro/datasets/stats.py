"""Dataset statistics: the quantities behind Table VI and Figure 3,
plus the per-(dataset, attribute, representation) token statistics that
feed the cost-based tuning layer.

* best-attribute selection by coverage and distinctiveness (Section VI,
  "Schema settings");
* attribute coverage and groundtruth coverage (Figure 3a);
* vocabulary size and overall character length per schema setting, with
  and without cleaning (Figures 3b, 3c);
* :class:`TokenStats` — groundtruth overlap triples, covered-query
  counts and MCV entries, computed once per (texts, key space, cleaning)
  combination in a process-wide memo (:func:`token_stats`).  The
  estimators of :mod:`repro.tuning.estimator` derive every pruning
  decision from these statistics without running a single filter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..text.memo import clean_collection, tokenize_collection
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

#: Most-common-value entries kept per statistics object: enough for the
#: estimators' MCV candidate floors.
TOP_KEYS = 8


@dataclass(frozen=True)
class TokenStats:
    """Doc-frequency statistics of one (texts, key space) combination.

    The groundtruth triples (``gt_sizes_left[i]``, ``gt_sizes_right[i]``,
    ``gt_overlaps[i]``) hold, for the i-th duplicate pair, the key-set
    sizes of both entities and the size of their intersection — exactly
    the inputs of the paper's set-similarity measures, so estimators can
    reproduce a tuner's duplicate-similarity array bit for bit.
    """

    #: Entities sharing at least one key with the *other* side's
    #: vocabulary; every covered query returns >= 1 candidate at any k.
    left_covered: int
    right_covered: int
    #: MCV entries, heaviest convolution first:
    #: (df_left, df_right, max_doc_size_left, max_doc_size_right).
    top_keys: Tuple[Tuple[int, int, int, int], ...]
    gt_sizes_left: Tuple[int, ...]
    gt_sizes_right: Tuple[int, ...]
    gt_overlaps: Tuple[int, ...]

    @property
    def gt_overlapping(self) -> int:
        """Duplicate pairs sharing at least one key.

        A provable ceiling on the duplicates *any* configuration over
        this key space can retain: token-disjoint pairs never meet in a
        block, a posting list or an overlap row.
        """
        return sum(1 for overlap in self.gt_overlaps if overlap > 0)

    def covered_queries(self, reverse: bool) -> int:
        """Queries sharing >= 1 key with the indexed side.

        ``reverse=False`` indexes the left collection and queries with
        the right one (the joins' default orientation).
        """
        return self.left_covered if reverse else self.right_covered


def compute_token_stats(
    left_texts: Sequence[str],
    right_texts: Sequence[str],
    gt_pairs: Iterable[Tuple[int, int]],
    model: str = "",
    cleaning: bool = False,
    key_function: Optional[Callable[[str], Iterable[str]]] = None,
) -> TokenStats:
    """Compute :class:`TokenStats` for one preprocessing combination.

    Either ``model`` names a representation model (token sets come from
    the shared memoized tokenizer, so a subsequent tuner pass reuses
    them), or ``key_function`` maps a (cleaned) text to its blocking
    keys / shingles and ``model`` is its synthetic id.
    """
    if key_function is None:
        left_sets, right_sets = (
            tokenize_collection(texts, model, cleaning).token_sets()
            for texts in (left_texts, right_texts)
        )
    else:
        if cleaning:
            left_texts = clean_collection(left_texts)
            right_texts = clean_collection(right_texts)
        left_sets = [frozenset(key_function(text)) for text in left_texts]
        right_sets = [frozenset(key_function(text)) for text in right_texts]

    df_left: Counter = Counter()
    df_right: Counter = Counter()
    for keys in left_sets:
        df_left.update(keys)
    for keys in right_sets:
        df_right.update(keys)

    shared = df_left.keys() & df_right.keys()
    products = {key: df_left[key] * df_right[key] for key in shared}
    heaviest = sorted(products, key=lambda key: (-products[key], key))[:TOP_KEYS]
    top_set = set(heaviest)
    max_doc_left = {key: 0 for key in top_set}
    max_doc_right = {key: 0 for key in top_set}
    if top_set:
        for keys in left_sets:
            size = len(keys)
            for key in keys & top_set:
                if size > max_doc_left[key]:
                    max_doc_left[key] = size
        for keys in right_sets:
            size = len(keys)
            for key in keys & top_set:
                if size > max_doc_right[key]:
                    max_doc_right[key] = size
    top_keys = tuple(
        (df_left[key], df_right[key], max_doc_left[key], max_doc_right[key])
        for key in heaviest
    )

    left_covered = sum(
        1 for keys in left_sets if not keys.isdisjoint(df_right)
    )
    right_covered = sum(
        1 for keys in right_sets if not keys.isdisjoint(df_left)
    )

    gt_sizes_left: List[int] = []
    gt_sizes_right: List[int] = []
    gt_overlaps: List[int] = []
    for left_id, right_id in gt_pairs:
        a = left_sets[left_id]
        b = right_sets[right_id]
        gt_sizes_left.append(len(a))
        gt_sizes_right.append(len(b))
        gt_overlaps.append(len(a & b))

    return TokenStats(
        left_covered=left_covered,
        right_covered=right_covered,
        top_keys=top_keys,
        gt_sizes_left=tuple(gt_sizes_left),
        gt_sizes_right=tuple(gt_sizes_right),
        gt_overlaps=tuple(gt_overlaps),
    )


_token_stats_memo: Dict[tuple, TokenStats] = {}


def token_stats(
    left_texts: Sequence[str],
    right_texts: Sequence[str],
    gt_pairs: Iterable[Tuple[int, int]],
    model: str = "",
    cleaning: bool = False,
    key_function: Optional[Callable[[str], Iterable[str]]] = None,
) -> TokenStats:
    """:func:`compute_token_stats`, memoized for the process.

    Keyed by both sides' texts, the groundtruth pairs, ``model`` and
    ``cleaning``: a ``key_function`` is identified by its ``model`` id,
    so a pruned ε-Join tune and a pruned kNN-Join tune of one dataset
    count each key space once between them.
    """
    gt = tuple(gt_pairs)
    key = (tuple(left_texts), tuple(right_texts), gt, model, bool(cleaning))
    stats = _token_stats_memo.get(key)
    if stats is None:
        stats = compute_token_stats(
            left_texts,
            right_texts,
            gt,
            model=model,
            cleaning=cleaning,
            key_function=key_function,
        )
        # Statistics are a pure function of the key: a concurrent miss
        # only recounts, and setdefault keeps one object per key.
        stats = _token_stats_memo.setdefault(key, stats)
    return stats


def clear_token_stats_cache() -> None:
    """Drop every memoized :class:`TokenStats` (tests / memory)."""
    _token_stats_memo.clear()
