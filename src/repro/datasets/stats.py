"""Dataset statistics: the quantities behind Table VI and Figure 3,
plus the per-(dataset, attribute, representation) token statistics that
feed the cost-based tuning layer.

* best-attribute selection by coverage and distinctiveness (Section VI,
  "Schema settings");
* attribute coverage and groundtruth coverage (Figure 3a);
* vocabulary size and overall character length per schema setting, with
  and without cleaning (Figures 3b, 3c);
* :class:`TokenStats` — groundtruth overlap triples, covered-query
  counts, MCV entries and raw key-length totals, computed once per
  (dataset, attribute, representation, cleaning) combination and cached
  on disk alongside the matrix cache.  The estimators of
  :mod:`repro.tuning.estimator` derive every pruning decision from these
  statistics without running a single filter.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path
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
from ..text.tokenizers import (
    RepresentationModel,
    character_qgrams,
    word_tokens,
)
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
    "TokenStatsCache",
    "compute_token_stats",
    "shared_stats_cache",
    "reset_shared_stats_cache",
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
#: estimators' MCV candidate floors, small enough for the disk cache.
TOP_KEYS = 8


@dataclass(frozen=True)
class TokenStats:
    """Doc-frequency statistics of one (texts, representation) combination.

    All fields are plain ints/floats/tuples so the object round-trips
    losslessly through JSON.  ``model`` identifies the key space: a
    representation-model code (``"T1G"`` ... ``"C5GM"``) or a synthetic
    id for blocking keys / shingles (e.g. ``"block:qgrams:q=3"``,
    ``"shingle:4"``).

    The groundtruth triples (``gt_sizes_left[i]``, ``gt_sizes_right[i]``,
    ``gt_overlaps[i]``) hold, for the i-th duplicate pair, the key-set
    sizes of both entities and the size of their intersection — exactly
    the inputs of the paper's set-similarity measures, so estimators can
    reproduce a tuner's duplicate-similarity array bit for bit.
    """

    dataset: str
    attribute: str
    model: str
    cleaning: bool
    #: Raw (pre-deduplication) key occurrences and their total character
    #: length — the token-length statistics behind the auto-configurator.
    key_occurrences: int
    key_length_sum: int
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

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------

    @property
    def gt_overlapping(self) -> int:
        """Duplicate pairs sharing at least one key.

        A provable ceiling on the duplicates *any* configuration over
        this key space can retain: token-disjoint pairs never meet in a
        block, a posting list or an overlap row.
        """
        return sum(1 for overlap in self.gt_overlaps if overlap > 0)

    @property
    def mean_key_length(self) -> float:
        """Mean character length over raw key occurrences (0 when empty)."""
        if not self.key_occurrences:
            return 0.0
        return self.key_length_sum / self.key_occurrences

    def covered_queries(self, reverse: bool) -> int:
        """Queries sharing >= 1 key with the indexed side.

        ``reverse=False`` indexes the left collection and queries with
        the right one (the joins' default orientation).
        """
        return self.left_covered if reverse else self.right_covered

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> Optional["TokenStats"]:
        """Tolerant deserialization; None when the payload is unusable."""
        if not isinstance(payload, dict):
            return None
        known = {}
        for field in fields(cls):
            if field.name not in payload:
                return None
            known[field.name] = payload[field.name]
        try:
            known["top_keys"] = tuple(
                tuple(int(v) for v in entry) for entry in known["top_keys"]
            )
            for name in ("gt_sizes_left", "gt_sizes_right", "gt_overlaps"):
                known[name] = tuple(int(v) for v in known[name])
            return cls(**known)
        except (TypeError, ValueError):
            return None


def _raw_keys(
    text: str, representation: Optional[RepresentationModel]
) -> List[str]:
    """The pre-deduplication key occurrences of one text."""
    if representation is None or representation.qgram_size is None:
        return word_tokens(text)
    return character_qgrams(text, representation.qgram_size)


def compute_token_stats(
    left_texts: Sequence[str],
    right_texts: Sequence[str],
    gt_pairs: Iterable[Tuple[int, int]],
    model: str = "",
    cleaning: bool = False,
    key_function: Optional[Callable[[str], Iterable[str]]] = None,
    dataset: str = "",
    attribute: str = "",
) -> TokenStats:
    """Compute :class:`TokenStats` for one preprocessing combination.

    Either ``model`` names a representation model (token sets come from
    the shared memoized tokenizer, so a subsequent tuner pass reuses
    them), or ``key_function`` maps a (cleaned) text to its blocking
    keys / shingles and ``model`` is its synthetic id.
    """
    # The texts every key is drawn from, cleaned through the shared
    # per-collection memo the tokenizer below reads as well.
    if cleaning:
        left_source = clean_collection(left_texts)
        right_source = clean_collection(right_texts)
    else:
        left_source, right_source = left_texts, right_texts
    if key_function is None:
        representation = RepresentationModel(model)
        left_sets = tokenize_collection(left_texts, model, cleaning)
        right_sets = tokenize_collection(right_texts, model, cleaning)
    else:
        representation = None
        left_sets = [frozenset(key_function(text)) for text in left_source]
        right_sets = [frozenset(key_function(text)) for text in right_source]

    key_occurrences = 0
    key_length_sum = 0
    if representation is not None:
        # Occurrence statistics come from the *raw* token lists (before
        # the multiset/frozenset transforms) of the same (cleaned) texts
        # the token sets were built from, so the mean key length is
        # bit-identical to a direct word_tokens/qgrams pass.
        for text in left_source:
            for token in _raw_keys(text, representation):
                key_occurrences += 1
                key_length_sum += len(token)
        for text in right_source:
            for token in _raw_keys(text, representation):
                key_occurrences += 1
                key_length_sum += len(token)
    else:
        for keys in left_sets:
            key_occurrences += len(keys)
            key_length_sum += sum(len(key) for key in keys)
        for keys in right_sets:
            key_occurrences += len(keys)
            key_length_sum += sum(len(key) for key in keys)

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
        dataset=dataset,
        attribute=attribute,
        model=model,
        cleaning=bool(cleaning),
        key_occurrences=key_occurrences,
        key_length_sum=key_length_sum,
        left_covered=left_covered,
        right_covered=right_covered,
        top_keys=top_keys,
        gt_sizes_left=tuple(gt_sizes_left),
        gt_sizes_right=tuple(gt_sizes_right),
        gt_overlaps=tuple(gt_overlaps),
    )


class TokenStatsCache:
    """Memory + disk cache of :class:`TokenStats`.

    Statistics for *named* datasets persist in
    ``.bench_cache/token_stats.json`` (next to the matrix cache, honoring
    ``REPRO_BENCH_CACHE``) so repeated benchmark runs skip the counting
    pass entirely; ad-hoc collections (the auto-configurator's inputs)
    are memoized in memory only, keyed by content.  Disk entries carry a
    sha256 fingerprint of both text collections and the groundtruth
    pairs, and are recomputed when the generated dataset drifts.
    """

    SCHEMA = 3

    def __init__(self, path: Optional[Path] = None) -> None:
        default_dir = Path(os.environ.get("REPRO_BENCH_CACHE", ".bench_cache"))
        self.path = path if path is not None else default_dir / "token_stats.json"
        self._memory: Dict[object, TokenStats] = {}
        self._disk: Optional[Dict[str, Dict[str, object]]] = None
        self._dirty = False

    # ------------------------------------------------------------------
    # Disk layer.
    # ------------------------------------------------------------------

    def _load_disk(self) -> Dict[str, Dict[str, object]]:
        if self._disk is None:
            entries: Dict[str, Dict[str, object]] = {}
            try:
                data = json.loads(self.path.read_text())
            except (OSError, ValueError):
                data = None
            if (
                isinstance(data, dict)
                and data.get("schema") == self.SCHEMA
                and isinstance(data.get("entries"), dict)
            ):
                entries = data["entries"]
            self._disk = entries
        return self._disk

    def save(self) -> None:
        """Atomically persist the disk entries (no-op when unchanged)."""
        if not self._dirty or self._disk is None:
            return
        payload = {"schema": self.SCHEMA, "entries": self._disk}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(payload, stream, indent=1)
            os.replace(temp_name, self.path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._dirty = False

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def for_texts(
        self,
        left_texts: Sequence[str],
        right_texts: Sequence[str],
        gt_pairs: Iterable[Tuple[int, int]],
        model: str = "",
        cleaning: bool = False,
        key_function: Optional[Callable[[str], Iterable[str]]] = None,
        dataset: str = "",
        attribute: str = "",
    ) -> TokenStats:
        """Statistics for raw text collections (memory-memoized).

        When ``dataset`` is a non-empty name the result is also written
        through to the disk cache under
        ``dataset|attribute|model|cleaning``.
        """
        gt_list = list(gt_pairs)
        memory_key = (
            tuple(left_texts),
            tuple(right_texts),
            tuple(gt_list),
            model,
            bool(cleaning),
            attribute,
        )
        cached = self._memory.get(memory_key)
        if cached is not None:
            return cached

        disk_key = None
        if dataset:
            disk_key = f"{dataset}|{attribute}|{model}|{int(bool(cleaning))}"
            fingerprint = hashlib.sha256(
                json.dumps(
                    [list(left_texts), list(right_texts), gt_list], default=int
                ).encode("utf-8")
            ).hexdigest()
            payload = self._load_disk().get(disk_key)
            if (
                isinstance(payload, dict)
                and payload.get("fingerprint") == fingerprint
            ):
                stats = TokenStats.from_payload(payload)
                if stats is not None:
                    self._memory[memory_key] = stats
                    return stats

        stats = compute_token_stats(
            left_texts,
            right_texts,
            gt_list,
            model=model,
            cleaning=cleaning,
            key_function=key_function,
            dataset=dataset,
            attribute=attribute,
        )
        self._memory[memory_key] = stats
        if disk_key is not None:
            self._load_disk()[disk_key] = {
                **stats.to_payload(),
                "fingerprint": fingerprint,
            }
            self._dirty = True
            self.save()
        return stats

    def for_dataset(
        self,
        dataset: ERDataset,
        attribute: Optional[str] = None,
        model: str = "",
        cleaning: bool = False,
        key_function: Optional[Callable[[str], Iterable[str]]] = None,
    ) -> TokenStats:
        """Statistics for one benchmark dataset under one key space."""
        return self.for_texts(
            dataset.left.texts(attribute),
            dataset.right.texts(attribute),
            dataset.groundtruth,
            model=model,
            cleaning=cleaning,
            key_function=key_function,
            dataset=dataset.name,
            attribute=attribute or "",
        )


_SHARED_CACHE: Optional[TokenStatsCache] = None


def shared_stats_cache() -> TokenStatsCache:
    """The process-wide statistics cache the tuning layer shares."""
    global _SHARED_CACHE
    if _SHARED_CACHE is None:
        _SHARED_CACHE = TokenStatsCache()
    return _SHARED_CACHE


def reset_shared_stats_cache() -> None:
    """Drop the shared cache (tests / REPRO_BENCH_CACHE changes)."""
    global _SHARED_CACHE
    _SHARED_CACHE = None
