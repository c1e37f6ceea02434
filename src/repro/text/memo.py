"""Process-wide memoized text preprocessing shared across benchmark layers.

Historically the memoized tokenizer lived in :mod:`repro.tuning.sparse`,
which made it awkward for lower layers (the dataset-statistics module
behind cost-based tuning) to share token sets with the tuners without an
upward import.  It now lives here, in the text package both sides already
depend on; :mod:`repro.tuning.sparse` re-exports it unchanged.

Two memo layers, each keyed by the collection's texts:

* cleaned texts per collection (:func:`clean_collection`) — stop-word
  removal and stemming run once per collection, however many
  representation models read the result;
* token sets per (texts, model, cleaning) (:func:`tokenize_collection`),
  built from the cleaned-text layer when ``cleaning`` is set.

The ε-Join and kNN-Join tuners, the token-statistics layer
(:mod:`repro.datasets.stats`), the Figure-3 text volumes and the
auto-configurator all walk the same (cleaning x model) grid over the same
collections, so each collection is cleaned once and tokenized once per
combination.  Filters never read these memos: their own preprocessing
is part of the run-time they report.

One layer sits above the token sets: the sparse tuners' overlap-count
matrices per (left texts, right texts, model, cleaning)
(:func:`repro.tuning.sparse.overlap_counts`).  It calls
:func:`tokenize_collection` only on a miss, so the ε-Join and kNN-Join
tuners of one collection pair tokenize each combination once between
them.  :func:`clear_tokenize_cache` leaves it alone; it has its own
:func:`~repro.tuning.sparse.clear_overlap_cache`.  The same holds for
the cost-based tuners' token statistics
(:func:`repro.datasets.stats.token_stats`), emptied by
:func:`~repro.datasets.stats.clear_token_stats_cache`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, List, Sequence, Tuple

from .cleaning import TextCleaner
from .tokenizers import RepresentationModel

__all__ = ["clean_collection", "tokenize_collection", "clear_tokenize_cache"]


@lru_cache(maxsize=64)
def _clean_cached(texts: Tuple[str, ...]) -> Tuple[str, ...]:
    cleaner = TextCleaner()
    return tuple(cleaner.clean(text) for text in texts)


@lru_cache(maxsize=128)
def _tokenize_cached(
    texts: Tuple[str, ...], model: str, cleaning: bool
) -> Tuple[FrozenSet[str], ...]:
    if cleaning:
        texts = _clean_cached(texts)
    representation = RepresentationModel(model)
    return tuple(representation.tokens(text) for text in texts)


def clean_collection(texts: Sequence[str]) -> List[str]:
    """The cleaned texts of a collection, memoized per collection."""
    return list(_clean_cached(tuple(texts)))


def tokenize_collection(
    texts: Sequence[str], model: str, cleaning: bool
) -> List[FrozenSet[str]]:
    """Token sets of a list of texts under one preprocessing combination.

    Memoized per (texts, model, cleaning): every consumer that walks the
    same (cleaning x model) grid over the same collections — sparse
    tuners, token statistics, the auto-configurator — shares one
    tokenization pass per corpus and combination, and one cleaning pass
    per corpus.
    """
    return list(_tokenize_cached(tuple(texts), model, cleaning))


def clear_tokenize_cache() -> None:
    """Drop the memoized cleaned texts and token sets (tests / memory)."""
    _tokenize_cached.cache_clear()
    _clean_cached.cache_clear()
