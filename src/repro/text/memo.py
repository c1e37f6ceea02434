"""Process-wide memoized text preprocessing shared across benchmark layers.

The memoized tokenizer lives in the text package, below both the sparse
tuners (:mod:`repro.tuning.sparse`) and the dataset-statistics module
behind cost-based tuning, so both share one encoding without an upward
import.

:func:`tokenize_collection` returns the vocabulary-coded
:class:`~repro.text.store.TokenStore` of a collection, and memoises the
layers of :func:`~repro.text.store.encode_texts` separately, each keyed
by the collection's texts:

* word sequences per (texts, cleaning) — each collection is tokenized
  once, and cleaned (stop-word removal and stemming, once per distinct
  word) once, however many representation models read the result;
* q-gram occurrences per (texts, cleaning, q), shared by the set and
  multiset models of one q;
* stores per (texts, model, cleaning).

:func:`clean_collection` (the Figure-3 text volumes, blocking-key
statistics) re-joins the memoized cleaned words, so it never cleans a
collection a second time either.

The ε-Join and kNN-Join tuners, the token-statistics layer
(:mod:`repro.datasets.stats`), the Figure-3 text volumes and the
auto-configurator all walk the same (cleaning x model) grid over the same
collections.  Filters never read these memos: they call
:func:`~repro.text.store.encode_texts` directly, so their own
preprocessing is part of the run-time they report.

One layer sits above the stores: the sparse tuners' overlap-count
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
from typing import List, Optional, Sequence, Tuple

from . import store
from .store import TokenSequence, TokenStore
from .tokenizers import RepresentationModel

__all__ = ["clean_collection", "tokenize_collection", "clear_tokenize_cache"]


@lru_cache(maxsize=64)
def _words(texts: Tuple[str, ...], cleaning: bool) -> TokenSequence:
    if cleaning:
        return store.clean_sequence(_words(texts, False))
    return store.word_sequence(texts)


@lru_cache(maxsize=64)
def _sequence(
    texts: Tuple[str, ...], cleaning: bool, q: Optional[int]
) -> TokenSequence:
    words = _words(texts, cleaning)
    return words if q is None else store.qgram_sequence(words, q)


@lru_cache(maxsize=128)
def _tokenize_cached(
    texts: Tuple[str, ...], model: str, cleaning: bool
) -> TokenStore:
    representation = RepresentationModel(model)
    return store.store_of(
        _sequence(texts, cleaning, representation.qgram_size),
        representation.is_multiset,
    )


def clean_collection(texts: Sequence[str]) -> List[str]:
    """The cleaned texts of a collection, memoized per collection.

    Equal to ``TextCleaner().clean(text)`` per text: a cleaned text is
    its cleaned words joined by single spaces.
    """
    words = _words(tuple(texts), True)
    bounds = words.ptr.tolist()
    tokens = [words.tokens[i] for i in words.ids.tolist()]
    return [" ".join(tokens[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def tokenize_collection(
    texts: Sequence[str], model: str, cleaning: bool
) -> TokenStore:
    """The coded token sets of a list of texts under one combination.

    Memoized per (texts, model, cleaning): every consumer that walks the
    same (cleaning x model) grid over the same collections — sparse
    tuners, token statistics, the auto-configurator — shares one
    tokenization pass per corpus, one cleaning pass per corpus and one
    q-gram pass per corpus and q.  The store's arrays are read-only, so
    callers cannot alter a memoised result.
    """
    return _tokenize_cached(tuple(texts), model, cleaning)


def clear_tokenize_cache() -> None:
    """Drop the memoized word sequences, q-gram sequences and stores."""
    _tokenize_cached.cache_clear()
    _sequence.cache_clear()
    _words.cache_clear()
