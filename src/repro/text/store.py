"""Vocabulary-coded token sets: one encoder for every ScanCount input.

A :class:`TokenStore` holds the token sets of a collection in CSR form:
row ``r`` owns ``ids[ptr[r]:ptr[r + 1]]``, dense int ids into
``vocabulary`` (id -> token string), distinct within a row.  Decoding a
row (:meth:`TokenStore.token_sets`) gives exactly the frozenset
:meth:`RepresentationModel.tokens` returns for the (optionally cleaned)
text.

:func:`encode_texts` builds a store from texts without ever building a
token string per occurrence.  It runs in three layers, each a pure
function of the one before, so :mod:`repro.text.memo` can memoise them
separately and share the lower ones between representation models:

* words per (texts, cleaning) — :func:`word_sequence` tokenizes every
  text once; :func:`clean_sequence` cleans (stop-words, stemming) each
  *distinct* word once and re-expands the texts through that mapping;
* token occurrences per (words, q) — :func:`qgram_sequence` builds each
  distinct word's q-grams once and re-expands; the set and multiset
  models of one q read the same occurrences;
* the store per model — :func:`store_of` keeps one id per (row, token)
  for a set model, and for a multiset model numbers each token's
  occurrences ``#1 .. #n`` in NumPy, creating the ``token#n`` strings
  only for distinct vocabulary entries.

:func:`encode_sets` encodes a list of ready-made frozensets (the
streaming index's live sets, tests), so :class:`~repro.sparse.scancount.
ScanCountIndex` has one build path, from codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple, Union,
)

import numpy as np

from .cleaning import TextCleaner
from .tokenizers import RepresentationModel, token_qgrams, word_tokens

__all__ = [
    "TokenSequence",
    "TokenSets",
    "TokenStore",
    "as_store",
    "clean_sequence",
    "encode_sets",
    "encode_texts",
    "qgram_sequence",
    "store_of",
    "word_sequence",
]

_LOW = 0xFFFFFFFF

#: The byte map of :func:`word_sequence`: ``[0-9a-z]`` stays, a newline
#: becomes ``"|"``, any other byte a space.
_WORD_BYTES = bytes(
    byte if chr(byte) in "0123456789abcdefghijklmnopqrstuvwxyz"
    else ord("|") if byte == ord("\n") else ord(" ")
    for byte in range(256)
)


@dataclass(frozen=True, eq=False)
class TokenStore:
    """Token sets of a collection as a vocabulary-coded CSR store.

    ``ptr`` (int64, ``len(store) + 1``) delimits each row's slice of
    ``ids`` (int32 ids into ``vocabulary``, distinct within a row).
    Every vocabulary entry is distinct; a store cut down by :meth:`take`
    keeps its full vocabulary, so some entries may occur in no row.
    """

    ptr: np.ndarray
    ids: np.ndarray
    vocabulary: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ptr) - 1

    @property
    def sizes(self) -> np.ndarray:
        """Token-set cardinality of every row (int64)."""
        return np.diff(self.ptr)

    def token_sets(self) -> List[FrozenSet[str]]:
        """Every row decoded, in row order."""
        vocabulary = self.vocabulary
        ids = self.ids.tolist()
        bounds = self.ptr.tolist()
        return [
            frozenset([vocabulary[i] for i in ids[lo:hi]])
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def take(self, rows: Sequence[int]) -> "TokenStore":
        """The store of rows ``rows`` (in that order), same vocabulary."""
        rows = np.asarray(rows, dtype=np.int64)
        ptr, flat = _gather(self.ptr, rows)
        return _frozen(TokenStore(ptr, self.ids[flat], self.vocabulary))


class TokenSequence(NamedTuple):
    """Token *occurrences* per row, in text order (repeats kept).

    The intermediate layer of :func:`encode_texts`: ``ids`` index
    ``tokens``, and every token occurs in some row.
    """

    ptr: np.ndarray
    ids: np.ndarray
    tokens: Tuple[str, ...]


def _frozen(value):
    """``value`` with every array field made read-only (memo safety)."""
    for field in (value.ptr, value.ids):
        field.flags.writeable = False
    return value


def _encode_lists(
    lists: Sequence[Iterable[str]],
) -> Tuple[np.ndarray, np.ndarray, Tuple[str, ...]]:
    """``(ptr, ids, tokens)`` of string lists, ids dense by first use.

    One pass in C: ``dict.setdefault`` hands every token the flat
    position of its first occurrence, and a table indexed by those
    positions turns them into dense ids (first-occurrence order, the
    dict's own order) with no sort.
    """
    lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    ptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    total = int(ptr[-1])
    positions: Dict[str, int] = {}
    first = np.fromiter(
        map(positions.setdefault, chain.from_iterable(lists), count()),
        dtype=np.int64,
        count=total,
    )
    dense = np.empty(total, dtype=np.int32)
    dense[np.fromiter(positions.values(), np.int64, len(positions))] = (
        np.arange(len(positions), dtype=np.int32)
    )
    return ptr, dense[first], tuple(positions)


def _gather(
    ptr: np.ndarray, items: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR slices ``ptr[i]:ptr[i + 1]`` of every item.

    Returns the pointer array of the concatenation (one slice per item)
    and the flat positions it reads.
    """
    lengths = ptr[items + 1] - ptr[items]
    out = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    flat = np.arange(int(out[-1]), dtype=np.int64)
    flat += np.repeat(ptr[items] - out[:-1], lengths)
    return out, flat


def _expand(
    sequence: TokenSequence,
    item_ptr: np.ndarray,
    item_ids: np.ndarray,
    tokens: Tuple[str, ...],
) -> TokenSequence:
    """Replace every occurrence by its item's token list, in order."""
    per_occurrence, flat = _gather(item_ptr, sequence.ids)
    return _frozen(
        TokenSequence(per_occurrence[sequence.ptr], item_ids[flat], tokens)
    )


def word_sequence(texts: Sequence[str]) -> TokenSequence:
    """The :func:`word_tokens` of every text, in one pass over all texts.

    The texts are joined by newlines (a text's own newlines become
    spaces first, as :func:`~repro.text.tokenizers.normalize` would make
    them), lowered, and mapped byte by byte: ``[0-9a-z]`` stays, every
    newline becomes a ``"|"`` word opening a text, everything else a
    space.  One split then lists every text's words in order.  Lowering
    the join equals lowering each text: the one context-dependent
    mapping (final sigma) yields no character that stays.
    """
    if not texts:
        return _frozen(TokenSequence(*_encode_lists([])))
    joined = " \n ".join(texts)
    if joined.count("\n") != len(texts) - 1:
        joined = " \n ".join(text.replace("\n", " ") for text in texts)
    words = (
        ("\n " + joined).lower().encode("ascii", "replace")
        .translate(_WORD_BYTES).decode("ascii").split()
    )
    # "|" opens every text, so it has id 0.
    _, ids, tokens = _encode_lists([words])
    opens = np.flatnonzero(ids == 0)
    ptr = np.append(opens, len(ids)) - np.arange(len(opens) + 1)
    return _frozen(TokenSequence(ptr, ids[ids != 0] - 1, tokens[1:]))


def clean_sequence(words: TokenSequence) -> TokenSequence:
    """``words`` after cleaning, each distinct word cleaned once.

    Cleaning a text is word by word, so the cleaned text's word tokens
    are the concatenation of each word's own: a stop-word maps to
    none, any other word to its stem.
    """
    cleaner = TextCleaner()
    ptr, ids, tokens = _encode_lists(
        [word_tokens(cleaner.clean(word)) for word in words.tokens]
    )
    return _expand(words, ptr, ids, tokens)


def qgram_sequence(words: TokenSequence, q: int) -> TokenSequence:
    """The character q-grams of ``words``, each distinct word's once."""
    ptr, ids, tokens = _encode_lists(
        [token_qgrams(word, q) for word in words.tokens]
    )
    return _expand(words, ptr, ids, tokens)


def store_of(sequence: TokenSequence, multiset: bool) -> TokenStore:
    """The set (or ``#n``-numbered multiset) store of token occurrences.

    Occurrences are sorted by the packed ``(row << 32) | token`` key.  A
    set model keeps the first of every run of equal keys.  A multiset
    model numbers the occurrences inside each run ``#1 .. #c`` (the
    paper's multiset trick, :func:`~repro.text.tokenizers.
    multiset_tokens`) and gives the distinct ``(token, n)`` pairs dense
    ids, so only those pairs become strings.  Either way ids ascend
    within a row.
    """
    rows = len(sequence.ptr) - 1
    keys = np.repeat(np.arange(rows, dtype=np.int64), np.diff(sequence.ptr))
    keys <<= 32
    keys |= sequence.ids
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not multiset:
        keys = keys[first]
        ids = (keys & _LOW).astype(np.int32)
        vocabulary = sequence.tokens
    else:
        position = np.arange(len(keys), dtype=np.int64)
        number = position - np.maximum.accumulate(
            np.where(first, position, 0)
        )
        span = int(number.max()) + 1 if len(keys) else 1
        pairs = (keys & _LOW) * span + number
        distinct, inverse = np.unique(pairs, return_inverse=True)
        ids = inverse.reshape(-1).astype(np.int32)
        tokens = sequence.tokens
        vocabulary = tuple(
            f"{tokens[token]}#{n + 1}"
            for token, n in zip(
                (distinct // span).tolist(), (distinct % span).tolist()
            )
        )
    ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys >> 32, minlength=rows), out=ptr[1:])
    return _frozen(TokenStore(ptr, ids, vocabulary))


def encode_texts(
    texts: Sequence[str], model: str, cleaning: bool
) -> TokenStore:
    """The token sets of ``texts`` under one preprocessing combination.

    Row ``r`` decodes to ``RepresentationModel(model).tokens(text)`` of
    the (cleaned, when ``cleaning``) ``texts[r]``.  Not memoised: the
    filters call this so their run-time includes their preprocessing;
    the tuners read the memo of :func:`repro.text.memo.
    tokenize_collection`.
    """
    representation = RepresentationModel(model)
    sequence = word_sequence(texts)
    if cleaning:
        sequence = clean_sequence(sequence)
    if representation.qgram_size is not None:
        sequence = qgram_sequence(sequence, representation.qgram_size)
    return store_of(sequence, representation.is_multiset)


def encode_sets(token_sets: Sequence[FrozenSet[str]]) -> TokenStore:
    """A store of ready-made token sets (ids dense by first use)."""
    return _frozen(TokenStore(*_encode_lists(token_sets)))


#: A batch of token sets: coded, or frozensets encoded on the way in.
TokenSets = Union[TokenStore, Sequence[FrozenSet[str]]]


def as_store(tokens: TokenSets) -> TokenStore:
    """``tokens`` itself when already coded, else :func:`encode_sets`."""
    if isinstance(tokens, TokenStore):
        return tokens
    return encode_sets(list(tokens))
