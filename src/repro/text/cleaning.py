"""The optional "cleaning" preprocessing step of NN methods (Figure 2).

Cleaning removes stop-words and stems every remaining token, reducing the
vocabulary size and the character length of the input (Figure 3 of the
paper measures both effects).

Each cleaner stems every distinct lowered word once: a bounded
per-instance memo sits in front of :meth:`PorterStemmer.stem`, so the
long-lived default cleaner and the streaming filters' cleaners cannot
grow without limit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

from .porter import PorterStemmer
from .stopwords import ENGLISH_STOPWORDS
from .tokenizers import word_tokens

__all__ = ["TextCleaner", "clean_text", "clean_texts"]


#: Distinct words whose stems one cleaner remembers.
STEM_MEMO_SIZE = 2**16


class TextCleaner:
    """Stop-word removal followed by Porter stemming, token by token."""

    def __init__(self, remove_stopwords: bool = True, stem: bool = True) -> None:
        self.remove_stopwords = remove_stopwords
        self.stem = stem
        self._stem_word = lru_cache(maxsize=STEM_MEMO_SIZE)(PorterStemmer().stem)

    def clean_tokens(self, tokens: Sequence[str]) -> List[str]:
        """Clean an already-tokenized value."""
        result = []
        for token in tokens:
            lowered = token.lower()
            if self.remove_stopwords and lowered in ENGLISH_STOPWORDS:
                continue
            result.append(self._stem_word(lowered) if self.stem else lowered)
        return result

    def clean(self, text: str) -> str:
        """Clean a raw textual value; returns the cleaned text re-joined."""
        return " ".join(self.clean_tokens(word_tokens(text)))


_DEFAULT = TextCleaner()


def clean_text(text: str) -> str:
    """Clean one value with the default (stop-words + stemming) cleaner."""
    return _DEFAULT.clean(text)


def clean_texts(texts: Sequence[str]) -> List[str]:
    """Clean a sequence of values with the default cleaner."""
    return [_DEFAULT.clean(text) for text in texts]
