"""Unit tests for the text substrate: tokenizers, stemmer, cleaning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.cleaning import STEM_MEMO_SIZE, TextCleaner, clean_text
from repro.text.porter import PorterStemmer, stem
from repro.text.stopwords import ENGLISH_STOPWORDS, is_stopword
from repro.text.tokenizers import (
    REPRESENTATION_MODELS,
    RepresentationModel,
    character_qgrams,
    multiset_tokens,
    normalize,
    shingles,
    token_qgrams,
    tokenize,
    word_tokens,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Joe BIDEN") == "joe biden"

    def test_strips_punctuation(self):
        assert normalize("a,b;c!") == "a b c"

    def test_collapses_whitespace(self):
        assert normalize("a   b\t c") == "a b c"

    def test_keeps_digits(self):
        assert normalize("model X-100") == "model x 100"

    def test_empty(self):
        assert normalize("   ") == ""


class TestWordTokens:
    def test_basic(self):
        assert word_tokens("Joe Biden") == ["joe", "biden"]

    def test_empty(self):
        assert word_tokens("") == []

    def test_punctuation_separates(self):
        assert word_tokens("a.b") == ["a", "b"]


class TestCharacterQGrams:
    def test_paper_example(self):
        # "Joe Biden" with q=3 -> {joe, bid, ide, den} (paper, Section IV-B).
        assert set(character_qgrams("Joe Biden", 3)) == {"joe", "bid", "ide", "den"}

    def test_short_token_kept_whole(self):
        assert character_qgrams("ab", 3) == ["ab"]

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            character_qgrams("abc", 0)


class TestTokenQGrams:
    def test_sliding_window(self):
        assert token_qgrams("biden", 3) == ["bid", "ide", "den"]

    def test_token_shorter_than_q(self):
        assert token_qgrams("ab", 3) == ["ab"]

    def test_token_equal_to_q(self):
        assert token_qgrams("abc", 3) == ["abc"]


class TestShingles:
    def test_spans_token_boundaries(self):
        result = shingles("ab cd", 3)
        assert "b c" in result

    def test_short_text(self):
        assert shingles("ab", 5) == ["ab"]

    def test_empty(self):
        assert shingles("", 3) == []

    def test_count(self):
        assert len(shingles("abcdef", 3)) == 4


class TestMultisetTokens:
    def test_paper_example(self):
        # {a, a, b} -> {a#1, a#2, b#1}
        assert multiset_tokens(["a", "a", "b"]) == ["a#1", "a#2", "b#1"]

    def test_no_duplicates_identity_with_counter(self):
        assert multiset_tokens(["x", "y"]) == ["x#1", "y#1"]


class TestRepresentationModel:
    def test_all_ten_models_valid(self):
        for code in REPRESENTATION_MODELS:
            RepresentationModel(code)

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            RepresentationModel("C9X")

    def test_t1g_tokens(self):
        assert tokenize("a b a", "T1G") == frozenset({"a", "b"})

    def test_t1gm_multiset(self):
        assert tokenize("a b a", "T1GM") == frozenset({"a#1", "a#2", "b#1"})

    def test_c3g_qgrams(self):
        assert tokenize("biden", "C3G") == frozenset({"bid", "ide", "den"})

    def test_multiset_distinguishes_repeats(self):
        plain = tokenize("aaaa", "C2G")
        multi = tokenize("aaaa", "C2GM")
        assert len(plain) == 1
        assert len(multi) == 3

    def test_equality_and_hash(self):
        assert RepresentationModel("C3G") == RepresentationModel("c3g")
        assert hash(RepresentationModel("C3G")) == hash(RepresentationModel("C3G"))


class TestStopwords:
    def test_common_words_are_stopwords(self):
        for word in ("the", "and", "of", "is"):
            assert is_stopword(word)

    def test_case_insensitive(self):
        assert is_stopword("The")

    def test_content_words_are_not(self):
        for word in ("laptop", "restaurant", "entity"):
            assert not is_stopword(word)

    def test_list_size_matches_nltk(self):
        assert len(ENGLISH_STOPWORDS) == 179


class TestPorterStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("hopefulness", "hope"),
            ("goodness", "good"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("probate", "probat"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ],
    )
    def test_reference_cases(self, word, expected):
        assert stem(word) == expected

    def test_short_words_untouched(self):
        assert stem("be") == "be"
        assert stem("a") == "a"

    def test_lowercases_input(self):
        assert stem("Blocks") == stem("blocks")

    def test_stateless_instances_agree(self):
        assert PorterStemmer().stem("running") == PorterStemmer().stem("running")

    def test_paper_example(self):
        # "blocks" becomes "block" (Section IV-A).
        assert stem("blocks") == "block"


class TestTextCleaner:
    def test_removes_stopwords(self):
        assert clean_text("the laptop of doom") == "laptop doom"

    def test_stems_tokens(self):
        assert clean_text("running dogs") == "run dog"

    def test_stopwords_only_disabled(self):
        cleaner = TextCleaner(remove_stopwords=False, stem=True)
        assert "the" in cleaner.clean("the dogs").split()

    def test_stemming_disabled(self):
        cleaner = TextCleaner(remove_stopwords=True, stem=False)
        assert cleaner.clean("the running dogs") == "running dogs"

    def test_clean_tokens_list(self):
        cleaner = TextCleaner()
        assert cleaner.clean_tokens(["The", "Blocks"]) == ["block"]

    def test_empty_input(self):
        assert clean_text("") == ""


#: One long-lived cleaner, so its stem memo serves hits across examples.
_SHARED_CLEANER = TextCleaner()


class TestStemMemo:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(
                    alphabet="abcdefghijklmnopqrstuvwxyz",
                    min_size=1,
                    max_size=12,
                ),
                st.sampled_from(sorted(ENGLISH_STOPWORDS)),
            ),
            max_size=20,
        )
    )
    def test_memoized_cleaner_matches_uncached_stemmer(self, words):
        stemmer = PorterStemmer()
        expected = [
            stemmer.stem(word) for word in words if word not in ENGLISH_STOPWORDS
        ]
        assert _SHARED_CLEANER.clean_tokens(words) == expected
        assert TextCleaner().clean_tokens(words) == expected

    def test_each_distinct_word_stemmed_once(self, monkeypatch):
        calls = []
        original = PorterStemmer.stem

        def counting_stem(self, word):
            calls.append(word)
            return original(self, word)

        monkeypatch.setattr(PorterStemmer, "stem", counting_stem)
        cleaner = TextCleaner()
        assert cleaner.clean("Running dogs running DOGS the dogs") == (
            "run dog run dog dog"
        )
        assert sorted(calls) == ["dogs", "running"]

    def test_stem_memo_is_bounded_per_instance(self):
        first, second = TextCleaner(), TextCleaner()
        first.clean("running")
        assert second._stem_word.cache_info().currsize == 0
        assert first._stem_word.cache_info().maxsize == STEM_MEMO_SIZE
