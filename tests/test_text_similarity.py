"""Unit and property tests for the string-similarity library."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import (
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    monge_elkan,
    ngrams,
    overlap_coefficient,
)

short_text = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=12
)


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("kitten", "kitten") == 0

    def test_classic_example(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_left(self):
        assert levenshtein("", "abc") == 3

    def test_empty_right(self):
        assert levenshtein("abc", "") == 3

    def test_single_substitution(self):
        assert levenshtein("cat", "car") == 1

    def test_ratio_bounds(self):
        assert levenshtein_ratio("abc", "abc") == 1.0
        assert levenshtein_ratio("abc", "xyz") == 0.0

    def test_ratio_empty_both(self):
        assert levenshtein_ratio("", "") == 1.0

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text, short_text)
    @settings(max_examples=40)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_bounded_by_longer_string(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))


class TestJaro:
    def test_identity(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0

    def test_winkler_prefix_boost(self):
        assert jaro_winkler("prefixes", "prefixed") >= jaro(
            "prefixes", "prefixed"
        )

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_range(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0 + 1e-12


class TestTokenSets:
    def test_jaccard_identity(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_jaccard_partial(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_jaccard_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    def test_overlap_subset_is_one(self):
        assert overlap_coefficient({"a"}, {"a", "b", "c"}) == 1.0

    @given(
        st.sets(short_text, max_size=6), st.sets(short_text, max_size=6)
    )
    @settings(max_examples=60)
    def test_jaccard_symmetric_and_bounded(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0


class TestVectorAndCompound:


    def test_monge_elkan_identity(self):
        assert monge_elkan(["data", "base"], ["data", "base"]) == pytest.approx(1.0)

    def test_monge_elkan_empty(self):
        assert monge_elkan([], []) == 1.0
        assert monge_elkan(["a"], []) == 0.0

    def test_ngrams_padding(self):
        grams = ngrams("ab", 3)
        assert grams[0] == "##a"
        assert grams[-1] == "b##"

    def test_ngrams_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ngrams("abc", 0)

    @given(short_text)
    @settings(max_examples=40)
    def test_ngrams_count(self, text):
        n = 3
        grams = ngrams(text, n)
        assert len(grams) == len(text) + n - 1
