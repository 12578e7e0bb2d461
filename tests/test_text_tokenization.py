"""Tests for tokenizers, vocabulary, and Word2Vec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NotFittedError
from repro.text.tokenization import BasicTokenizer, normalize_text
from repro.text.vocab import Vocabulary
from repro.text.word2vec import Word2Vec

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=10,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize_text("Hello WORLD") == "hello world"

    def test_separates_punctuation(self):
        assert normalize_text("a,b") == "a , b"

    def test_collapses_whitespace(self):
        assert normalize_text("a   b\t c") == "a b c"

    def test_optionally_keeps_case(self):
        assert normalize_text("AbC", lowercase=False) == "AbC"


class TestBasicTokenizer:
    def test_simple_split(self):
        assert BasicTokenizer().tokenize("sony tv x900") == ["sony", "tv", "x900"]

    def test_punctuation_tokens(self):
        assert BasicTokenizer().tokenize("a-b") == ["a", "-", "b"]

    def test_empty(self):
        assert BasicTokenizer().tokenize("") == []
        assert BasicTokenizer().tokenize("   ") == []

    @given(st.lists(words, min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_roundtrip_word_count(self, tokens):
        text = " ".join(tokens)
        assert BasicTokenizer().tokenize(text) == tokens


class TestVocabulary:
    def test_unknown_token_is_zero(self):
        vocab = Vocabulary.from_documents([["a", "b"], ["a"]])
        assert vocab.id_of("nonexistent") == 0
        assert vocab.token_of(0) == Vocabulary.UNK

    def test_frequency_order(self):
        vocab = Vocabulary.from_documents([["b", "a", "a"], ["a", "b", "c"]])
        assert vocab.id_of("a") == 1  # Most frequent after <unk>.
        assert vocab.id_of("b") == 2

    def test_min_count_prunes(self):
        vocab = Vocabulary.from_documents([["a", "a", "rare"]], min_count=2)
        assert "rare" not in vocab
        assert vocab.id_of("rare") == 0

    def test_max_size(self):
        vocab = Vocabulary.from_documents(
            [["a", "b", "c", "d"]], max_size=3
        )
        assert len(vocab) == 3  # <unk> + two tokens.

    def test_encode(self):
        vocab = Vocabulary.from_documents([["x", "y"]])
        assert vocab.encode(["x", "zzz"]) == [vocab.id_of("x"), 0]

    def test_counts(self):
        vocab = Vocabulary.from_documents([["t", "t", "u"]])
        assert vocab.count_of("t") == 2
        assert vocab.count_of("missing") == 0


class TestWord2Vec:
    @pytest.fixture(scope="class")
    def corpus(self):
        # Two topic clusters; embeddings should reflect co-occurrence.
        return (
            ["red green blue color paint"] * 20
            + ["query database index table join"] * 20
        )

    @pytest.fixture(scope="class")
    def model(self, corpus):
        return Word2Vec(dim=16, epochs=2, min_count=1, seed=3).fit(corpus)

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            Word2Vec().vector("anything")

    def test_vector_shape(self, model):
        assert model.vector("query").shape == (16,)

    def test_embed_text_average(self, model):
        v = model.embed_text("query database")
        manual = (model.vector("query") + model.vector("database")) / 2
        np.testing.assert_allclose(v, manual)

    def test_embed_empty_text_is_zero(self, model):
        assert np.allclose(model.embed_text(""), 0.0)

    def test_topical_similarity(self, model):
        def cos(a, b):
            va, vb = model.vector(a), model.vector(b)
            return float(
                va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
            )

        same_topic = cos("query", "database")
        cross_topic = cos("query", "green")
        assert same_topic > cross_topic

    def test_most_similar_excludes_self(self, model):
        neighbours = model.most_similar("query", topn=3)
        assert all(token != "query" for token, _score in neighbours)

    def test_deterministic(self, corpus):
        a = Word2Vec(dim=8, epochs=1, seed=5).fit(corpus)
        b = Word2Vec(dim=8, epochs=1, seed=5).fit(corpus)
        np.testing.assert_allclose(a.vectors, b.vectors)

    def test_embed_texts_stacks(self, model):
        out = model.embed_texts(["query", "database join"])
        assert out.shape == (2, 16)
