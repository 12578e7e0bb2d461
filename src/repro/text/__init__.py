"""Text substrate: tokenization, vocabularies, similarity, word embeddings.

This package supplies the low-level NLP machinery every other subsystem
builds on: the word tokenizer used by the EM adapter and the simulated
pre-trained transformers, classic string-similarity measures used by the
dataset generators and magellan-style feature builders, and a from-scratch
Word2Vec used for the no-adapter AutoSklearn baseline of Section 5.1.
"""

from repro.text.similarity import (
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    monge_elkan,
    overlap_coefficient,
)
from repro.text.tokenization import BasicTokenizer, normalize_text
from repro.text.vocab import Vocabulary
from repro.text.word2vec import Word2Vec

__all__ = [
    "BasicTokenizer",
    "Vocabulary",
    "Word2Vec",
    "jaccard",
    "jaro",
    "jaro_winkler",
    "levenshtein",
    "levenshtein_ratio",
    "monge_elkan",
    "normalize_text",
    "overlap_coefficient",
]
