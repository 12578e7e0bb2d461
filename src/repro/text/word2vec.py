"""Word2Vec (skip-gram with negative sampling) in numpy.

Section 5.1 of the paper feeds AutoSklearn with "a standard Word2Vec
embedding, where the average Word2Vec embedding for each token of
non-numeric attributes has been computed and concatenated". This module is
that substrate: a compact, vectorized skip-gram trainer good enough for the
small per-dataset corpora the experiments use.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.config import rng_for
from repro.exceptions import NotFittedError
from repro.text.tokenization import BasicTokenizer
from repro.text.vocab import Vocabulary

__all__ = ["Word2Vec"]


class Word2Vec:
    """Skip-gram Word2Vec with negative sampling.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    window:
        Max distance between center and context word.
    negatives:
        Negative samples per positive pair.
    epochs:
        Passes over the corpus.
    learning_rate:
        Initial stochastic-gradient step size, linearly decayed to 10% over
        training.
    min_count:
        Words rarer than this map to ``<unk>``.
    seed:
        Seeds initialization and sampling; the same corpus + seed always
        produces the same vectors.
    """

    def __init__(
        self,
        dim: int = 48,
        window: int = 4,
        negatives: int = 5,
        epochs: int = 3,
        learning_rate: float = 0.05,
        min_count: int = 2,
        seed: int = 0,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.min_count = min_count
        self.seed = seed
        self._tokenizer = BasicTokenizer()
        self.vocab: Vocabulary | None = None
        self._in_vectors: np.ndarray | None = None
        self._out_vectors: np.ndarray | None = None

    # ------------------------------------------------------------------ fit

    def fit(self, corpus: Iterable[str]) -> "Word2Vec":
        """Train embeddings on an iterable of documents (plain strings)."""
        documents = [self._tokenizer.tokenize(doc) for doc in corpus]
        self.vocab = Vocabulary.from_documents(documents, min_count=self.min_count)
        rng = rng_for("word2vec", self.seed)
        size = len(self.vocab)
        self._in_vectors = (rng.random((size, self.dim)) - 0.5) / self.dim
        self._out_vectors = np.zeros((size, self.dim))

        encoded = [np.asarray(self.vocab.encode(doc)) for doc in documents if doc]
        if not encoded:
            return self

        noise = self._noise_distribution()
        pairs = self._training_pairs(encoded, rng)
        if len(pairs) == 0:
            return self

        total_steps = self.epochs * len(pairs)
        step = 0
        for _epoch in range(self.epochs):
            rng.shuffle(pairs)
            for center, context in pairs:
                lr = self.learning_rate * max(
                    0.1, 1.0 - step / max(1, total_steps)
                )
                self._sgd_step(center, context, noise, rng, lr)
                step += 1
        return self

    def _noise_distribution(self) -> np.ndarray:
        """Unigram^0.75 noise distribution for negative sampling."""
        assert self.vocab is not None
        counts = np.array(
            [max(1, self.vocab.count_of(tok)) for tok in self.vocab], dtype=float
        )
        weights = counts**0.75
        return weights / weights.sum()

    def _training_pairs(
        self, encoded: list[np.ndarray], rng: np.random.Generator
    ) -> np.ndarray:
        pairs: list[tuple[int, int]] = []
        for doc in encoded:
            n = len(doc)
            for i in range(n):
                span = int(rng.integers(1, self.window + 1))
                lo, hi = max(0, i - span), min(n, i + span + 1)
                for j in range(lo, hi):
                    if j != i:
                        pairs.append((int(doc[i]), int(doc[j])))
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    def _sgd_step(
        self,
        center: int,
        context: int,
        noise: np.ndarray,
        rng: np.random.Generator,
        lr: float,
    ) -> None:
        assert self._in_vectors is not None and self._out_vectors is not None
        v = self._in_vectors[center]
        targets = np.concatenate(
            ([context], rng.choice(len(noise), size=self.negatives, p=noise))
        )
        labels = np.zeros(len(targets))
        labels[0] = 1.0
        outs = self._out_vectors[targets]
        scores = outs @ v
        preds = 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))
        grad = (preds - labels)[:, None]
        v_grad = (grad * outs).sum(axis=0)
        self._out_vectors[targets] -= lr * grad * v
        self._in_vectors[center] -= lr * v_grad

    # ------------------------------------------------------------ inference

    @property
    def vectors(self) -> np.ndarray:
        """The input embedding matrix (rows indexed by vocabulary id)."""
        if self._in_vectors is None:
            raise NotFittedError("Word2Vec.fit must be called first")
        return self._in_vectors

    def vector(self, token: str) -> np.ndarray:
        """Embedding of a single token (the ``<unk>`` row if unseen)."""
        if self.vocab is None or self._in_vectors is None:
            raise NotFittedError("Word2Vec.fit must be called first")
        return self._in_vectors[self.vocab.id_of(token)]

    def embed_text(self, text: str) -> np.ndarray:
        """Average embedding of the tokens of ``text`` (zeros if empty)."""
        if self.vocab is None or self._in_vectors is None:
            raise NotFittedError("Word2Vec.fit must be called first")
        ids = self.vocab.encode(self._tokenizer.tokenize(text))
        if not ids:
            return np.zeros(self.dim)
        return self._in_vectors[np.asarray(ids)].mean(axis=0)

    def most_similar(self, token: str, topn: int = 5) -> list[tuple[str, float]]:
        """Nearest vocabulary tokens by cosine similarity."""
        if self.vocab is None or self._in_vectors is None:
            raise NotFittedError("Word2Vec.fit must be called first")
        query = self.vector(token)
        norms = np.linalg.norm(self._in_vectors, axis=1)
        qn = np.linalg.norm(query)
        if qn == 0:
            return []
        sims = self._in_vectors @ query / (np.maximum(norms, 1e-12) * qn)
        order = np.argsort(-sims)
        results: list[tuple[str, float]] = []
        for idx in order:
            candidate = self.vocab.token_of(int(idx))
            if candidate in (token, Vocabulary.UNK):
                continue
            results.append((candidate, float(sims[idx])))
            if len(results) >= topn:
                break
        return results

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Stacked :meth:`embed_text` for a sequence of strings."""
        return np.vstack([self.embed_text(t) for t in texts])
