"""Blocking: candidate-pair generation from two raw entity tables.

The Magellan benchmark datasets the paper evaluates on are *post-blocking*
candidate sets. This module supplies that upstream step for users who
start from raw tables, so the library covers the full ER pipeline:

* :class:`TokenBlocker` — entities sharing at least ``min_shared`` tokens
  on the chosen attributes become candidates (standard token blocking);
* :class:`SortedNeighborhoodBlocker` — sort both tables by a key
  expression and slide a window over the merged order;
* :class:`MinHashBlocker` — MinHash-LSH over token sets: entities whose
  minhash signatures collide in at least one band become candidates.

All blockers return candidate ``(left_index, right_index)`` pairs;
:func:`make_candidate_dataset` joins them with optional ground truth into
an :class:`~repro.data.schema.EMDataset`, and
:func:`cluster_matches` resolves pairwise match predictions into entity
clusters via connected components.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from collections.abc import Sequence

import numpy as np

from repro.config import stable_hash
from repro.data.schema import EMDataset, PairRecord, Schema
from repro.exceptions import DataError
from repro.text.tokenization import BasicTokenizer

__all__ = [
    "Blocker",
    "TokenBlocker",
    "SortedNeighborhoodBlocker",
    "MinHashBlocker",
    "make_candidate_dataset",
    "cluster_matches",
    "blocking_quality",
]

Row = dict[str, object]


def _row_tokens(
    row: Row, attributes: Sequence[str], tokenizer: BasicTokenizer
) -> set[str]:
    tokens: set[str] = set()
    for name in attributes:
        value = row.get(name)
        if value not in (None, ""):
            tokens.update(tokenizer.tokenize(str(value)))
    return tokens


class Blocker(abc.ABC):
    """Produces candidate index pairs from two entity tables."""

    @abc.abstractmethod
    def candidates(
        self, left_rows: Sequence[Row], right_rows: Sequence[Row]
    ) -> list[tuple[int, int]]:
        """Candidate ``(left_index, right_index)`` pairs, deduplicated."""


class TokenBlocker(Blocker):
    """Entities sharing >= ``min_shared`` tokens become candidates.

    Stop-tokens (appearing in more than ``max_token_frequency`` of either
    table's rows) are ignored, otherwise frequent words like brand names
    would produce a quadratic candidate set.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        min_shared: int = 1,
        max_token_frequency: float = 0.1,
    ) -> None:
        if not attributes:
            raise DataError("TokenBlocker needs at least one attribute")
        if min_shared < 1:
            raise DataError(f"min_shared must be >= 1, got {min_shared}")
        self.attributes = tuple(attributes)
        self.min_shared = min_shared
        self.max_token_frequency = max_token_frequency
        self._tokenizer = BasicTokenizer()

    def candidates(
        self, left_rows: Sequence[Row], right_rows: Sequence[Row]
    ) -> list[tuple[int, int]]:
        left_tokens = [
            _row_tokens(row, self.attributes, self._tokenizer)
            for row in left_rows
        ]
        right_tokens = [
            _row_tokens(row, self.attributes, self._tokenizer)
            for row in right_rows
        ]
        stop = self._stop_tokens(left_tokens, len(left_rows))
        stop |= self._stop_tokens(right_tokens, len(right_rows))

        index: dict[str, list[int]] = defaultdict(list)
        for j, tokens in enumerate(right_tokens):
            for token in tokens - stop:
                index[token].append(j)

        shared_counts: dict[tuple[int, int], int] = defaultdict(int)
        for i, tokens in enumerate(left_tokens):
            for token in tokens - stop:
                for j in index.get(token, ()):
                    shared_counts[(i, j)] += 1
        return sorted(
            pair
            for pair, count in shared_counts.items()
            if count >= self.min_shared
        )

    def _stop_tokens(
        self, token_sets: list[set[str]], n_rows: int
    ) -> set[str]:
        counts: dict[str, int] = defaultdict(int)
        for tokens in token_sets:
            for token in tokens:
                counts[token] += 1
        threshold = max(2, int(self.max_token_frequency * max(1, n_rows)))
        return {token for token, count in counts.items() if count > threshold}


class SortedNeighborhoodBlocker(Blocker):
    """Classic sorted-neighborhood: sort by key, slide a window."""

    def __init__(self, key_attribute: str, window: int = 5) -> None:
        if window < 2:
            raise DataError(f"window must be >= 2, got {window}")
        self.key_attribute = key_attribute
        self.window = window

    def candidates(
        self, left_rows: Sequence[Row], right_rows: Sequence[Row]
    ) -> list[tuple[int, int]]:
        entries: list[tuple[str, int, int]] = []
        for i, row in enumerate(left_rows):
            entries.append((str(row.get(self.key_attribute, "")), 0, i))
        for j, row in enumerate(right_rows):
            entries.append((str(row.get(self.key_attribute, "")), 1, j))
        entries.sort()

        pairs: set[tuple[int, int]] = set()
        for pos, (_key, side, idx) in enumerate(entries):
            for other in entries[pos + 1 : pos + self.window]:
                _okey, oside, oidx = other
                if side == oside:
                    continue
                if side == 0:
                    pairs.add((idx, oidx))
                else:
                    pairs.add((oidx, idx))
        return sorted(pairs)


class MinHashBlocker(Blocker):
    """MinHash-LSH blocking over token sets.

    ``n_hashes = bands * rows_per_band`` hash functions; two entities
    become candidates when all ``rows_per_band`` minima agree in at least
    one band — the standard LSH construction whose collision probability
    is ``1 - (1 - s^r)^b`` for Jaccard similarity ``s``.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        bands: int = 8,
        rows_per_band: int = 2,
        seed: int = 0,
    ) -> None:
        if not attributes:
            raise DataError("MinHashBlocker needs at least one attribute")
        self.attributes = tuple(attributes)
        self.bands = bands
        self.rows_per_band = rows_per_band
        self.seed = seed
        self._tokenizer = BasicTokenizer()
        n_hashes = bands * rows_per_band
        rng = np.random.default_rng(stable_hash("minhash", seed))
        self._salts = rng.integers(1, 2**31 - 1, size=n_hashes)

    def _signature(self, tokens: set[str]) -> np.ndarray | None:
        if not tokens:
            return None
        hashes = np.array(
            [[stable_hash(int(salt), token) for token in tokens]
             for salt in self._salts]
        )
        return hashes.min(axis=1)

    def candidates(
        self, left_rows: Sequence[Row], right_rows: Sequence[Row]
    ) -> list[tuple[int, int]]:
        buckets: dict[tuple[int, tuple], list[int]] = defaultdict(list)
        right_signatures = []
        for j, row in enumerate(right_rows):
            sig = self._signature(
                _row_tokens(row, self.attributes, self._tokenizer)
            )
            right_signatures.append(sig)
            if sig is None:
                continue
            for band in range(self.bands):
                lo = band * self.rows_per_band
                key = (band, tuple(sig[lo : lo + self.rows_per_band]))
                buckets[key].append(j)

        pairs: set[tuple[int, int]] = set()
        for i, row in enumerate(left_rows):
            sig = self._signature(
                _row_tokens(row, self.attributes, self._tokenizer)
            )
            if sig is None:
                continue
            for band in range(self.bands):
                lo = band * self.rows_per_band
                key = (band, tuple(sig[lo : lo + self.rows_per_band]))
                for j in buckets.get(key, ()):
                    pairs.add((i, j))
        return sorted(pairs)


def make_candidate_dataset(
    schema: Schema,
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    candidates: Sequence[tuple[int, int]],
    true_matches: set[tuple[int, int]] | None = None,
    name: str = "blocked",
) -> EMDataset:
    """Assemble an EM dataset from blocked candidates.

    ``true_matches`` supplies labels (pairs not listed are non-matches);
    without it every label is 0, which is the unlabelled-production case.
    """
    pairs = []
    for pair_id, (i, j) in enumerate(candidates):
        label = int(true_matches is not None and (i, j) in true_matches)
        pairs.append(
            PairRecord(pair_id, dict(left_rows[i]), dict(right_rows[j]), label)
        )
    return EMDataset(name, schema, pairs, dataset_type="Structured")


def blocking_quality(
    candidates: Sequence[tuple[int, int]],
    true_matches: set[tuple[int, int]],
    n_left: int,
    n_right: int,
) -> dict[str, float]:
    """Pair completeness (recall) and reduction ratio of a blocking."""
    candidate_set = set(candidates)
    found = len(candidate_set & true_matches)
    completeness = found / len(true_matches) if true_matches else 1.0
    total = n_left * n_right
    reduction = 1.0 - len(candidate_set) / total if total else 0.0
    return {
        "pair_completeness": completeness,
        "reduction_ratio": reduction,
        "n_candidates": float(len(candidate_set)),
    }


def cluster_matches(
    pairs: Sequence[tuple[int, int]],
    predictions: Sequence[int],
    n_left: int,
) -> list[set[tuple[str, int]]]:
    """Resolve pairwise match decisions into entity clusters.

    Nodes are ``("L", i)`` / ``("R", j)``; predicted matches are edges;
    clusters are connected components with more than one member, in the
    order their first node appears in ``pairs`` (union-find with path
    halving).
    """
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def root(node: tuple[str, int]) -> tuple[str, int]:
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    for (i, j), predicted in zip(pairs, predictions):
        left_node, right_node = ("L", int(i)), ("R", int(j))
        parent.setdefault(left_node, left_node)
        parent.setdefault(right_node, right_node)
        if predicted:
            parent[root(left_node)] = root(right_node)
    components: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for node in parent:
        components.setdefault(root(node), set()).add(node)
    return [members for members in components.values() if len(members) > 1]