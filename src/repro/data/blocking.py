"""Blocking: candidate-pair generation from two raw entity tables.

The Magellan benchmark datasets the paper evaluates on are *post-blocking*
candidate sets. This module supplies that upstream step for users who
start from raw tables, so the library covers the full ER pipeline.

:class:`TokenBlocker` makes entities sharing at least ``min_shared``
tokens on the chosen attributes candidates (standard token blocking) and
returns candidate ``(left_index, right_index)`` pairs;
:func:`make_candidate_dataset` joins them with optional ground truth into
an :class:`~repro.data.schema.EMDataset`, and
:func:`cluster_matches` resolves pairwise match predictions into entity
clusters via connected components.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.data.schema import EMDataset, PairRecord, Schema
from repro.exceptions import DataError
from repro.text.tokenization import BasicTokenizer

__all__ = [
    "TokenBlocker",
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


class TokenBlocker:
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
        """Candidate ``(left_index, right_index)`` pairs, deduplicated."""
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