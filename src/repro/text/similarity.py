"""Classic string-similarity measures.

These are the similarity functions used by the synthetic dataset generators
(to verify that perturbed duplicates stay recognisable), by the magellan
style feature builder in :mod:`repro.adapter.features`, and by tests. All
functions return floats in ``[0, 1]`` unless stated otherwise, accept plain
``str`` arguments, and treat comparisons case-sensitively — normalize first
with :func:`repro.text.tokenization.normalize_text` if needed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "levenshtein",
    "levenshtein_ratio",
    "jaro",
    "jaro_winkler",
    "jaccard",
    "overlap_coefficient",
    "monge_elkan",
    "ngrams",
]


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings (insert / delete / substitute).

    Uses the standard two-row dynamic program; O(len(a) * len(b)) time and
    O(min(len)) memory.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def levenshtein_ratio(a: str, b: str) -> float:
    """Normalized edit similarity: ``1 - distance / max_len``."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity, the base of Jaro-Winkler."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * la
    b_flags = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if a_flags[i]:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / la + m / lb + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted by a shared prefix (≤ 4 chars)."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_weight * (1.0 - base)


def _as_set(tokens: Iterable[str]) -> frozenset[str]:
    return tokens if isinstance(tokens, frozenset) else frozenset(tokens)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard index of two token collections."""
    sa, sb = _as_set(a), _as_set(b)
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


def overlap_coefficient(a: Iterable[str], b: Iterable[str]) -> float:
    """Szymkiewicz-Simpson overlap: ``|A ∩ B| / min(|A|, |B|)``."""
    sa, sb = _as_set(a), _as_set(b)
    if not sa or not sb:
        return 1.0 if not sa and not sb else 0.0
    return len(sa & sb) / min(len(sa), len(sb))


def monge_elkan(
    a_tokens: Sequence[str],
    b_tokens: Sequence[str],
    inner=jaro_winkler,
) -> float:
    """Monge-Elkan similarity: average best inner-similarity per token of A.

    Asymmetric by definition; callers wanting symmetry should average the
    two directions.
    """
    if not a_tokens:
        return 1.0 if not b_tokens else 0.0
    if not b_tokens:
        return 0.0
    total = 0.0
    for ta in a_tokens:
        total += max(inner(ta, tb) for tb in b_tokens)
    return total / len(a_tokens)


def ngrams(text: str, n: int = 3) -> list[str]:
    """Character n-grams of ``text``, padded with ``#`` at both ends."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    padded = "#" * (n - 1) + text + "#" * (n - 1)
    if len(padded) < n:
        return []
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]
