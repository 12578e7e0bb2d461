"""Pair tokenization: the first stage of the EM adapter (Section 4).

A pair tokenizer maps one :class:`~repro.data.schema.PairRecord` to one or
more *pair sequences* — ``(left_text, right_text)`` string couples that
the Embedder will serialize as ``left [SEP] right``. The three modes of
the paper:

* **unstructured** — all attribute values concatenated; schema forgotten;
  one sequence per record.
* **attribute-based** — one sequence per attribute, coupling the two
  entities' values of that attribute.
* **hybrid** — incremental concatenations: the *i*-th sequence couples
  the values of the first *i* attributes, so the last sequence compares
  the entire records while earlier ones stay attribute-anchored.
"""

from __future__ import annotations

import abc

from repro.data.schema import PairRecord, Schema
from repro.exceptions import UnknownModelError

__all__ = [
    "PairSequence",
    "PairTokenizer",
    "UnstructuredTokenizer",
    "AttributeTokenizer",
    "HybridTokenizer",
    "make_tokenizer",
    "TOKENIZER_NAMES",
]

#: One pair sequence: the left and right value strings to couple.
PairSequence = tuple[str, str]


class PairTokenizer(abc.ABC):
    """Base class of the three tokenization modes."""

    #: Registry key; also used in cache keys and table headers.
    name: str = ""

    @abc.abstractmethod
    def sequences(self, pair: PairRecord, schema: Schema) -> list[PairSequence]:
        """The pair sequences of one record, in a fixed order."""

    def sequence_count(self, schema: Schema) -> int:
        """How many sequences each record produces under this mode."""
        return len(self.sequences(_probe_record(schema), schema))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _probe_record(schema: Schema) -> PairRecord:
    empty = {a.name: "" for a in schema.attributes}
    return PairRecord(0, dict(empty), dict(empty), 0)


def _values(pair: PairRecord, side: str, names: tuple[str, ...]) -> str:
    parts = [pair.text_of(side, name) for name in names]
    return " ".join(part for part in parts if part)


class UnstructuredTokenizer(PairTokenizer):
    """All attributes concatenated into one sequence; schema discarded."""

    name = "unstructured"

    def sequences(self, pair: PairRecord, schema: Schema) -> list[PairSequence]:
        names = schema.attribute_names
        return [(_values(pair, "left", names), _values(pair, "right", names))]


class AttributeTokenizer(PairTokenizer):
    """One sequence per attribute, coupling the two entities' values."""

    name = "attr"

    def sequences(self, pair: PairRecord, schema: Schema) -> list[PairSequence]:
        return [
            (pair.text_of("left", a.name), pair.text_of("right", a.name))
            for a in schema.attributes
        ]


class HybridTokenizer(PairTokenizer):
    """Incremental prefix concatenations (the paper's hybrid strategy).

    Sequence *i* couples the concatenated values of attributes ``1..i``;
    the final sequence therefore compares the entire records, while the
    first equals the attribute-based sequence of attribute 1. This is the
    exact hybrid variant described in Section 4.
    """

    name = "hybrid"

    def sequences(self, pair: PairRecord, schema: Schema) -> list[PairSequence]:
        # Each prefix extends the previous one, so every value is read
        # once per side; the strings equal _values over names[:i].
        left = right = ""
        result: list[PairSequence] = []
        for name in schema.attribute_names:
            left = _extend(left, pair.text_of("left", name))
            right = _extend(right, pair.text_of("right", name))
            result.append((left, right))
        return result


def _extend(prefix: str, value: str) -> str:
    """``prefix`` joined with ``value`` as :func:`_values` would join them."""
    if not value:
        return prefix
    return f"{prefix} {value}" if prefix else value


_REGISTRY = {
    cls.name: cls
    for cls in (UnstructuredTokenizer, AttributeTokenizer, HybridTokenizer)
}

#: Valid tokenizer mode names.
TOKENIZER_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def make_tokenizer(name: str) -> PairTokenizer:
    """Instantiate a tokenizer by mode name (``attr``/``hybrid``/...)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise UnknownModelError(
            f"unknown tokenizer {name!r}; known: {', '.join(TOKENIZER_NAMES)}"
        ) from None
