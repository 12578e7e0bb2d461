"""Word-level tokenization for the text substrate.

:class:`BasicTokenizer` lower-cases, strips punctuation into separate
tokens, and splits on whitespace. Word2Vec, blocking, the Magellan and
DeepMatcher baselines, the adapter's feature builders and the simulated
pre-trained encoders (:mod:`repro.transformers.pretrained`) all use it.
"""

from __future__ import annotations

import re

__all__ = ["BasicTokenizer", "normalize_text"]

_PUNCT_RE = re.compile(r"([!-/:-@\[-`{-~])")
_WS_RE = re.compile(r"\s+")


def normalize_text(text: str, lowercase: bool = True) -> str:
    """Collapse whitespace, optionally lower-case, separate punctuation."""
    text = _PUNCT_RE.sub(r" \1 ", text)
    text = _WS_RE.sub(" ", text).strip()
    if lowercase:
        text = text.lower()
    return text


class BasicTokenizer:
    """Whitespace + punctuation tokenizer with optional lower-casing."""

    def __init__(self, lowercase: bool = True) -> None:
        self.lowercase = lowercase

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into word and punctuation tokens."""
        normalized = normalize_text(text, lowercase=self.lowercase)
        if not normalized:
            return []
        return normalized.split(" ")

    def __repr__(self) -> str:
        return f"BasicTokenizer(lowercase={self.lowercase})"
