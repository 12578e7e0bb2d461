"""Benchmark-side spans: name, start, end and parent, kept in memory.

The program processes import this module (and nothing else from the
benchmark) to time the public calls they make, so it stays stdlib-only
and tiny: its import is inside the measured set-up time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """An in-memory span list; written out once, when the run ends."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def __call__(self, name: str, **attributes):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.monotonic(),
            "end": None,
            **attributes,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()


def total(records: list[dict], name: str, **match) -> float:
    """Summed duration of the closed spans called ``name`` in ``records``
    whose attributes equal ``match``."""
    return sum(
        r["end"] - r["start"]
        for r in records
        if r["name"] == name
        and r["end"] is not None
        and all(r.get(k) == v for k, v in match.items())
    )
