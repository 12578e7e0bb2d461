"""Global configuration: seeds, scale factors, and experiment defaults.

Every stochastic component in the library draws its randomness from an
explicit :class:`numpy.random.Generator` seeded through :func:`rng_for`, so
the whole reproduction is deterministic end to end. The experiment scale
(how many candidate pairs each benchmark dataset contains relative to the
paper's Table 1 sizes) is controlled by the ``REPRO_SCALE`` environment
variable or the ``scale=`` parameter of the experiment runners.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from pathlib import Path

import numpy as np

#: Master seed for the whole reproduction. Changing it re-rolls every
#: synthetic dataset and every simulated pre-trained transformer.
GLOBAL_SEED = 20210323  # EDBT 2021 opening day.

#: Default scale for benchmark runs (fraction of the paper's dataset sizes).
#: Full paper scale is 1.0; benchmarks default to a reduced scale so the
#: complete grid finishes in minutes on a laptop.
DEFAULT_BENCH_SCALE = 0.15

#: Train / validation / test proportions used throughout the paper.
SPLIT_PROPORTIONS = (0.6, 0.2, 0.2)

#: Simulated wall-clock budgets (hours) used in Section 5.3 / Table 5.
BUDGET_SHORT_HOURS = 1.0
BUDGET_LONG_HOURS = 6.0


def bench_scale() -> float:
    """Return the dataset scale used by the benchmark harness.

    Reads ``REPRO_SCALE`` from the environment; values are clamped to
    ``(0, 1]``. Invalid values fall back to :data:`DEFAULT_BENCH_SCALE`.
    """
    raw = os.environ.get("REPRO_SCALE", "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_BENCH_SCALE
    if not 0.0 < value <= 1.0:
        return DEFAULT_BENCH_SCALE
    return value


def cache_root() -> Path | None:
    """Root directory of every on-disk result cache (None when disabled).

    Reads ``REPRO_CACHE_DIR`` (default ``.repro_cache``); the values
    ``off``/``none``/empty disable disk caching entirely. This is the
    single sanctioned read of that knob — the experiment cache and the
    entity store derive their directories from here so that ambient
    environment access stays out of the deterministic core (rule
    DET003), and the knob is resolved identically everywhere.
    """
    raw = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    if raw.lower() in ("off", "none", ""):
        return None
    return Path(raw)


def stable_hash(*parts: object) -> int:
    """Hash a tuple of printable parts into a 32-bit integer, stably.

    Python's builtin ``hash`` is randomized per process for strings, so the
    library derives sub-seeds with CRC32 over the repr of the parts instead.
    """
    text = "␟".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def stable_digest(*parts: object) -> int:
    """Hash a tuple of printable parts into a 64-bit integer, stably.

    Cache *identity* needs more collision headroom than RNG sub-seeding:
    the entity store keys every distinct entity text and couple it ever
    encodes, where a 32-bit CRC reaches birthday-collision odds after a
    few tens of thousands of keys. blake2b at 64 bits pushes that to
    billions. :func:`stable_hash` stays CRC32 so every seeded RNG stream
    is unchanged.
    """
    text = "␟".join(repr(p) for p in parts)
    raw = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(raw, "big")


def rng_for(*scope: object, seed: int | None = None) -> np.random.Generator:
    """Create a deterministic RNG for a named scope.

    Parameters
    ----------
    scope:
        Any printable components naming the consumer, e.g.
        ``rng_for("dataset", "S-DG", 3)``. The same scope always yields the
        same stream.
    seed:
        Optional override of :data:`GLOBAL_SEED`.
    """
    base = GLOBAL_SEED if seed is None else seed
    return np.random.default_rng((base, stable_hash(*scope)))


#: Calibration version of the synthetic benchmark. Bumped whenever the
#: generators or difficulty knobs change, so cached experiment results
#: from an older calibration are never mixed with new ones.
DATA_VERSION = 3

#: Version of the *encode discipline* — how the frozen transformers
#: batch sequences into forward passes. Version 2 is the canonical
#: exact-length-bucketed forward (DESIGN.md): sequences are grouped by
#: token count and encoded unpadded, so each sequence's bits depend only
#: on its own content (BLAS GEMM bits vary with matrix shape, so the v1
#: mixed-length padded batches were not batch-composition invariant).
#: Folded into every embedding-derived cache key (entity store,
#: experiment results) so artifacts encoded under an older discipline
#: are never mixed with new ones.
ENCODE_VERSION = 2


def _budget_bytes(name: str, default_mb: float) -> int | None:
    """Parse a ``*_MB`` byte-budget env knob (None = unbounded).

    ``off``/``none``/``unlimited`` and non-positive values disable the
    bound; unparsable values fall back to ``default_mb``.
    """
    raw = os.environ.get(name, "")
    if raw.lower() in ("off", "none", "unlimited"):
        return None
    try:
        value = float(raw)
    except ValueError:
        value = default_mb
    if value <= 0:
        return None
    return int(value * 1024 * 1024)


def entity_cache_budget_bytes() -> int | None:
    """Byte budget of the in-memory entity-embedding store tier.

    Reads ``REPRO_ENTITY_CACHE_MB`` (default 256 MiB). Like
    :func:`cache_root`, this is the sanctioned reader of the knob so the
    deterministic core never touches the environment (DET003).
    """
    return _budget_bytes("REPRO_ENTITY_CACHE_MB", 256.0)
