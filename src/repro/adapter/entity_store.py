"""Content-addressed entity-embedding store.

Every entity recurs in many candidate pairs, but the pre-refactor
adapter re-ran the transformer forward for each *pair*. This module is
the reuse layer under :meth:`TransformerEmbedder.embed_pairs`: arrays
derived from an entity (or a pair of entities) are stored under a
64-bit :func:`repro.config.stable_digest` of their full provenance —
``ENCODE_VERSION``, encoder identity, and the exact text — so a record
is valid wherever the same content shows up again, across datasets,
splits, processes, and parallel workers.

Two record kinds live here, both plain ``dict[str, np.ndarray]``
bundles (the store itself is agnostic):

* *half* records — the token-embedding matrix and ``[sep]`` positions
  of one entity text under one encoder;
* *sequence* records — the finished readout vector of one
  ``(left, right)`` couple under one embedder.

Tiers: a byte-bounded in-memory LRU (:class:`ByteBudgetLRU`) in front
of an append-only disk tier of *packs* under ``cache_root()/entity``.
One :meth:`EMAdapter.transform <repro.adapter.pipeline.EMAdapter.transform>`
call owns one :class:`PackWriter`, which buffers the records the call
computes and publishes them as a single pack when the call ends — no
pack when it computed nothing new. A pack is one file: a fixed prefix
(magic and format version), a JSON header, a record table (key →
payload offset, length, CRC-32), an array table (field, shape), then
the raw array bytes. It is written into a mkstemp file and published
with ``os.replace`` under :func:`repro.faults.io_retry`
(``adapter.entity.store.write``/``.replace`` seams, once per pack).
Pack names carry the writer's pid, a per-store serial, and a digest of
the pack's keys, so parallel writers never collide, and two packs that
could share a name hold the same bytes.

Reads never touch the disk per record. A memory miss is resolved
through an in-process index (sorted key array → pack, row) that is
refreshed from disk only when the pack directory's mtime has changed;
lookups come in batches (:meth:`EntityStore.load_many`) and each pack
involved is opened once per batch. A pack that fails to parse — bad
prefix, truncated tables or payload, CRC mismatch — is counted as
corrupt, unlinked, and dropped from the index; its records then miss
and are recomputed from the entity text, bit-identically
(``adapter.entity.read`` seam, once per pack opened). Only the disk
format is versioned (:data:`PACK_FORMAT`, in both the prefix and the
file suffix); names of other formats, including the per-record
``<key>.npz`` files of earlier releases, are ignored. Every tier
transition is counted under ``adapter.entity_cache.*``.

The module-level singleton is rebound (not mutated) by
:func:`clear_entity_store`, which :func:`repro.parallel.executor._init_worker`
calls so forked workers never inherit a parent's hot cache (FORK001).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
import threading
import zlib
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import faults, telemetry

__all__ = [
    "EntityStore",
    "PackWriter",
    "clear_entity_store",
    "entity_store",
]

Record = dict[str, np.ndarray]

#: Version of the on-disk pack layout. Record keys (and so every vector
#: bit) are versioned separately by ``repro.config.ENCODE_VERSION``.
PACK_FORMAT = 1
_MAGIC = b"EMPACK%02d" % PACK_FORMAT
_SUFFIX = f".v{PACK_FORMAT}.pack"
#: Magic, the byte length of the JSON header, and the CRC-32 of the
#: header plus both tables (the payload is checked per record).
_PREFIX = struct.Struct("<8sQI")
#: Highest array rank a record may hold (shape slots in the array table).
_MAX_NDIM = 4
_RECORD_ROW = np.dtype(
    [
        ("key", "<u8"),
        ("offset", "<u8"),
        ("nbytes", "<u8"),
        ("crc", "<u4"),
        ("first", "<u4"),
        ("count", "<u4"),
    ]
)
_ARRAY_ROW = np.dtype(
    [("field", "<u4"), ("ndim", "<u4"), ("shape", "<u8", (_MAX_NDIM,))]
)
#: What parsing a damaged pack can raise (JSON and UnicodeDecodeError
#: are ValueErrors; a garbled dtype string is a TypeError).
_DAMAGE = (ValueError, KeyError, TypeError, IndexError, struct.error)


class ByteBudgetLRU:
    """An LRU mapping bounded by the byte size of its values.

    The entity store's memory tier. The budget is resolved lazily
    through ``budget_fn`` (a :mod:`repro.config` reader) so each rebound
    instance re-reads the environment knob — tests and workers see the
    current setting, and the deterministic core itself never touches
    ``os.environ``.

    Eviction changes only *what is resident*, never what is computed:
    every entry is content-addressed and deterministic, so a re-miss
    recomputes (or re-reads from disk) byte-identical data.

    All mutations hold one per-instance lock: ``get`` reorders the
    ``OrderedDict`` and ``put`` rewrites both the dict and the resident
    byte tally, so unsynchronized callers (the serving daemon's handler
    threads share one store) could corrupt the LRU chain mid-``move_to_end``
    or mis-account ``resident_bytes``. Telemetry is reported outside the
    lock — the instruments carry their own locks.
    """

    def __init__(
        self,
        budget_fn: Callable[[], int | None],
        metric_prefix: str,
    ) -> None:
        self._budget_fn = budget_fn
        self._budget: int | None = None
        self._resolved = False
        self._prefix = metric_prefix
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._resident_bytes = 0
        self._lock = threading.Lock()

    @property
    def budget(self) -> int | None:
        with self._lock:
            if not self._resolved:
                self._budget = self._budget_fn()
                self._resolved = True
            return self._budget

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: object):
        """Return the cached value (now most-recently-used) or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            telemetry.counter(f"{self._prefix}.memory.misses").inc()
            return None
        telemetry.counter(f"{self._prefix}.memory.hits").inc()
        return entry[0]

    def put(self, key: object, value: object, nbytes: int) -> None:
        """Insert ``value`` and evict least-recently-used entries.

        The newest entry is never evicted — a single oversized matrix
        still gets cached (otherwise back-to-back transforms of one
        large dataset would thrash), it just pushes everything else out.
        """
        budget = self.budget  # resolve before taking the entries lock
        evictions = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._resident_bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._resident_bytes += nbytes
            if budget is not None:
                while self._resident_bytes > budget and len(self._entries) > 1:
                    _evicted, (_value, size) = self._entries.popitem(last=False)
                    self._resident_bytes -= size
                    evictions += 1
            resident = self._resident_bytes
        if evictions:
            telemetry.counter(f"{self._prefix}.memory.evictions").inc(evictions)
        telemetry.gauge(f"{self._prefix}.memory.resident_bytes").set(resident)


def _bundle_nbytes(arrays: Record) -> int:
    return sum(a.nbytes for a in arrays.values())


@dataclass
class _Pack:
    """The tables of one pack and where its payload starts.

    The payload stays on disk; a record's bytes are read on demand.
    """

    fields: list[tuple[str, np.dtype]]
    records: np.ndarray
    arrays: np.ndarray
    base: int
    path: Path | None = None


def _encode_pack(records: dict[int, Record]) -> tuple[list, _Pack]:
    """The byte chunks of one pack file, keys ascending, and its tables.

    The payload chunks are views of the records' own arrays, so writing
    a pack never holds a second in-memory copy of it.
    """
    fields: dict[tuple[str, str], int] = {}
    record_rows = np.zeros(len(records), dtype=_RECORD_ROW)
    array_rows: list[tuple] = []
    payload: list[np.ndarray] = []
    offset = 0
    for row, key in enumerate(sorted(records)):
        start, crc, first = offset, 0, len(array_rows)
        for name, value in sorted(records[key].items()):
            array = np.ascontiguousarray(value)
            if array.ndim > _MAX_NDIM:
                raise ValueError(
                    f"entity record array {name!r} has rank {array.ndim} "
                    f"> {_MAX_NDIM}"
                )
            field = fields.setdefault((name, array.dtype.str), len(fields))
            array_rows.append(
                (field, array.ndim, array.shape + (0,) * (_MAX_NDIM - array.ndim))
            )
            raw = array.reshape(-1).view(np.uint8)
            crc = zlib.crc32(raw, crc)
            payload.append(raw)
            offset += raw.nbytes
        count = len(array_rows) - first
        record_rows[row] = (key, start, offset - start, crc, first, count)
    array_table = np.array(array_rows, dtype=_ARRAY_ROW)
    header = json.dumps(
        {
            "fields": [list(field) for field in fields],
            "records": len(record_rows),
            "arrays": len(array_table),
            "payload": offset,
        }
    ).encode("utf-8")
    tables = [header, record_rows.tobytes(), array_table.tobytes()]
    crc = zlib.crc32(b"".join(tables))
    prefix = _PREFIX.pack(_MAGIC, len(header), crc)
    pack = _Pack(
        [(name, np.dtype(dtype)) for name, dtype in fields],
        record_rows,
        array_table,
        _PREFIX.size + sum(len(table) for table in tables),
    )
    return [prefix, *tables, *payload], pack


def _read_tables(handle, path: Path) -> _Pack:
    """Parse a pack's prefix and tables; raise on any damage."""
    magic, header_size, crc = _PREFIX.unpack(handle.read(_PREFIX.size))
    if magic != _MAGIC:
        raise ValueError(f"not an entity pack: {path.name}")
    header_raw = handle.read(header_size)
    header = json.loads(header_raw)
    records_raw = handle.read(header["records"] * _RECORD_ROW.itemsize)
    arrays_raw = handle.read(header["arrays"] * _ARRAY_ROW.itemsize)
    if zlib.crc32(header_raw + records_raw + arrays_raw) != crc:
        raise ValueError(f"entity pack tables damaged: {path.name}")
    records = np.frombuffer(records_raw, dtype=_RECORD_ROW)
    arrays = np.frombuffer(arrays_raw, dtype=_ARRAY_ROW)
    base = handle.tell()
    if (
        len(records) != header["records"]
        or len(arrays) != header["arrays"]
        or os.fstat(handle.fileno()).st_size != base + header["payload"]
    ):
        raise ValueError(f"truncated entity pack: {path.name}")
    fields = [(str(name), np.dtype(dtype)) for name, dtype in header["fields"]]
    return _Pack(fields, records, arrays, base, path)


def _decode_record(pack: _Pack, row: tuple, raw: bytearray) -> Record:
    """Split one record's verified payload bytes into its named arrays."""
    _key, _offset, nbytes, crc, first, count = row
    if zlib.crc32(raw) != crc:
        raise ValueError(f"entity pack record damaged: {pack.path.name}")
    arrays: Record = {}
    position = 0
    for field, ndim, shape in pack.arrays[first : first + count].tolist():
        name, dtype = pack.fields[field]
        shape = tuple(shape[:ndim])
        size = math.prod(shape)
        arrays[name] = np.frombuffer(
            raw, dtype=dtype, count=size, offset=position
        ).reshape(shape)
        position += size * dtype.itemsize
    if position != nbytes:
        raise ValueError(f"entity pack record damaged: {pack.path.name}")
    return arrays


class EntityStore:
    """Memory tier + pack index for content-addressed embedding records.

    Records enter through a :class:`PackWriter` (:meth:`writer`) and
    leave through :meth:`load_many`. One lock guards the pack index;
    payload reads run outside it.
    """

    def __init__(self) -> None:
        from repro.config import entity_cache_budget_bytes

        self._memory = ByteBudgetLRU(
            entity_cache_budget_bytes, "adapter.entity_cache"
        )
        self._lock = threading.Lock()
        self._serial = itertools.count()
        self._reset_index(None)

    def _reset_index(self, directory: Path | None) -> None:
        self._dir = directory
        self._stamp: int | None = None
        #: Pack file name -> pack number (None once dropped).
        self._names: dict[str, int | None] = {}
        self._packs: list[_Pack | None] = []
        #: Sorted record keys and, aligned, ``pack number << 32 | row``.
        self._keys = np.zeros(0, dtype=np.uint64)
        self._where = np.zeros(0, dtype=np.int64)

    @staticmethod
    def _disk_dir() -> Path | None:
        """``cache_root()/entity``, or None when disk caching is off."""
        from repro.config import cache_root

        root = cache_root()
        if root is None:
            return None
        return root / "entity"

    @property
    def resident_bytes(self) -> int:
        return self._memory.resident_bytes

    def _keep(self, key: int, arrays: Record) -> None:
        self._memory.put(key, arrays, _bundle_nbytes(arrays))

    def writer(self) -> "PackWriter":
        """A buffer for one call's new records (see :class:`PackWriter`)."""
        return PackWriter(self)

    def load(self, key: int) -> Record | None:
        """Fetch one record bundle by digest (memory first, then packs)."""
        return self.load_many([key]).get(key)

    def load_many(
        self, keys: Iterable[int], pending: dict[int, Record] | None = None
    ) -> dict[int, Record]:
        """The stored bundles among ``keys``, by key; absent keys missed.

        Memory first, then ``pending`` (an open writer's records the
        memory tier has already evicted), then the packs: at most one
        directory ``stat`` per call, and one open per pack that holds a
        requested record.
        """
        found: dict[int, Record] = {}
        misses: list[int] = []
        for key in keys:
            arrays = self._memory.get(key)
            if arrays is None and pending is not None:
                arrays = pending.get(key)
            if arrays is None:
                misses.append(key)
            else:
                found[key] = arrays
        disk = self._disk_dir() if misses else None
        if disk is None:
            return found
        for number, rows in self._locate(disk, misses).items():
            for key, arrays in self._read_records(number, rows).items():
                found[key] = arrays
                self._keep(key, arrays)
        hits = sum(key in found for key in misses)
        if hits:
            telemetry.counter("adapter.entity_cache.disk.hits").inc(hits)
        if hits < len(misses):
            telemetry.counter("adapter.entity_cache.disk.misses").inc(
                len(misses) - hits
            )
        return found

    # ------------------------------------------------------------ index

    def _locate(self, disk: Path, keys: list[int]) -> dict[int, list[int]]:
        """Pack number -> rows holding ``keys``; unindexed keys omitted."""
        with self._lock:
            self._refresh(disk)
            indexed, where = self._keys, self._where
        if not len(indexed):
            return {}
        query = np.array(keys, dtype=np.uint64)
        slots = np.searchsorted(indexed, query)
        slots[slots == len(indexed)] = 0
        rows: dict[int, list[int]] = {}
        for location in where[slots[indexed[slots] == query]].tolist():
            rows.setdefault(location >> 32, []).append(location & 0xFFFFFFFF)
        return rows

    def _refresh(self, disk: Path) -> None:
        """Index packs published since the last look (lock held).

        The directory's mtime is the change signal, so a warm index
        costs one ``stat``. It is read *before* listing: a pack
        published during the listing bumps it again and is indexed on
        the next look. (A pack published within the file system's
        timestamp tick of the stamp can stay unseen until the next
        change; its records then recompute, bit-identically.)
        """
        if disk != self._dir:
            self._reset_index(disk)
        try:
            stamp = os.stat(disk).st_mtime_ns
        except OSError:
            return  # Nothing published under this root yet.
        if stamp == self._stamp:
            return
        self._stamp = stamp
        for name in sorted(os.listdir(disk)):
            if name.endswith(_SUFFIX) and name not in self._names:
                self._names[name] = None
                pack = self._parse(disk / name)
                if pack is not None:
                    self._add(pack)

    def _parse(self, path: Path) -> _Pack | None:
        """Read one pack's tables; a damaged pack is unlinked (None)."""
        faults.checkpoint("adapter.entity.read", path=str(path))
        try:
            with open(path, "rb") as handle:
                return _read_tables(handle, path)
        except FileNotFoundError:
            return None  # Dropped by another reader since the listing.
        except (OSError, *_DAMAGE):
            _discard(path)
            faults.mark_recovered("adapter.entity.read", path=str(path))
            return None

    def _add(self, pack: _Pack) -> None:
        """Merge one pack's keys into the sorted index (lock held)."""
        number = len(self._packs)
        self._packs.append(pack)
        self._names[pack.path.name] = number
        order = np.argsort(pack.records["key"], kind="stable")
        keys = pack.records["key"][order]
        slots = np.searchsorted(self._keys, keys, side="right")
        self._keys = np.insert(self._keys, slots, keys)
        self._where = np.insert(self._where, slots, (number << 32) | order)

    def _drop(self, number: int) -> None:
        """Forget a pack found damaged or gone."""
        with self._lock:
            if self._packs[number] is None:
                return
            self._packs[number] = None
            keep = (self._where >> 32) != number
            self._keys, self._where = self._keys[keep], self._where[keep]

    def _read_records(self, number: int, rows: list[int]) -> dict[int, Record]:
        """The records at ``rows`` of pack ``number``, in one open.

        Any damage drops the whole pack, so its records recompute; a
        pack that vanished is just forgotten.
        """
        pack = self._packs[number]
        if pack is None:
            return {}
        faults.checkpoint("adapter.entity.read", path=str(pack.path))
        found: dict[int, Record] = {}
        try:
            with open(pack.path, "rb", buffering=0) as handle:
                for row in pack.records[sorted(rows)].tolist():
                    raw = bytearray(row[2])
                    handle.seek(pack.base + row[1])
                    if handle.readinto(raw) != len(raw):
                        raise ValueError(f"truncated entity pack: {pack.path.name}")
                    found[row[0]] = _decode_record(pack, row, raw)
        except FileNotFoundError:
            self._drop(number)
            return {}
        except (OSError, *_DAMAGE):
            self._drop(number)
            _discard(pack.path)
            faults.mark_recovered("adapter.entity.read", path=str(pack.path))
            return {}
        return found

    # ------------------------------------------------------------ write

    def _publish(self, records: dict[int, Record]) -> None:
        """Write ``records`` as one pack and index it.

        The write mirrors every other atomic seam: stream into an open
        mkstemp descriptor, rename into place, retry transient failures
        with a fresh temp file (:func:`repro.faults.io_retry`).
        """
        disk = self._disk_dir()
        if disk is None or not records:
            return
        import tempfile

        chunks, pack = _encode_pack(records)
        digest = hashlib.blake2b(pack.records["key"].tobytes(), digest_size=8)
        stem = f"{os.getpid():x}-{next(self._serial):x}-{digest.hexdigest()}"
        pack.path = disk / f"{stem}{_SUFFIX}"
        disk.mkdir(parents=True, exist_ok=True)

        def _write() -> None:
            fd, tmp_name = tempfile.mkstemp(dir=disk, suffix=".tmp", prefix=stem)
            try:
                with os.fdopen(fd, "wb") as handle:
                    faults.checkpoint(
                        "adapter.entity.store.write", path=str(pack.path)
                    )
                    for chunk in chunks:
                        handle.write(chunk)
                faults.checkpoint(
                    "adapter.entity.store.replace", path=str(pack.path)
                )
                os.replace(tmp_name, pack.path)
            finally:
                if os.path.exists(tmp_name):
                    os.unlink(tmp_name)

        faults.io_retry(_write, "adapter.entity.store")
        telemetry.counter("adapter.entity_cache.disk.packs_written").inc()
        telemetry.counter("adapter.entity_cache.disk.records_written").inc(
            len(records)
        )
        with self._lock:
            if disk != self._dir:
                self._reset_index(disk)
            self._add(pack)


def _discard(path: Path) -> None:
    """Count a damaged pack and unlink it so nothing re-reads it."""
    telemetry.counter("adapter.entity_cache.disk.corrupt").inc()
    try:
        os.unlink(path)
    except OSError:
        pass  # Already unlinked by another reader.


class PackWriter:
    """The records one transform call computes, published as one pack.

    ``save`` puts a record in the store's memory tier at once and
    buffers it; :meth:`close` (or leaving the ``with`` block normally)
    writes the buffer as a single pack. A call that computed nothing
    new writes nothing, and a call that raised writes nothing either:
    its records stay in memory and are recomputed elsewhere if needed.
    """

    def __init__(self, store: EntityStore) -> None:
        self._store = store
        self._pending: dict[int, Record] = {}

    def load_many(self, keys: Iterable[int]) -> dict[int, Record]:
        """Like :meth:`EntityStore.load_many`, seeing this call's records."""
        return self._store.load_many(keys, self._pending)

    def save(self, key: int, arrays: Record) -> None:
        """Keep ``arrays`` under ``key``: in memory now, on disk at close."""
        self._store._keep(key, arrays)
        self._pending[key] = arrays

    def close(self) -> None:
        """Publish the buffered records as one pack (none if empty)."""
        pending, self._pending = self._pending, {}
        self._store._publish(pending)

    def __enter__(self) -> "PackWriter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()


_STORE = EntityStore()


def entity_store() -> EntityStore:
    """The process-wide store instance."""
    return _STORE


def clear_entity_store() -> None:
    """Rebind a fresh store (fresh workers, tests; FORK001-visible)."""
    global _STORE
    _STORE = EntityStore()
