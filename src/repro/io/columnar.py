"""Binary columnar cache store: the performance format of the suite.

The JSON cache files of :mod:`repro.io.cachefile` are the *interchange* format --
self-describing, diffable, byte-deterministic -- but at production scale (hundreds of
scenario families x devices x millions of evaluations) parsing one observation
dictionary per row dominates load/merge/replay wall-clock.  This module provides the
*performance* format: fixed-width little-endian columns that memory-map straight into
NumPy arrays, so opening a campaign cache for replay costs one header parse plus an
``mmap`` -- no dict rehydration, no per-row Python -- and concurrent reader processes
share the physical pages through the OS page cache.

File layout
-----------

::

    offset 0   magic            b"REPROCOL" (8 bytes)
    offset 8   format version   uint32, little-endian
    offset 12  header length H  uint32, little-endian
    offset 16  header           H bytes of UTF-8 JSON (compact, sorted keys)
    ...        zero padding to the next multiple of 8
    ...        column data      each column at an 8-aligned offset, zero-padded

The header is self-describing: it carries the payload kind (``"cache"`` or
``"fragment"``), the row count, a SHA-256 digest over the (benchmark, gpu, space)
identity, the interned error-string table, and a column directory of
``{name, dtype, offset, nbytes, sha256}`` entries -- one checksum per column, so any
truncation or bit rot is caught at open time and raised as
:class:`~repro.core.errors.FragmentIntegrityError`.  Because every column is a
contiguous fixed-width block described only by the directory, the format is
append-friendly: growing a cache is re-emitting the directory over concatenated
column blocks, and merging shard fragments is a column concatenate in shard order
(see :func:`concat_fragment_columns`) -- no row decoding at all.

Columns
-------

``"cache"`` payloads carry three columns, aligned row-for-row with the cache's
insertion order (row position == ``evaluation_index``):

``index``   ``int64``    mixed-radix space index of the configuration
``value``   ``float64``  measured objective (``+inf`` is the failed-launch sentinel;
                         NaN and ``-inf`` are rejected: JSON exports could not
                         carry them)
``code``    ``int32``    failure code into the interned error-string table

``"fragment"`` payloads carry only ``value`` and ``code`` (a shard's space indices
are derivable from its plan slice).  The failure code packs validity and error
string into one integer: ``code >= 0`` means the row is invalid and its error is
``errors[code]``; ``code < 0`` means the row is valid with error
``errors[-code - 1]`` (normally the interned empty string).

Compatibility guarantee
-----------------------

Checkpoint fragments are columnar only: every shard a campaign completes lands as
a ``"fragment"`` payload (see :mod:`repro.exec.checkpoint`).  For final caches JSON
stays the interchange and export format and its bytes are untouched: a cache
round-tripped through the columnar store serializes to *byte-identical* JSON
(asserted by the differential suite in ``tests/test_columnar.py``), so every
existing consumer, golden file and byte-identity contract keeps working.  Columnar
caches are an opt-in performance format for exports (``--cache-format columnar``)
and replay opens.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import FragmentIntegrityError, SerializationError
from repro.io.cachefile import atomic_write_chunks

__all__ = [
    "COLUMNAR_MAGIC", "COLUMNAR_VERSION", "COLUMNAR_SUFFIX",
    "ColumnarPayload", "cache_digest",
    "write_columnar", "read_columnar", "peek_columnar_header",
    "encode_failure_codes", "failure_slots", "decode_failure_strings",
    "fragment_columns", "save_columnar_fragment_columns", "load_columnar_fragment_columns",
    "concat_fragment_columns",
]

#: First eight bytes of every columnar file.
COLUMNAR_MAGIC = b"REPROCOL"

#: Format identifier written into every columnar file.
COLUMNAR_VERSION = 1

#: Conventional file suffix of columnar caches and fragments.
COLUMNAR_SUFFIX = ".col"

#: Column name -> little-endian dtype string, per payload kind.
_CACHE_COLUMNS = (("index", "<i8"), ("value", "<f8"), ("code", "<i4"))
_FRAGMENT_COLUMNS = (("value", "<f8"), ("code", "<i4"))

_PREAMBLE = struct.Struct("<8sII")  # magic, version, header length


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def cache_digest(benchmark: str, gpu: str, space_dict: Mapping[str, Any]) -> str:
    """SHA-256 digest of a cache's (benchmark, gpu, space) identity.

    Recorded in every columnar cache header so a reader (or a worker sharing the
    file read-only) can cheaply tell whether two files describe the same campaign
    unit without comparing space dictionaries.
    """
    canonical = json.dumps({"benchmark": benchmark, "gpu": gpu,
                            "space": space_dict}, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- failure codes


def encode_failure_codes(valid: Sequence[bool], errors: Sequence[str]
                         ) -> tuple[np.ndarray, list[str]]:
    """Intern error strings and pack (valid, error) pairs into one int32 column.

    Returns the code column and the interned string table (first-occurrence
    order, so the encoding -- and therefore the file bytes -- is a pure function
    of the row sequence).
    """
    table = {error: slot for slot, error in enumerate(dict.fromkeys(errors))}
    n = len(errors)
    slots = np.fromiter(map(table.__getitem__, errors), dtype=np.int32, count=n)
    is_valid = np.fromiter(map(bool, valid), dtype=bool, count=n)
    return np.where(is_valid, -slots - 1, slots), list(table)


def failure_slots(codes: np.ndarray, table: Sequence[str]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(valid, slots)`` per row of a code column, each slot checked against
    the interned table (:class:`FragmentIntegrityError` when outside it)."""
    codes = np.asarray(codes, dtype=np.int32)
    valid = codes < 0
    slots = np.where(valid, -codes - 1, codes)
    if codes.size and (int(slots.max()) >= len(table) or int(slots.min()) < 0):
        raise FragmentIntegrityError(
            f"columnar failure codes reference error-string slots outside the "
            f"interned table of {len(table)} entries")
    return valid, slots


def decode_failure_strings(codes: np.ndarray, table: Sequence[str]
                           ) -> tuple[np.ndarray, list[str]]:
    """Inverse of :func:`encode_failure_codes`: ``(valid, errors)`` per row."""
    valid, slots = failure_slots(codes, table)
    table = list(table)
    return valid, [table[slot] for slot in slots.tolist()]


# --------------------------------------------------------------------- writing


def _column_bytes(name: str, dtype: str, array: np.ndarray) -> bytes:
    data = np.ascontiguousarray(array, dtype=np.dtype(dtype))
    if data.ndim != 1:
        raise SerializationError(f"columnar column {name!r} must be 1-D")
    return data.tobytes()


def write_columnar(path: str | Path, kind: str, meta: Mapping[str, Any],
                   columns: Mapping[str, np.ndarray],
                   errors: Sequence[str]) -> Path:
    """Atomically write one columnar payload (``kind`` in ``{"cache", "fragment"}``).

    ``meta`` supplies the kind-specific header fields (cache identity or shard
    description); the row count, error table and checksummed column directory are
    derived here.  The write is atomic
    (:func:`~repro.io.cachefile.atomic_write_chunks`: temporary sibling +
    :func:`os.replace`) and byte-deterministic: same rows, same bytes.
    """
    layout = dict(_CACHE_COLUMNS if kind == "cache" else _FRAGMENT_COLUMNS)
    if set(columns) != set(layout):
        raise SerializationError(
            f"columnar {kind} payload expects columns {sorted(layout)}, "
            f"got {sorted(columns)}")
    path = Path(path)
    sizes = {name: np.asarray(col).size for name, col in columns.items()}
    row_count = next(iter(sizes.values()))
    if any(size != row_count for size in sizes.values()):
        raise SerializationError(
            f"columnar columns disagree on row count: {sizes}")
    values = np.asarray(columns["value"], dtype=float)
    bad = values[np.isnan(values) | (values == -math.inf)]
    if bad.size:
        raise SerializationError(
            f"columnar rows may not contain {bad[0]!r} (only finite values or "
            f"+inf round-trip through {path})")

    blobs = {name: _column_bytes(name, dtype, columns[name])
             for name, dtype in layout.items()}
    # The directory is built twice: once with placeholder offsets to learn the
    # header's own length, once final.  Offsets depend on the header length,
    # which depends on the offsets' digit counts, so iterate to a fixed point.
    directory = [{"name": name, "dtype": dtype, "offset": 0,
                  "nbytes": len(blobs[name]),
                  "sha256": hashlib.sha256(blobs[name]).hexdigest()}
                 for name, dtype in layout.items()]
    header = {"kind": kind, "row_count": int(row_count),
              "errors": list(errors), "columns": directory}
    header.update({key: meta[key] for key in sorted(meta)})
    header_bytes = b""
    for _ in range(8):  # converges in <= 2 extra rounds (offset digit growth)
        # Insertion order, not sort_keys: the top-level keys are laid out
        # deterministically above, and nested meta dicts (cache metadata, space)
        # must keep their original key order so a round-tripped cache serializes
        # to JSON byte-identically.
        candidate = json.dumps(header,
                               separators=(",", ":")).encode("utf-8")
        offset = _align8(_PREAMBLE.size + len(candidate))
        changed = False
        for entry in directory:
            if entry["offset"] != offset:
                entry["offset"] = offset
                changed = True
            offset = _align8(offset + entry["nbytes"])
        if not changed and candidate == header_bytes:
            break
        header_bytes = candidate
    total = offset

    buffer = bytearray(total)
    buffer[:_PREAMBLE.size] = _PREAMBLE.pack(COLUMNAR_MAGIC, COLUMNAR_VERSION,
                                             len(header_bytes))
    buffer[_PREAMBLE.size:_PREAMBLE.size + len(header_bytes)] = header_bytes
    for entry in directory:
        start = entry["offset"]
        buffer[start:start + entry["nbytes"]] = blobs[entry["name"]]

    return atomic_write_chunks(path, (buffer,), compress=False)


# --------------------------------------------------------------------- reading


class ColumnarPayload:
    """One opened columnar file: parsed header plus zero-copy column arrays.

    ``columns`` maps column name to a read-only NumPy view.  With ``mmap=True``
    the views alias the memory-mapped file, so bytes are paged in on first
    access and shared between processes opening the same file.
    """

    __slots__ = ("path", "kind", "header", "columns", "errors", "row_count")

    def __init__(self, path: Path, header: Mapping[str, Any],
                 columns: Mapping[str, np.ndarray]):
        self.path = path
        self.header = dict(header)
        self.kind = header["kind"]
        self.columns = dict(columns)
        self.errors = list(header.get("errors", ()))
        self.row_count = int(header["row_count"])


def peek_columnar_header(path: str | Path) -> dict[str, Any]:
    """Parse a columnar file's header without verifying column checksums.

    Cheap metadata access (digest comparison, fault injection targeting a column's
    byte range); integrity still belongs to :func:`read_columnar`.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            preamble = handle.read(_PREAMBLE.size)
            if len(preamble) < _PREAMBLE.size:
                raise FragmentIntegrityError(
                    f"{path} is too short to be a columnar file "
                    f"({len(preamble)} bytes)")
            magic, version, header_length = _PREAMBLE.unpack(preamble)
            if magic != COLUMNAR_MAGIC:
                raise SerializationError(
                    f"{path} is not a columnar file (magic {magic!r})")
            if version != COLUMNAR_VERSION:
                raise SerializationError(
                    f"{path} has unsupported columnar format version {version} "
                    f"(expected {COLUMNAR_VERSION})")
            header_bytes = handle.read(header_length)
    except OSError as exc:
        raise SerializationError(f"could not read {path}: {exc}") from exc
    if len(header_bytes) < header_length:
        raise FragmentIntegrityError(
            f"{path} is truncated inside its header "
            f"({len(header_bytes)} of {header_length} bytes)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FragmentIntegrityError(
            f"{path} carries an undecodable columnar header: {exc}") from exc
    if not isinstance(header, dict) or "columns" not in header:
        raise FragmentIntegrityError(
            f"{path} columnar header is missing its column directory")
    return header


def read_columnar(path: str | Path, mmap: bool = True,
                  verify: bool = True) -> ColumnarPayload:
    """Open a columnar file written by :func:`write_columnar`.

    With ``mmap=True`` (default) the columns are zero-copy read-only views of the
    memory-mapped file; ``mmap=False`` reads the bytes into process memory
    instead (still read-only views).  ``verify=True`` checks every column's
    SHA-256 against the directory and the row count against the column shapes;
    any damage -- truncation, bit rot, tampered values -- raises
    :class:`~repro.core.errors.FragmentIntegrityError`.
    """
    path = Path(path)
    header = peek_columnar_header(path)
    try:
        if mmap:
            data = np.memmap(path, dtype=np.uint8, mode="r")
        else:
            data = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    except (OSError, ValueError) as exc:
        raise SerializationError(f"could not read {path}: {exc}") from exc

    expected = {"cache": _CACHE_COLUMNS, "fragment": _FRAGMENT_COLUMNS}.get(
        header.get("kind"))
    if expected is None:
        raise SerializationError(
            f"{path} carries unknown columnar payload kind {header.get('kind')!r}")
    directory = header["columns"]
    if [(e.get("name"), e.get("dtype")) for e in directory] != list(expected):
        raise FragmentIntegrityError(
            f"{path} column directory {directory!r} does not match the "
            f"{header['kind']} layout {expected}")

    row_count = int(header["row_count"])
    columns: dict[str, np.ndarray] = {}
    for entry in directory:
        start, nbytes = int(entry["offset"]), int(entry["nbytes"])
        blob = data[start:start + nbytes]
        if blob.size != nbytes:
            raise FragmentIntegrityError(
                f"{path} is truncated: column {entry['name']!r} needs bytes "
                f"[{start}, {start + nbytes}) but the file has {data.size}")
        if verify:
            actual = hashlib.sha256(blob.tobytes()).hexdigest()
            if actual != entry["sha256"]:
                raise FragmentIntegrityError(
                    f"{path} column {entry['name']!r} fails its checksum "
                    f"(stored {entry['sha256'][:12]}..., recomputed "
                    f"{actual[:12]}...); the file was altered on disk")
        column = blob.view(np.dtype(entry["dtype"]))
        if column.size != row_count:
            raise FragmentIntegrityError(
                f"{path} column {entry['name']!r} decodes to {column.size} rows, "
                f"header says {row_count}")
        column.flags.writeable = False
        columns[entry["name"]] = column
    if verify and header["kind"] == "cache":
        stated = header.get("digest")
        actual = cache_digest(header.get("benchmark", ""), header.get("gpu", ""),
                              header.get("space", {}))
        if stated != actual:
            raise FragmentIntegrityError(
                f"{path} cache identity digest is stale (stored "
                f"{str(stated)[:12]}..., recomputed {actual[:12]}...); its "
                f"header was altered on disk")
    return ColumnarPayload(path, header, columns)


# ----------------------------------------------------------- shard fragments


def fragment_columns(rows: Sequence[tuple[float, bool, str]]
                     ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``(values, codes, errors)`` columns of ``(value, valid, error)`` rows."""
    codes, errors = encode_failure_codes([valid for _, valid, _ in rows],
                                         [error for _, _, error in rows])
    return np.asarray([value for value, _, _ in rows], dtype=float), codes, errors


def save_columnar_fragment_columns(path: str | Path, shard: Mapping[str, Any],
                                   values: np.ndarray, codes: np.ndarray,
                                   errors: Sequence[str]) -> Path:
    """Atomically persist one shard's columns, the inverse of
    :func:`load_columnar_fragment_columns`.  The only non-finite value a row may
    carry is ``+inf`` (the failed-launch sentinel)."""
    return write_columnar(path, "fragment", {"shard": dict(shard)},
                          {"value": values, "code": codes}, errors)


def load_columnar_fragment_columns(path: str | Path, verify: bool = True
                                   ) -> tuple[dict[str, Any], np.ndarray,
                                              np.ndarray, list[str]]:
    """Raw ``(shard, values, codes, errors)`` of a columnar fragment.

    The no-decode form :func:`concat_fragment_columns` merges; rows never become
    Python tuples.
    """
    payload = read_columnar(path, mmap=False, verify=verify)
    if payload.kind != "fragment":
        raise SerializationError(
            f"{path} is a columnar {payload.kind} file, not a fragment")
    return (dict(payload.header.get("shard", {})), payload.columns["value"],
            payload.columns["code"], payload.errors)


def concat_fragment_columns(fragments: Sequence[tuple[np.ndarray, np.ndarray,
                                                      Sequence[str]]]
                            ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Merge fragment columns into unit columns: concatenate + error-table remap.

    ``fragments`` is the ``(values, codes, errors)`` of each shard *in evaluation
    order* (callers stable-sort by shard start offset -- completion order is
    irrelevant, which is what makes the merged bytes order-independent).  Error
    tables are re-interned in first-occurrence order across the concatenation,
    so the merged table -- and therefore the merged file -- is exactly what a
    serial single-shard run would have produced.
    """
    merged: dict[str, int] = {}
    value_parts: list[np.ndarray] = []
    code_parts: list[np.ndarray] = []
    for values, codes, errors in fragments:
        remap = np.empty(max(len(errors), 1), dtype=np.int32)
        for slot, error in enumerate(errors):
            target = merged.get(error)
            if target is None:
                target = merged[error] = len(merged)
            remap[slot] = target
        codes = np.asarray(codes, dtype=np.int32)
        valid = codes < 0
        slots = np.where(valid, -codes - 1, codes)
        remapped = remap[slots]
        code_parts.append(np.where(valid, -remapped - 1, remapped).astype(np.int32))
        value_parts.append(np.asarray(values, dtype=float))
    if not value_parts:
        return (np.empty(0, dtype=float), np.empty(0, dtype=np.int32), [])
    return (np.concatenate(value_parts), np.concatenate(code_parts), list(merged))
