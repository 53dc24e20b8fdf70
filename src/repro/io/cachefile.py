"""Campaign cache files.

A cache file stores one :class:`~repro.core.cache.EvaluationCache` -- the measured
runtimes of one benchmark on one GPU -- as JSON, optionally gzip-compressed (the
``.json.gz`` suffix selects compression automatically).  The format is deliberately
self-describing: it embeds the search-space definition, so a cache file can be analysed
without the originating benchmark object.  String-expression constraints round-trip;
callable constraints cannot (only their name is serialized) and are dropped with an
explicit :class:`~repro.core.constraints.ConstraintSerializationWarning` on load unless
a live ``space=`` is supplied.

The module also provides the low-level persistence primitives the campaign-execution
subsystem (:mod:`repro.exec`) builds on:

* **atomic writes** -- every file is written to a temporary sibling and moved into
  place with :func:`os.replace`, so readers never observe a torn file and an
  interrupted campaign leaves either a complete fragment or none;
* **deterministic bytes** -- gzip members are written with ``mtime=0``, so the same
  cache always produces the same compressed bytes (the byte-identity contract between
  serial and parallel execution extends to the files on disk);
* **manifests** (:func:`save_manifest` / :func:`load_manifest`) -- the serialized
  shard plan a checkpoint directory belongs to.

Checkpoint *fragments* -- the rows of one completed shard -- are columnar files
(:func:`repro.io.columnar.save_columnar_fragment`); JSON is the interchange and
export format of final caches only.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import uuid
import zlib
from pathlib import Path
from typing import Any, Mapping

from repro.core.cache import EvaluationCache
from repro.core.errors import SerializationError
from repro.core.searchspace import SearchSpace

__all__ = [
    "save_cache", "load_cache",
    "save_manifest", "load_manifest",
    "atomic_write_json", "read_json",
]

#: Format identifier written into every cache file.
FORMAT_VERSION = 1

#: Format identifier written into every checkpoint manifest.
MANIFEST_VERSION = 1

#: Fragment format recorded in every checkpoint manifest (the only one).
FRAGMENT_FORMAT = "columnar"


# ------------------------------------------------------------------ JSON primitives


def _encode_json_bytes(payload: Any, compress: bool) -> bytes:
    text = json.dumps(payload)
    raw = text.encode("utf-8")
    if not compress:
        return raw
    buffer = io.BytesIO()
    # mtime=0 keeps the compressed bytes a pure function of the payload.
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
        handle.write(raw)
    return buffer.getvalue()


def atomic_write_json(payload: Any, path: str | Path) -> Path:
    """Write ``payload`` as JSON to ``path`` atomically (gzip when it ends in ``.gz``).

    The bytes land in a temporary sibling first and are moved into place with
    :func:`os.replace`, so a concurrent reader (or a crash) can never observe a
    partially written file.  Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        data = _encode_json_bytes(payload, compress=path.suffix == ".gz")
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"could not serialize payload for {path}: {exc}") from exc
    # O_CREAT with mode 0o666 lets the kernel apply the caller's umask atomically
    # (mkstemp's 0600 would make shared cache directories unreadable to teammates,
    # and probing the umask is a process-global race).
    # repro: allow[RPL001] tmp-file names are non-semantic (never persisted, never
    # hashed); entropy here only avoids collisions between concurrent writers
    tmp_name = str(path.parent / f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        # repro: allow[RPL003] this IS the atomic-write implementation every other
        # write goes through (tmp sibling + os.replace)
        fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except OSError as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise SerializationError(f"could not write {path}: {exc}") from exc
    return path


#: First two bytes of every gzip member (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def read_json(path: str | Path) -> Any:
    """Read a JSON payload written by :func:`atomic_write_json`.

    Compression is detected by content, not by suffix: the first two bytes are
    sniffed for the gzip magic (``1f 8b``), so a gzipped file with a wrong or
    odd-cased extension still reads correctly instead of dying with a misleading
    decode error.  A file whose ``.gz`` suffix *promises* gzip but whose bytes
    are not raises a :class:`SerializationError` naming the mismatch, and so
    does a damaged file: a truncated or corrupt gzip stream, bytes that are not
    UTF-8, or text that is not JSON.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(_GZIP_MAGIC))
        gzipped = magic == _GZIP_MAGIC
        if path.suffix.lower() == ".gz" and not gzipped:
            raise SerializationError(
                f"{path} has a .gz suffix but does not start with the gzip "
                f"magic bytes (found {magic!r}); the file is mislabelled or "
                f"was damaged on disk")
        if gzipped:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                return json.load(handle)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, EOFError, zlib.error, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise SerializationError(f"could not read {path}: {exc}") from exc


def _expect_payload(payload: Any, path: Path, key: str, version_key: str,
                    expected_version: int) -> Mapping[str, Any]:
    if not isinstance(payload, dict) or key not in payload:
        raise SerializationError(f"{path} is not a {key} file (missing {key!r} key)")
    version = payload.get(version_key)
    if version != expected_version:
        raise SerializationError(
            f"{path} has unsupported {key} format version {version!r} "
            f"(expected {expected_version})")
    return payload


# ---------------------------------------------------------------------- cache files


def save_cache(cache: EvaluationCache, path: str | Path) -> Path:
    """Write a campaign cache to ``path`` (gzip-compressed when it ends in ``.gz``).

    The write is atomic and byte-deterministic.  Returns the path written.
    """
    payload = {"format_version": FORMAT_VERSION, "cache": cache.to_dict()}
    return atomic_write_json(payload, path)


def load_cache(path: str | Path, space: SearchSpace | None = None) -> EvaluationCache:
    """Read a campaign cache written by :func:`save_cache`.

    A campaign-shaped file -- what :func:`save_cache` writes for an executor's
    cache: row ``i`` with ``evaluation_index == i``, the cache's gpu and
    benchmark, configs of exactly the space's parameters and value types, string
    errors, no repeated configuration -- loads straight into adopted index,
    value and failure-code columns (see
    :meth:`~repro.core.cache.EvaluationCache.from_dict`), so replays and the
    statistics readers never build one observation per row.  Any other file (a
    re-added config, foreign rows, ``1.0`` or ``true`` where the space holds
    ``1``) is stored one :class:`~repro.core.result.Observation` at a time,
    because the columns cannot represent it.  Either way the loaded cache
    re-saves to the same bytes.

    Parameters
    ----------
    path:
        File to read (gzip-compressed when it ends in ``.gz``).
    space:
        Optional live search space to attach instead of the serialized one.  Supply it
        to keep callable constraints, which JSON cannot represent -- without it they
        are dropped with a
        :class:`~repro.core.constraints.ConstraintSerializationWarning`.
    """
    path = Path(path)
    payload = _expect_payload(read_json(path), path, "cache", "format_version",
                              FORMAT_VERSION)
    return EvaluationCache.from_dict(payload["cache"], space=space)


# ----------------------------------------------------------------------- manifests


def save_manifest(path: str | Path, plan: Mapping[str, Any],
                  fingerprints: Mapping[str, str] | None = None) -> Path:
    """Atomically persist the shard plan a checkpoint directory belongs to.

    ``fingerprints`` (benchmark name -> digest of its space + workload) pins the
    exact benchmark definitions the fragments were evaluated against, so a resume
    with diverged definitions is refused instead of silently merging wrong rows.
    Every manifest records ``"fragment_format": "columnar"``, the only fragment
    format; :func:`load_manifest` refuses manifests without it.
    """
    payload = {"manifest_version": MANIFEST_VERSION, "plan": dict(plan),
               "fingerprints": dict(fingerprints or {}),
               "fragment_format": FRAGMENT_FORMAT}
    return atomic_write_json(payload, path)


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read a manifest written by :func:`save_manifest`.

    Returns a dict with ``"plan"`` (the serialized shard plan) and
    ``"fingerprints"`` (empty when the plan was bound without them).  A manifest that does not record the columnar fragment format
    belongs to a JSON-fragment checkpoint of an earlier release and raises
    :class:`SerializationError`: its fragments cannot be read here.
    """
    path = Path(path)
    payload = _expect_payload(read_json(path), path, "plan", "manifest_version",
                              MANIFEST_VERSION)
    if payload.get("fragment_format") != FRAGMENT_FORMAT:
        raise SerializationError(
            f"checkpoint directory {path.parent} holds JSON fragments written by "
            f"an earlier release, which this release cannot read; finish that run "
            f"with the previous release, or start a fresh checkpoint directory")
    return {"plan": dict(payload["plan"]),
            "fingerprints": dict(payload.get("fingerprints", {}))}
