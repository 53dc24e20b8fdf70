"""Campaign cache files.

A cache file stores one :class:`~repro.core.cache.EvaluationCache` -- the measured
runtimes of one benchmark on one GPU -- as JSON, optionally gzip-compressed (the
``.json.gz`` suffix selects compression automatically).  The format is deliberately
self-describing: it embeds the search-space definition, so a cache file can be analysed
without the originating benchmark object.  String-expression constraints round-trip;
callable constraints cannot (only their name is serialized) and are dropped with an
explicit :class:`~repro.core.constraints.ConstraintSerializationWarning` on load unless
a live ``space=`` is supplied.

Exports are streamed and byte-pinned: :func:`save_cache` renders the text of
``json.dumps({"format_version": 1, "cache": cache.to_dict()})`` straight from the
cache's columns in row chunks (:meth:`~repro.core.cache.EvaluationCache.iter_json`)
and feeds them through one gzip writer, so no payload dict, whole string or
in-memory gzip buffer is built, yet the file holds exactly those bytes.
:func:`load_cache` reads such a file back as that method's inverse
(:meth:`~repro.core.cache.EvaluationCache.from_json_text`): the text is read once
(shared with :func:`read_json`) and the rows are matched against the writer's own
fragments, so a campaign export is never parsed as generic JSON.  Any other
cache file is parsed with :func:`json.loads` and loaded one row at a time.

The module also provides the low-level persistence primitives the campaign-execution
subsystem (:mod:`repro.exec`) builds on:

* **atomic writes** -- :func:`atomic_write_chunks`, the one writer every file goes
  through (JSON exports, :func:`atomic_write_json`, result files, columnar files),
  streams into a temporary sibling and moves it into place with :func:`os.replace`,
  so readers never observe a torn file and an interrupted campaign leaves either a
  complete fragment or none; a failed write removes the sibling;
* **deterministic bytes** -- gzip members are written at level 9 with ``mtime=0``
  and no file name, so the same cache always produces the same compressed bytes
  (the byte-identity contract between serial and parallel execution extends to the
  files on disk);
* **manifests** (:func:`save_manifest` / :func:`load_manifest`) -- the serialized
  shard plan a checkpoint directory belongs to.

Checkpoint *fragments* -- the rows of one completed shard -- are columnar files
(:func:`repro.io.columnar.save_columnar_fragment`); JSON is the interchange and
export format of final caches only.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import uuid
import zlib
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.cache import EvaluationCache
from repro.core.errors import SerializationError
from repro.core.searchspace import SearchSpace

__all__ = [
    "save_cache", "load_cache",
    "save_manifest", "load_manifest",
    "atomic_write_chunks", "atomic_write_json", "read_json",
]

#: Format identifier written into every cache file.
FORMAT_VERSION = 1

#: Format identifier written into every checkpoint manifest.
MANIFEST_VERSION = 1

#: Fragment format recorded in every checkpoint manifest (the only one).
FRAGMENT_FORMAT = "columnar"


# ------------------------------------------------------------------ JSON primitives


def atomic_write_chunks(path: str | Path, chunks: Iterable[bytes],
                        compress: bool) -> Path:
    """Stream ``chunks`` into ``path`` atomically, gzip-compressed if ``compress``.

    The bytes land in a temporary sibling first and are moved into place with
    :func:`os.replace`, so a concurrent reader (or a crash) can never observe a
    partially written file.  Parent directories are created as needed.  The gzip
    member is written at level 9 with ``mtime=0`` and no file name, so the file
    is a pure function of the chunks.  ``chunks`` is consumed lazily: a
    ``TypeError``/``ValueError`` raised while producing one (a value
    :func:`json.dumps` refuses) becomes a
    :class:`~repro.core.errors.SerializationError`, and on any failure the
    temporary sibling is removed and an existing ``path`` is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # repro: allow[RPL001] tmp-file names are non-semantic (never persisted, never
    # hashed); entropy here only avoids collisions between concurrent writers
    tmp_name = str(path.parent / f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        # O_CREAT with mode 0o666 lets the kernel apply the caller's umask
        # atomically (mkstemp's 0600 would make shared cache directories
        # unreadable to teammates, and probing the umask is a process-global race).
        # repro: allow[RPL003] this IS the atomic-write implementation every other
        # write goes through (tmp sibling + os.replace)
        fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        with os.fdopen(fd, "wb") as handle:
            sink = (gzip.GzipFile(filename="", mode="wb", compresslevel=9,
                                  fileobj=handle, mtime=0)
                    if compress else contextlib.nullcontext(handle))
            with sink as stream:
                for chunk in chunks:
                    stream.write(chunk)
        os.replace(tmp_name, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(exc, (TypeError, ValueError)):
            raise SerializationError(
                f"could not serialize payload for {path}: {exc}") from exc
        if isinstance(exc, OSError):
            raise SerializationError(f"could not write {path}: {exc}") from exc
        raise
    return path


def atomic_write_json(payload: Any, path: str | Path) -> Path:
    """Write ``payload`` as JSON to ``path`` atomically (gzip when it ends in ``.gz``).

    A one-chunk call of :func:`atomic_write_chunks`: same atomicity, same
    deterministic gzip bytes, and a payload :func:`json.dumps` refuses raises
    :class:`~repro.core.errors.SerializationError` without leaving a file.
    """
    path = Path(path)
    return atomic_write_chunks(path, map(str.encode, map(json.dumps, (payload,))),
                               compress=path.suffix == ".gz")


#: First two bytes of every gzip member (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def _read_text(path: Path) -> str:
    """The text of a JSON file, read once and gunzipped when it is gzip.

    Compression is detected by content (the gzip magic ``1f 8b``), not by
    suffix; a ``.gz`` file that is not gzip, a truncated or corrupt gzip stream
    and bytes that are not UTF-8 raise :class:`SerializationError`.
    """
    try:
        data = path.read_bytes()
        gzipped = data[:len(_GZIP_MAGIC)] == _GZIP_MAGIC
        if path.suffix.lower() == ".gz" and not gzipped:
            raise SerializationError(
                f"{path} has a .gz suffix but does not start with the gzip "
                f"magic bytes (found {data[:len(_GZIP_MAGIC)]!r}); the file is "
                f"mislabelled or was damaged on disk")
        if gzipped:
            data = gzip.decompress(data)
        return data.decode("utf-8")
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise SerializationError(f"could not read {path}: {exc}") from exc


def _parse_json(text: str, path: Path) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"could not read {path}: {exc}") from exc


def read_json(path: str | Path) -> Any:
    """Read a JSON payload written by :func:`atomic_write_json`.

    The file is read as text the way :func:`load_cache` reads it -- once, with
    gzip detected by its magic bytes, so a gzipped file with a wrong or
    odd-cased extension still reads -- and parsed with :func:`json.loads`.  A
    damaged file (see :func:`_read_text`) or text that is not JSON raises
    :class:`SerializationError`.
    """
    path = Path(path)
    return _parse_json(_read_text(path), path)


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


#: The text :func:`save_cache` writes around a cache's JSON text.
_CACHE_ENVELOPE = (f'{{"format_version": {FORMAT_VERSION}, "cache": ', "}")


def save_cache(cache: EvaluationCache, path: str | Path) -> Path:
    """Write a campaign cache to ``path`` (gzip-compressed when it ends in ``.gz``).

    The file holds exactly the bytes of ``json.dumps({"format_version": 1,
    "cache": cache.to_dict()})`` (gzipped as :func:`atomic_write_chunks` does),
    but the text is streamed from the cache's columns in row chunks
    (:meth:`~repro.core.cache.EvaluationCache.iter_json`), so no payload dict,
    whole string or in-memory gzip buffer is built.  The write is atomic and
    byte-deterministic.  Returns the path written.
    """
    path = Path(path)
    texts = chain([_CACHE_ENVELOPE[0]], cache.iter_json(), [_CACHE_ENVELOPE[1]])
    return atomic_write_chunks(path, map(str.encode, texts), compress=path.suffix == ".gz")


def load_cache(path: str | Path, space: SearchSpace | None = None) -> EvaluationCache:
    """Read a campaign cache written by :func:`save_cache`.

    The file is read once as text (gzip sniffed as :func:`read_json` does).
    Every campaign export -- the text :func:`save_cache` writes for a cache
    without override rows -- is read back against the writer's own fragments
    (:meth:`~repro.core.cache.EvaluationCache.from_json_text`) into adopted
    columns, with no generic JSON parse of the rows.  Any other file (a
    re-added config, foreign rows, ``1.0`` or ``true`` where the space holds
    ``1``, other whitespace or key order) is parsed with :func:`json.loads` and
    stored one row at a time
    (:meth:`~repro.core.cache.EvaluationCache.from_dict`).  Either way the
    loaded cache re-saves to the same bytes.  A damaged file, the wrong format
    version, a payload that is not a cache, a malformed row or a config outside
    the space raises :class:`SerializationError` naming the file (and the row).

    Parameters
    ----------
    path:
        File to read (gzip detected by content; a ``.gz`` file must be gzip).
    space:
        Optional live search space to attach instead of the serialized one.  Supply it
        to keep callable constraints, which JSON cannot represent -- without it they
        are dropped with a
        :class:`~repro.core.constraints.ConstraintSerializationWarning`.
    """
    path = Path(path)
    text = _read_text(path)
    cache = EvaluationCache.from_json_text(text, space=space, envelope=_CACHE_ENVELOPE)
    if cache is not None:
        return cache
    payload = _expect_payload(_parse_json(text, path), path, "cache", "format_version",
                              FORMAT_VERSION)
    del text
    try:
        return EvaluationCache.from_dict(payload["cache"], space=space)
    except SerializationError as exc:
        raise SerializationError(f"{path}: {exc}") from None


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
