"""Tuning-result files.

Stores one or more :class:`~repro.core.result.TuningResult` objects (e.g. the 100
random-search repetitions of a convergence experiment) in a single JSON file.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Sequence

from repro.core.errors import SerializationError
from repro.core.result import TuningResult
from repro.io.cachefile import atomic_write_json

__all__ = ["save_results", "load_results"]

#: Format identifier written into every results file.
FORMAT_VERSION = 1


def save_results(results: Sequence[TuningResult] | TuningResult, path: str | Path) -> Path:
    """Write tuning results to ``path`` (gzip-compressed when it ends in ``.gz``).

    The write is atomic and byte-deterministic, like every JSON file of the
    suite (:func:`~repro.io.cachefile.atomic_write_json`).
    """
    if isinstance(results, TuningResult):
        results = [results]
    payload = {
        "format_version": FORMAT_VERSION,
        "results": [r.to_dict() for r in results],
    }
    return atomic_write_json(payload, path)


def load_results(path: str | Path) -> list[TuningResult]:
    """Read tuning results written by :func:`save_results`."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"could not read results file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "results" not in payload:
        raise SerializationError(f"{path} is not a results file (missing 'results' key)")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"{path} has unsupported results format version {version!r} "
            f"(expected {FORMAT_VERSION})")
    return [TuningResult.from_dict(d) for d in payload["results"]]
