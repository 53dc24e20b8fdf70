"""Tuning-result files.

Stores one or more :class:`~repro.core.result.TuningResult` objects (e.g. the 100
random-search repetitions of a convergence experiment) in a single JSON file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.core.result import TuningResult
from repro.io.cachefile import _expect_payload, atomic_write_json, read_json

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
    """Read tuning results written by :func:`save_results`.

    The file is read like every JSON file of the suite
    (:func:`~repro.io.cachefile.read_json`: gzip sniffed by content); a damaged
    file, text that is not JSON or a payload that is not a results file of
    this format version raises :class:`~repro.core.errors.SerializationError`
    naming the file.
    """
    path = Path(path)
    payload = _expect_payload(read_json(path), path, "results", "format_version",
                              FORMAT_VERSION)
    return [TuningResult.from_dict(d) for d in payload["results"]]
