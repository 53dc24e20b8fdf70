"""Resumable campaign checkpoints.

A checkpoint directory makes an interrupted campaign cheap to finish: every completed
shard is persisted immediately as a columnar fragment (atomic write, deterministic
bytes -- see :mod:`repro.io.columnar`), and a manifest pins the exact shard plan the
fragments belong to.  Because writes are atomic, a killed campaign leaves only
complete fragments; resuming re-evaluates exactly the missing shards and the merged
result is byte-identical to an uninterrupted run.

Layout::

    <directory>/
        manifest.json        the serialized CampaignPlan
        health.json          retry / quarantine / repair history (optional)
        shard_00000.col      rows of shard 0 (value/code columns, checksummed)
        shard_00001.col      ...

Fragments are columnar only: fixed-width value/code columns behind a checksummed
header, which the executors' merge concatenates without decoding a row.  Every
manifest records ``"fragment_format": "columnar"``; a manifest without it belongs
to a JSON-fragment checkpoint of an earlier release and is refused with a
:class:`~repro.core.errors.SerializationError` (finish such a run with that
release, or start a fresh directory).  JSON remains the interchange and export
format of final caches (:mod:`repro.io.cachefile`).

The store is deliberately dumb: it knows nothing about executors or kernel models,
only about plans, shards and rows.  Validation is strict -- a manifest that does not
match the plan being run, or a fragment whose shape disagrees with its shard, raises
:class:`~repro.core.errors.SerializationError` instead of silently merging wrong
data; a fragment whose *bytes* are damaged (truncated, bit-flipped, checksum-stale)
raises the :class:`~repro.core.errors.FragmentIntegrityError` subclass, which the
executors treat as "discard and re-execute".  :meth:`CheckpointStore.verify_fragments`
is the offline form of that check (the ``doctor`` CLI subcommand); it also reports
stale ``*.tmp`` siblings that a SIGKILL between ``os.open`` and ``os.replace`` can
leave behind (never read by anything, but litter worth sweeping -- ``doctor --fix``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.errors import SerializationError
from repro.exec.planner import CampaignPlan, Shard
from repro.io.cachefile import (
    FRAGMENT_FORMAT,
    atomic_write_json,
    load_manifest,
    read_json,
    save_manifest,
)
from repro.io.columnar import (
    decode_failure_strings,
    failure_slots,
    fragment_columns,
    load_columnar_fragment_columns,
    save_columnar_fragment_columns,
)

__all__ = ["CheckpointStore", "benchmark_fingerprint"]

#: Manifest file name inside a checkpoint directory.
MANIFEST_NAME = "manifest.json"

#: Execution-health record (retries, quarantines, repairs) inside a checkpoint
#: directory; written by the executors, read by ``status``.
HEALTH_NAME = "health.json"

#: Format identifier written into every health record.
HEALTH_VERSION = 1


def benchmark_fingerprint(benchmark: Any) -> str:
    """Digest of a benchmark's search space + workload.

    Fragments are only meaningful against the exact space (index decoding) and
    workload (model inputs) they were evaluated with; this digest is what manifests
    record to detect divergence on resume.
    """
    payload = {"space": benchmark.space.to_dict(),
               "workload": dict(benchmark.workload.sizes)}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class CheckpointStore:
    """Fragment + manifest persistence for one campaign run.

    Parameters
    ----------
    directory:
        Checkpoint directory (created on first write).
    fragment_format:
        Accepted for callers that name the format; fragments are columnar only,
        so any value but ``"columnar"`` raises :class:`ValueError`.
    """

    def __init__(self, directory: str | Path,
                 fragment_format: str = FRAGMENT_FORMAT):
        if fragment_format != FRAGMENT_FORMAT:
            raise ValueError(
                f"checkpoint fragments are {FRAGMENT_FORMAT!r} only, got "
                f"fragment_format={fragment_format!r}")
        self.directory = Path(directory)

    # ------------------------------------------------------------------- manifest

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def has_manifest(self) -> bool:
        return self.manifest_path.exists()

    def load_plan(self) -> CampaignPlan:
        """The plan this checkpoint directory belongs to."""
        return CampaignPlan.from_dict(load_manifest(self.manifest_path)["plan"])

    def initialize(self, plan: CampaignPlan,
                   fingerprints: Mapping[str, str] | None = None) -> None:
        """Bind the directory to ``plan``: write the manifest or validate a match.

        A directory already bound to a *different* plan is refused -- merging
        fragments of one campaign into another would corrupt both.  Likewise a
        benchmark whose space/workload fingerprint differs from the recorded one:
        its fragments carry rows evaluated against a different definition, and
        merging them would silently attach measurements to the wrong
        configurations.
        """
        if self.has_manifest():
            existing = load_manifest(self.manifest_path)
            if existing["plan"] != plan.to_dict():
                raise SerializationError(
                    f"checkpoint directory {self.directory} belongs to a different "
                    f"campaign plan; use a fresh directory (or `resume` to continue "
                    f"the existing one)")
            stored = existing["fingerprints"]
            if stored and fingerprints is not None:
                diverged = [name for name, digest in fingerprints.items()
                            if name in stored and stored[name] != digest]
                if diverged:
                    raise SerializationError(
                        f"checkpoint directory {self.directory} was written with "
                        f"different definitions of {sorted(diverged)} (space or "
                        f"workload changed); its fragments cannot be merged with "
                        f"the current benchmarks")
            return
        save_manifest(self.manifest_path, plan.to_dict(), fingerprints)

    # ------------------------------------------------------------------ fragments

    def fragment_path(self, shard: Shard) -> Path:
        return self.directory / shard.fragment_name

    def completed_shard_ids(self, plan: CampaignPlan) -> set[int]:
        """IDs of plan shards whose fragment is present on disk.

        Stale ``*.tmp`` siblings of interrupted writes never count: only the
        final fragment name marks completion.
        """
        return {s.shard_id for s in plan.shards if self.fragment_path(s).exists()}

    def save_shard(self, shard: Shard,
                   rows: Sequence[tuple[float, bool, str]]) -> Path:
        """Row view of :meth:`save_shard_columns` over ``(value, valid, error)`` rows."""
        return self.save_shard_columns(shard, *fragment_columns(rows))

    def save_shard_columns(self, shard: Shard, values: Any, codes: Any,
                           errors: Sequence[str]) -> Path:
        """Atomically persist one completed shard's ``(values, codes, errors)``
        columns; the mirror of :meth:`load_shard_columns`."""
        if len(values) != shard.n_configs:
            raise SerializationError(
                f"shard {shard.shard_id} produced {len(values)} rows, "
                f"expected {shard.n_configs}")
        return save_columnar_fragment_columns(self.fragment_path(shard),
                                              shard.to_dict(), values, codes, errors)

    def load_shard(self, shard: Shard) -> list[tuple[float, bool, str]]:
        """Load and validate the ``(value, valid, error)`` rows of one shard."""
        values, codes, errors = self.load_shard_columns(shard)
        valid, messages = decode_failure_strings(codes, errors)
        return list(zip(values.tolist(), valid.tolist(), messages))

    def load_shard_columns(self, shard: Shard) -> tuple[Any, Any, list[str]]:
        """Load and validate one shard as raw ``(values, codes, errors)`` columns.

        The no-decode form the executors' merge concatenates
        (:func:`repro.io.columnar.concat_fragment_columns`).  A fragment whose
        header describes another shard, or whose row count disagrees with it,
        raises :class:`SerializationError`; one whose failure codes point
        outside its own error table raises the
        :class:`~repro.core.errors.FragmentIntegrityError` subclass.
        """
        path = self.fragment_path(shard)
        meta, values, codes, errors = load_columnar_fragment_columns(path)
        if (meta.get("shard_id") != shard.shard_id
                or meta.get("benchmark") != shard.benchmark
                or meta.get("gpu") != shard.gpu
                or meta.get("start") != shard.start
                or meta.get("stop") != shard.stop):
            raise SerializationError(
                f"fragment {path} describes shard {dict(meta)}, expected "
                f"{shard.to_dict()}")
        if values.size != shard.n_configs:
            raise SerializationError(
                f"fragment {path} has {values.size} rows, expected "
                f"{shard.n_configs}")
        failure_slots(codes, errors)
        return values, codes, errors

    def verify_fragments(self, plan: CampaignPlan | None = None) -> dict[str, Any]:
        """Full integrity sweep of every fragment against the manifest (doctor).

        Each plan shard is classified ``ok`` (present, checksum and shape valid),
        ``missing`` (no fragment -- normal for an interrupted campaign), or
        ``damaged`` (present but unreadable, checksum-stale, or describing the
        wrong shard).  Damaged fragments are exactly what ``resume`` re-executes.
        The result also lists ``stale_tmp``: leftover ``*.tmp`` siblings of
        writes that were SIGKILLed between ``os.open`` and ``os.replace`` --
        never read by anything, but litter that accumulates until swept
        (``doctor --fix`` / :meth:`sweep_stale_tmp`).
        """
        if plan is None:
            plan = self.load_plan()
        ok: list[int] = []
        missing: list[int] = []
        damaged: list[dict[str, Any]] = []
        for shard in plan.shards:
            path = self.fragment_path(shard)
            if not path.exists():
                missing.append(shard.shard_id)
                continue
            try:
                self.load_shard_columns(shard)
            except SerializationError as exc:
                damaged.append({"shard_id": shard.shard_id,
                                "benchmark": shard.benchmark, "gpu": shard.gpu,
                                "path": str(path), "error": str(exc)})
            else:
                ok.append(shard.shard_id)
        return {"ok": ok, "missing": missing, "damaged": damaged,
                "shards_total": len(plan.shards),
                "stale_tmp": [str(p) for p in self.stale_tmp_files()]}

    def stale_tmp_files(self) -> list[Path]:
        """Leftover ``*.tmp`` siblings of interrupted atomic writes (sorted)."""
        if not self.directory.is_dir():
            return []
        return sorted(p for p in self.directory.glob("*.tmp") if p.is_file())

    def sweep_stale_tmp(self) -> list[Path]:
        """Remove every stale ``*.tmp`` file; returns the paths removed."""
        swept = self.stale_tmp_files()
        for path in swept:
            path.unlink(missing_ok=True)
        return swept

    # --------------------------------------------------------------------- health

    @property
    def health_path(self) -> Path:
        return self.directory / HEALTH_NAME

    def has_health(self) -> bool:
        return self.health_path.exists()

    def load_health(self) -> dict[str, Any]:
        """Retry/quarantine/repair history of this checkpoint directory.

        Returns ``{"retries": {shard_id: count}, "quarantined": [records],
        "repaired": [shard_ids]}`` -- all empty when no health record exists.
        """
        if not self.has_health():
            return {"retries": {}, "quarantined": [], "repaired": []}
        payload = read_json(self.health_path)
        retries = {int(shard_id): int(count)
                   for shard_id, count in payload.get("retries", {}).items()}
        return {"retries": retries,
                "quarantined": list(payload.get("quarantined", [])),
                "repaired": [int(s) for s in payload.get("repaired", [])]}

    def record_health(self, retries: Mapping[int, int],
                      quarantined: Sequence[Mapping[str, Any]],
                      repaired: Sequence[int]) -> Path:
        """Merge one run's retry/quarantine/repair outcome into ``health.json``.

        Retry counts accumulate across sessions; quarantine records from earlier
        sessions survive only while their shard still lacks a fragment (a later
        resume that completes the shard clears it) and are replaced by this run's
        record for the same shard.
        """
        previous = self.load_health()
        merged_retries = {str(shard_id): count
                          for shard_id, count in previous["retries"].items()}
        for shard_id, count in retries.items():
            key = str(shard_id)
            merged_retries[key] = merged_retries.get(key, 0) + int(count)
        current_ids = {record["shard_id"] for record in quarantined}
        kept = [record for record in previous["quarantined"]
                if record["shard_id"] not in current_ids
                and not (self.directory / record.get("fragment", "")).exists()]
        payload = {"health_version": HEALTH_VERSION,
                   "retries": merged_retries,
                   "quarantined": kept + [dict(r) for r in quarantined],
                   "repaired": sorted(set(previous["repaired"]) | set(repaired))}
        return atomic_write_json(payload, self.health_path)

    # --------------------------------------------------------------------- status

    def status(self, plan: CampaignPlan | None = None) -> dict[str, object]:
        """Completion summary of the checkpoint directory.

        Returns per-unit completed/total shard and config counts (with percentages)
        plus campaign totals; retry/quarantine/repair counts from the health
        record; and -- when at least two fragments exist -- a timing estimate
        derived from the fragment files' modification times: *active* elapsed
        wall-clock, the implied configs-per-second throughput, and the ETA for the
        remaining configs at that rate.  Fragment mtimes are clustered into
        sessions (a gap above ``max(60, 10 x median gap)`` seconds starts a new
        one) so an interrupted-then-resumed campaign does not dilute its rate with
        the hours the run sat dead on disk.  Used by the ``status`` CLI subcommand
        and by tests.
        """
        if plan is None:
            plan = self.load_plan()
        done = self.completed_shard_ids(plan)
        units = []
        for unit in plan.units:
            shards = plan.shards_of(unit)
            completed = [s for s in shards if s.shard_id in done]
            configs_completed = sum(s.n_configs for s in completed)
            units.append({
                "benchmark": unit.benchmark, "gpu": unit.gpu,
                "shards_completed": len(completed), "shards_total": len(shards),
                "configs_completed": configs_completed,
                "configs_total": unit.n_configs,
                "percent": round(100.0 * configs_completed / unit.n_configs, 1)
                           if unit.n_configs else 100.0,
            })
        configs_completed = sum(u["configs_completed"] for u in units)
        configs_total = sum(u["configs_total"] for u in units)
        status: dict[str, object] = {
            "directory": str(self.directory),
            "shards_completed": len(done),
            "shards_total": len(plan.shards),
            "configs_completed": configs_completed,
            "configs_total": configs_total,
            "percent": round(100.0 * configs_completed / configs_total, 1)
                       if configs_total else 100.0,
        }
        health = self.load_health()
        status["retry_attempts"] = sum(health["retries"].values())
        status["retried_shards"] = len(health["retries"])
        status["quarantined_shards"] = len(health["quarantined"])
        if health["quarantined"]:
            status["quarantined"] = health["quarantined"]
        status["repaired_shards"] = len(health["repaired"])
        timed = [(self.fragment_path(s).stat().st_mtime, s.n_configs)
                 for s in plan.shards if s.shard_id in done]
        if len(timed) >= 2:
            timed.sort()
            gaps = [later[0] - earlier[0] for earlier, later in zip(timed, timed[1:])]
            positive = sorted(gap for gap in gaps if gap > 0)
            median = positive[len(positive) // 2] if positive else 0.0
            session_gap = max(60.0, 10.0 * median)
            # A fragment's mtime marks the *end* of its shard, so each intra-session
            # gap covers exactly the configs of its later fragment; gaps above the
            # session threshold are dead time between runs and count toward neither
            # the elapsed wall-clock nor the throughput.
            active = 0.0
            counted = 0
            for gap, (_, n_configs) in zip(gaps, timed[1:]):
                if gap > session_gap:
                    continue
                active += gap
                counted += n_configs
            status["sessions"] = 1 + sum(1 for gap in gaps if gap > session_gap)
            if counted > 0 and active > 0:
                rate = counted / active
                status["elapsed_s"] = round(active, 3)
                status["configs_per_s"] = round(rate, 1)
                if configs_total > configs_completed:
                    status["eta_s"] = round(
                        (configs_total - configs_completed) / rate, 3)
        status["units"] = units
        return status
