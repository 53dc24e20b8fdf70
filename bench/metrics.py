"""The benchmark's metrics: what each one means, and how the traced run yields them.

``END_TO_END`` is what a user of the suite sees on every workload; a change that
worsens one by more than its bound (a share of the parent's median) is a
regression.  ``WORKLOAD_METRICS`` are the
workload-specific end-to-end figures the report also prints, by name and unit.
``PER_LAYER`` are the traced run's layer metrics, each named after the ``repro``
module it times, with the workload it is measured on and the end-to-end metric it
should move.  ``BENCHMARK.json`` lists the same names (a self-test checks it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from spans import Span, Tracer, self_times
from stats import percentile

__all__ = ["Metric", "LayerMetric", "END_TO_END", "RAW_TIMES", "WORKLOAD_METRICS",
           "PER_LAYER", "layer_metrics"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    workload: str
    moves: str  # the end-to-end metric this layer should move on ``workload``


#: ``setup_s`` and ``pass_s`` are seconds at the nominal host speed: wall seconds
#: times the host's mean speed meanwhile, measured by ``refclock``.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pass_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: Printed on every workload beside the end-to-end metrics; not gated: the
#: wall seconds behind ``setup_s`` and ``pass_s``, and the host speed that
#: relates them (1.0 is the nominal speed).
RAW_TIMES: tuple[Metric, ...] = (
    Metric("setup_wall_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("host_speed", "x", "higher"),
)

#: Printed per workload beside the end-to-end metrics; not gated.
WORKLOAD_METRICS: dict[str, tuple[Metric, ...]] = {
    "campaign": (Metric("configs_per_s", "configs/s", "higher"),
                 Metric("shard_ms_p50", "ms", "lower")),
    "replay": (Metric("open_s", "s", "lower"),
               Metric("tuner_evals_per_s", "evals/s", "higher"),
               Metric("tuner_run_ms_p50", "ms", "lower"),
               Metric("tuner_run_ms_p90", "ms", "lower"),
               Metric("figures_s", "s", "lower")),
    "learn": (Metric("pfi_report_s_p50", "s", "lower"),
              Metric("surrogate_run_s_p50", "s", "lower")),
}

_C, _R, _L = "campaign", "replay", "learn"
PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("searchspace.sample_us_per_config", "us/config", "lower", _C, "configs_per_s"),
    LayerMetric("searchspace.enumerate_us_per_config", "us/config", "lower", _C, "configs_per_s"),
    LayerMetric("searchspace.decode_us_per_config", "us/config", "lower", _C, "configs_per_s"),
    LayerMetric("perfmodel.eval_us_per_config", "us/config", "lower", _C, "configs_per_s"),
    LayerMetric("perfmodel.noise_us_per_config", "us/config", "lower", _C, "configs_per_s"),
    LayerMetric("perfmodel.valid_frac", "frac", "higher", _C, "configs_per_s"),
    LayerMetric("cache.add_us_per_row", "us/row", "lower", _C, "configs_per_s"),
    LayerMetric("exec.plan_s", "s", "lower", _C, "configs_per_s"),
    LayerMetric("exec.shard_s_p50", "s", "lower", _C, "configs_per_s"),
    LayerMetric("exec.shard_s_p80", "s", "lower", _C, "configs_per_s"),
    LayerMetric("exec.fragment_write_us_per_row", "us/row", "lower", _C, "configs_per_s"),
    LayerMetric("exec.fragment_bytes_per_row", "B/row", "lower", _C, "configs_per_s"),
    LayerMetric("io.json_save_us_per_row", "us/row", "lower", _C, "pass_s"),
    LayerMetric("io.json_bytes_per_row", "B/row", "lower", _C, "pass_s"),
    LayerMetric("exec.resume_us_per_row", "us/row", "lower", _R, "open_s"),
    LayerMetric("cache.attach_us_per_row", "us/row", "lower", _R, "open_s"),
    LayerMetric("io.json_load_us_per_row", "us/row", "lower", _R, "open_s"),
    LayerMetric("io.columnar_open_s", "s", "lower", _R, "open_s"),
    LayerMetric("cache.index_table_s", "s", "lower", _R, "open_s"),
    LayerMetric("cache.materialize_s", "s", "lower", _R, "figures_s"),
    *(LayerMetric(f"tuners.{name}.us_per_eval", "us/eval", "lower", _R, "tuner_run_ms_p50")
      for name in ("random", "grid", "local", "greedy_ils", "annealing", "genetic",
                   "diff_evo", "pso")),
    LayerMetric("tuners.failed_eval_frac", "frac", "lower", _R, "tuner_evals_per_s"),
    LayerMetric("graph.ffg_build_s", "s", "lower", _R, "figures_s"),
    LayerMetric("graph.pagerank_s", "s", "lower", _R, "figures_s"),
    LayerMetric("graph.centrality_s", "s", "lower", _R, "figures_s"),
    LayerMetric("graph.ffg_nodes", "count", "higher", _R, "figures_s"),
    LayerMetric("graph.ffg_edges", "count", "higher", _R, "figures_s"),
    LayerMetric("analysis.random_convergence_s", "s", "lower", _R, "figures_s"),
    LayerMetric("analysis.speedup_s", "s", "lower", _R, "figures_s"),
    LayerMetric("analysis.portability_s", "s", "lower", _R, "figures_s"),
    LayerMetric("analysis.portability_model_calls", "count", "lower", _R, "figures_s"),
    LayerMetric("ml.encode_s", "s", "lower", _L, "pfi_report_s_p50"),
    LayerMetric("ml.large_fit_s", "s", "lower", _L, "pfi_report_s_p50"),
    LayerMetric("ml.large_predict_us_per_row", "us/row", "lower", _L, "pfi_report_s_p50"),
    LayerMetric("ml.pfi_s", "s", "lower", _L, "pfi_report_s_p50"),
    LayerMetric("ml.small_fit_ms", "ms", "lower", _L, "surrogate_run_s_p50"),
    LayerMetric("ml.small_predict_us_per_row", "us/row", "lower", _L, "surrogate_run_s_p50"),
    LayerMetric("tuners.surrogate.us_per_eval", "us/eval", "lower", _L, "surrogate_run_s_p50"),
    LayerMetric("trace.overhead_frac", "frac", "lower", "all", "wall_s"),
)


class _PassSpans:
    """The spans of one traced pass, with their self times."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.own = self_times(spans)

    def named(self, name: str) -> list[Span]:
        found = [s for s in self.spans if s.name == name]
        if not found:
            raise KeyError(f"the traced pass recorded no {name!r} span")
        return found

    def seconds(self, name: str) -> float:
        """Self seconds of every ``name`` span in the pass."""
        return sum(self.own[s.span_id] for s in self.named(name))

    def us_per_item(self, name: str) -> float:
        return 1e6 * self.seconds(name) / sum(s.count for s in self.named(name))

    def bytes_per_item(self, name: str) -> float:
        spans = self.named(name)
        return sum(s.nbytes for s in spans) / sum(s.count for s in spans)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.named(name)]

    def unprobed_wall(self) -> float:
        """The pass's duration without the probe spans it contains."""
        root = next(s for s in self.spans if s.parent is None)
        return root.duration - sum(s.duration for s in self.spans if s.probe)


def layer_metrics(tracer: Tracer, trace_ids: dict[str, int],
                  untraced_wall_s: dict[str, float], facts: dict[str, Any]
                  ) -> dict[str, float]:
    """Every ``PER_LAYER`` value from the traced passes of the three workloads.

    ``trace_ids`` maps a workload to its traced pass; ``untraced_wall_s`` to the
    wall time of its untraced pass in the same run.  ``facts`` supplies the
    values that are outputs rather than timings (valid fraction, failed tuner
    evaluations, FFG size, Fig. 5 model calls).  ``_s`` metrics are seconds per
    pass, summed over the calls of the pass.
    """
    passes = {w: _PassSpans([s for s in tracer.spans if s.trace_id == t])
              for w, t in trace_ids.items()}
    c, r, learn = passes["campaign"], passes["replay"], passes["learn"]
    shards = c.durations("exec.shard")
    values = {
        "searchspace.sample_us_per_config": c.us_per_item("searchspace.sample"),
        "searchspace.enumerate_us_per_config": c.us_per_item("searchspace.enumerate"),
        "searchspace.decode_us_per_config": c.us_per_item("searchspace.decode"),
        "perfmodel.eval_us_per_config": c.us_per_item("perfmodel.eval"),
        "perfmodel.noise_us_per_config": c.us_per_item("perfmodel.noise"),
        "cache.add_us_per_row": c.us_per_item("cache.add"),
        "exec.plan_s": c.seconds("exec.plan"),
        "exec.shard_s_p50": percentile(shards, 50),
        "exec.shard_s_p80": percentile(shards, 80),
        "exec.fragment_write_us_per_row": c.us_per_item("exec.fragment_write"),
        "exec.fragment_bytes_per_row": c.bytes_per_item("exec.fragment_write"),
        "io.json_save_us_per_row": c.us_per_item("io.json_save"),
        "io.json_bytes_per_row": c.bytes_per_item("io.json_save"),
        "exec.resume_us_per_row": r.us_per_item("exec.resume"),
        "cache.attach_us_per_row": r.us_per_item("cache.attach"),
        "io.json_load_us_per_row": r.us_per_item("io.json_load"),
        "io.columnar_open_s": r.seconds("io.columnar_open"),
        "cache.index_table_s": r.seconds("cache.index_table"),
        "cache.materialize_s": r.seconds("cache.materialize"),
        "graph.ffg_build_s": r.seconds("graph.ffg_build"),
        "graph.pagerank_s": r.seconds("graph.pagerank"),
        "graph.centrality_s": r.seconds("graph.centrality"),
        "analysis.random_convergence_s": r.seconds("analysis.random_convergence"),
        "analysis.speedup_s": r.seconds("analysis.speedup"),
        "analysis.portability_s": r.seconds("analysis.portability"),
        "ml.encode_s": learn.seconds("ml.encode"),
        "ml.large_fit_s": learn.seconds("ml.large_fit"),
        "ml.large_predict_us_per_row": learn.us_per_item("ml.large_predict"),
        "ml.pfi_s": learn.seconds("ml.pfi"),
        "ml.small_fit_ms": 1e3 * learn.seconds("ml.small_fit")
                           / len(learn.named("ml.small_fit")),
        "ml.small_predict_us_per_row": learn.us_per_item("ml.small_predict"),
        "tuners.surrogate.us_per_eval": learn.us_per_item("tuners.surrogate"),
    }
    for metric in PER_LAYER:
        if metric.name.startswith("tuners.") and metric.name.endswith(".us_per_eval") \
                and metric.name not in values:
            values[metric.name] = r.us_per_item(metric.name[:-len(".us_per_eval")])
    traced = sum(p.unprobed_wall() for p in passes.values())
    untraced = sum(untraced_wall_s[w] for w in passes)
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    values.update(facts)
    missing = {m.name for m in PER_LAYER} - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {m.name: float(values[m.name]) for m in PER_LAYER}
