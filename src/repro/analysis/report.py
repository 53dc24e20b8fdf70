"""Plain-text rendering of the reproduced figures and tables.

The benchmark harness regenerates the paper's tables and figures as *numbers*; this
module turns those numbers into aligned plain-text tables and simple series listings so
that ``pytest benchmarks/ --benchmark-only`` output (and the example scripts) read like
the paper's evaluation section.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence


from repro.analysis.centrality_report import CentralityReport
from repro.analysis.convergence import ConvergenceCurve
from repro.analysis.distribution import DistributionSummary
from repro.analysis.importance import ImportanceReport
from repro.analysis.portability import PortabilityMatrix
from repro.analysis.speedup import SpeedupEntry
from repro.analysis.spacesize import SpaceSizeRow, PAPER_TABLE8

__all__ = [
    "format_table",
    "format_parameter_table",
    "format_distribution",
    "format_convergence",
    "format_centrality",
    "format_speedups",
    "format_portability",
    "format_importance",
    "format_space_sizes",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    rendered_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_parameter_table(benchmark_name: str, table: Sequence[Mapping[str, Any]],
                           paper_table: str = "") -> str:
    """Render a benchmark's tunable-parameter table (paper Tables I--VII)."""
    rows = []
    for entry in table:
        values = entry["values"]
        if len(values) > 8:
            value_text = "{" + ", ".join(str(v) for v in values[:4]) + ", ..., " + str(values[-1]) + "}"
        else:
            value_text = "{" + ", ".join(str(v) for v in values) + "}"
        rows.append((entry["parameter"], value_text, entry["count"]))
    title = f"Tunable parameters - {benchmark_name} ({paper_table})" if paper_table else \
        f"Tunable parameters - {benchmark_name}"
    return format_table(("Parameter", "Values", "#"), rows, title=title)


def format_distribution(summaries: Sequence[DistributionSummary]) -> str:
    """Render the Fig. 1 distribution summaries."""
    rows = []
    for s in summaries:
        rows.append((s.benchmark, s.gpu, s.num_configs, f"{s.best_ms:.3f}",
                     f"{s.median_ms:.3f}", f"{s.max_speedup_over_median:.2f}x",
                     f"{s.fraction_within_10pct_of_best * 100:.1f}%",
                     f"{s.skewness:+.2f}"))
    return format_table(
        ("Benchmark", "GPU", "Configs", "Best[ms]", "Median[ms]", "Max/Med", "Within10%", "Skew"),
        rows, title="Fig. 1 - performance distribution of configurations")


#: Relative-performance thresholds of the Fig. 2 evaluations-to-threshold table.
CONVERGENCE_THRESHOLDS: tuple[float, ...] = (0.8, 0.9, 0.95, 0.99)


def format_convergence(curves: Sequence[ConvergenceCurve]) -> str:
    """Render the Fig. 2 convergence study as evaluations-to-threshold."""
    headers = ["Benchmark", "GPU"] + [f"evals to {int(t*100)}%"
                                      for t in CONVERGENCE_THRESHOLDS]
    rows = []
    for c in curves:
        row = [c.benchmark, c.gpu]
        for t in CONVERGENCE_THRESHOLDS:
            needed = c.evaluations_to_reach(t)
            row.append(str(needed) if needed is not None else f">{c.budget}")
        rows.append(row)
    return format_table(headers, rows,
                        title="Fig. 2 - random-search convergence (median of repetitions)")


def format_centrality(reports: Mapping[tuple[str, str], CentralityReport]) -> str:
    """Render the Fig. 3 proportion-of-centrality study."""
    if not reports:
        return "Fig. 3 - no centrality reports"
    proportions = next(iter(reports.values())).proportions
    headers = ["Benchmark", "GPU", "Nodes", "Minima"] + [f"p={p:g}" for p in proportions]
    rows = []
    for (bench, gpu), report in sorted(reports.items()):
        rows.append([bench, gpu, report.num_nodes, report.num_minima]
                    + [f"{v:.3f}" for v in report.values])
    return format_table(headers, rows, title="Fig. 3 - proportion of centrality")


def format_speedups(entries: Sequence[SpeedupEntry]) -> str:
    """Render the Fig. 4 max-speedup-over-median study."""
    rows = [(e.benchmark, e.gpu, f"{e.median_ms:.3f}", f"{e.best_ms:.3f}", f"{e.speedup:.2f}x")
            for e in sorted(entries, key=lambda e: (e.benchmark, e.gpu))]
    return format_table(("Benchmark", "GPU", "Median[ms]", "Best[ms]", "Speedup"), rows,
                        title="Fig. 4 - max speedup over median configuration")


def format_portability(matrices: Mapping[str, PortabilityMatrix]) -> str:
    """Render the Fig. 5 performance-portability matrices."""
    blocks = []
    for name, matrix in matrices.items():
        headers = ["optimal on \\ run on"] + list(matrix.gpus)
        rows = []
        for i, src in enumerate(matrix.gpus):
            rows.append([src] + [f"{matrix.relative_performance[i, j] * 100:.1f}%"
                                 for j in range(len(matrix.gpus))])
        blocks.append(format_table(headers, rows,
                                   title=f"Fig. 5 - performance portability ({name})"))
    return "\n\n".join(blocks) if blocks else "Fig. 5 - no portability matrices"


def format_importance(reports: Mapping[tuple[str, str], ImportanceReport],
                      top_k: int = 5) -> str:
    """Render the Fig. 6 feature-importance study."""
    rows = []
    for (bench, gpu), report in sorted(reports.items()):
        top = ", ".join(f"{name}={value:.2f}" for name, value in report.ranked()[:top_k]
                        if value > 0.005)
        rows.append((bench, gpu, f"{report.r2:.4f}", f"{report.total_importance:.2f}", top))
    return format_table(("Benchmark", "GPU", "R^2", "Sum PFI", f"Top-{top_k} parameters"),
                        rows, title="Fig. 6 - permutation feature importance")


def format_space_sizes(rows: Sequence[SpaceSizeRow], include_paper: bool = True) -> str:
    """Render the reproduced Table VIII (optionally side by side with the paper's values)."""
    def fmt_valid(value):
        if value is None:
            return "N/A"
        lo, hi = value
        return f"{lo:,}" if lo == hi else f"{lo:,} - {hi:,}"

    table_rows = []
    for row in sorted(rows, key=lambda r: r.cardinality):
        cells = [row.benchmark, f"{row.cardinality:,}",
                 f"{row.constrained:,}",
                 fmt_valid(row.valid_range), f"{row.reduced:,}", f"{row.reduce_constrained:,}"]
        if include_paper:
            paper = PAPER_TABLE8.get(row.benchmark, {})
            ratio = row.constrained_ratio
            cells.append(f"{paper.get('constrained', 0):,}")
            cells.append("-" if ratio is None else f"{ratio:.3f}")
            cells.append(f"{paper.get('reduced', 0):,}")
        table_rows.append(cells)
    headers = ["Benchmark", "Cardinality", "Constrained", "Valid", "Reduced", "Reduce-Constr."]
    if include_paper:
        headers += ["Paper:Constr.", "Ours/Paper", "Paper:Reduced"]
    return format_table(headers, table_rows, title="Table VIII - search space sizes")
