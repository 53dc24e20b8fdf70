"""Table VIII: search-space sizes (Cardinality / Constrained / Valid / Reduced / Reduce-Constrained).

Regenerates the reproduction's Table VIII from the parameter tables, the reconstructed
constraints, per-GPU launch validity and the feature-importance threshold of 0.05, and
compares the raw cardinalities against the paper's values (which must match exactly,
since they follow from Tables I--VII).
"""

from __future__ import annotations

from repro.analysis import report
from repro.analysis.spacesize import PAPER_TABLE8, space_size_table

from conftest import write_result

#: Exact constrained counts of the reconstructed constraints.
CONSTRAINED = {"gemm": 17_956, "nbody": 896, "pnpoly": 4_092, "convolution": 12_032,
               "expdist": 302_400, "hotspot": 2_106_000, "dedispersion": 19_138_560}


def test_table8_search_space_sizes(benchmark, benchmarks, gpus, importance_reports, caches):
    """The reproduced Table VIII, side by side with the paper's values."""

    def build():
        return space_size_table(benchmarks, gpus, importance_reports, caches=caches,
                                importance_threshold=0.05, enumeration_limit=200_000)

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    text = report.format_space_sizes(rows, include_paper=True)
    write_result("table8_space_sizes.txt", text)

    by_name = {row.benchmark: row for row in rows}
    assert set(by_name) == set(PAPER_TABLE8)

    for name, row in by_name.items():
        # Cardinalities are definitional and must match the paper exactly.
        assert row.cardinality == PAPER_TABLE8[name]["cardinality"], name
        # Constrained and reduced spaces never exceed the raw product.
        assert row.constrained <= row.cardinality
        assert row.reduced <= row.cardinality
        assert row.reduce_constrained <= row.reduced

    # The constrained counts are exact for every kernel.  GEMM's CLBlast constraints
    # reproduce the paper's count; Pnpoly has no constraints at all; the others
    # differ from the paper (see repro.analysis.spacesize).
    assert {name: row.constrained for name, row in by_name.items()} == CONSTRAINED
    assert by_name["gemm"].constrained == PAPER_TABLE8["gemm"]["constrained"]
    assert by_name["pnpoly"].constrained == by_name["pnpoly"].cardinality
    # The huge spaces report no exhaustive per-GPU validity, like the paper's "N/A".
    for name in ("hotspot", "dedispersion", "expdist"):
        assert by_name[name].valid_range is None
    # The importance-based reduction shrinks at least the biggest spaces.
    assert by_name["hotspot"].reduced < by_name["hotspot"].cardinality
    assert by_name["dedispersion"].reduced < by_name["dedispersion"].cardinality
