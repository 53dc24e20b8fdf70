"""End-to-end integration tests: the full pipeline the paper's evaluation runs.

These tests execute a miniature version of the whole study -- campaign, every analysis,
tuner comparison -- and check the cross-module contracts rather than individual units.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import benchmark_suite, gpu_catalog
from repro.analysis import report
from repro.analysis.campaign import Campaign
from repro.analysis.centrality_report import centrality_study
from repro.analysis.convergence import random_search_convergence
from repro.analysis.distribution import distribution_summary
from repro.analysis.importance import importance_study
from repro.analysis.portability import portability_study
from repro.analysis.spacesize import space_size_table
from repro.analysis.speedup import speedup_study
from repro.core.runner import run_tuning
from repro.tuners import GeneticAlgorithm, RandomSearch


@pytest.fixture(scope="module")
def mini_study():
    """A two-benchmark, two-GPU miniature of the paper's full study."""
    benchmarks = {name: bm for name, bm in benchmark_suite().items()
                  if name in ("pnpoly", "hotspot")}
    gpus = {name: gpu for name, gpu in gpu_catalog().items()
            if name in ("RTX_3090", "RTX_Titan")}
    campaign = Campaign(benchmarks, gpus, sample_size=300, exhaustive_limit=10_000, seed=3)
    caches = campaign.all_caches()
    return benchmarks, gpus, campaign, caches


class TestFullPipeline:
    def test_campaign_covers_cross_product(self, mini_study):
        benchmarks, gpus, campaign, caches = mini_study
        assert set(caches) == {(b, g) for b in benchmarks for g in gpus}
        for cache in caches.values():
            assert cache.num_valid > 50

    def test_every_figure_reproduces_from_the_same_caches(self, mini_study):
        benchmarks, gpus, campaign, caches = mini_study

        # Fig. 1
        summaries = [distribution_summary(c) for c in caches.values()]
        assert len(summaries) == 4

        # Fig. 2
        curves = [random_search_convergence(c, repetitions=20, budget=100) for c in caches.values()]
        assert all(c.median_relative_performance[-1] > 0.5 for c in curves)

        # Fig. 3 (pnpoly only; hotspot is sampled and excluded as in the paper)
        centrality = centrality_study(caches, benchmark_names=("pnpoly",), proportions=(0.1, 0.5))
        assert len(centrality) == 2

        # Fig. 4
        speedups = {e.benchmark: e for e in speedup_study(caches) if e.gpu == "RTX_3090"}
        assert speedups["hotspot"].speedup > speedups["pnpoly"].speedup

        # Fig. 5
        matrices = portability_study(benchmarks, caches, gpus, benchmark_names=("pnpoly",))
        assert np.all(np.diag(matrices["pnpoly"].relative_performance) == 1.0)

        # Fig. 6
        importances = importance_study(caches, n_estimators=50, max_depth=4, n_repeats=1,
                                       max_samples=2000)
        assert len(importances) == 4
        for rep in importances.values():
            assert rep.r2 > 0.7

        # Table VIII
        rows = space_size_table(benchmarks, gpus, importances, caches=caches,
                                enumeration_limit=10_000)
        by_name = {r.benchmark: r for r in rows}
        assert by_name["pnpoly"].cardinality == 4_092
        assert by_name["hotspot"].cardinality == 22_200_000
        assert by_name["hotspot"].constrained == 2_106_000  # exact, not sampled
        assert by_name["hotspot"].valid_range is None  # too large -> "N/A" as in the paper
        assert by_name["hotspot"].reduced < by_name["hotspot"].cardinality

        # Everything renders.
        text = "\n".join([
            report.format_distribution(summaries),
            report.format_convergence(curves),
            report.format_centrality(centrality),
            report.format_speedups(speedup_study(caches)),
            report.format_portability(matrices),
            report.format_importance(importances),
            report.format_space_sizes(rows),
        ])
        assert "Table VIII" in text and "Fig. 6" in text

    def test_importance_consistent_across_gpus(self, mini_study):
        """The paper's observation: parameter importance ranking is stable across GPUs."""
        benchmarks, gpus, campaign, caches = mini_study
        pnpoly_caches = {k: v for k, v in caches.items() if k[0] == "pnpoly"}
        reports = importance_study(pnpoly_caches, n_estimators=60, max_depth=4, n_repeats=1)
        rankings = []
        for rep in reports.values():
            top2 = tuple(name for name, _ in rep.ranked()[:2])
            rankings.append(set(top2))
        assert rankings[0] & rankings[1], "top parameters should overlap across GPUs"

    def test_tuner_comparison_on_cache_replay(self, mini_study):
        """Tuners compared on cached data (the suite's intended benchmarking workflow)."""
        benchmarks, gpus, campaign, caches = mini_study
        cache = caches[("pnpoly", "RTX_3090")]
        optimum = cache.optimum()
        problem = cache.to_problem()
        results = {}
        for tuner in (RandomSearch(seed=0), GeneticAlgorithm(seed=0, population_size=10)):
            problem.reset_cache()
            results[tuner.name] = run_tuning(tuner, problem, max_evaluations=80)
        for name, result in results.items():
            assert result.num_evaluations == 80, name
            assert result.best_value >= optimum
            rel = optimum / result.best_value
            assert rel > 0.7, name

    def test_campaign_noise_toggle(self):
        """with_noise=False produces strictly deterministic model output."""
        benchmarks = {"pnpoly": benchmark_suite()["pnpoly"]}
        gpus = {"RTX_3090": gpu_catalog()["RTX_3090"]}
        quiet = Campaign(benchmarks, gpus, with_noise=False)
        noisy = Campaign(benchmarks, gpus, with_noise=True)
        a = quiet.cache("pnpoly", "RTX_3090").optimum()
        b = noisy.cache("pnpoly", "RTX_3090").optimum()
        assert a != b
        assert abs(a - b) / a < 0.1
