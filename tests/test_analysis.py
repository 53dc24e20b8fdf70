"""Tests of the analysis layer (one module per paper figure/table) and the registries."""

from __future__ import annotations


import numpy as np
import pytest

from repro import benchmark_suite, get_benchmark, get_gpu, get_tuner, gpu_catalog, tuner_catalog
from repro.analysis import report
from repro.analysis.campaign import Campaign, PAPER_SAMPLE_SIZE, PAPER_SAMPLED_BENCHMARKS
from repro.analysis.centrality_report import centrality_study
from repro.analysis.convergence import evaluations_to_reach, random_search_convergence
from repro.analysis.distribution import distribution_summary
from repro.analysis.importance import feature_importance, important_parameters, importance_study
from repro.analysis.portability import portability_matrix, portability_study
from repro.analysis.spacesize import PAPER_TABLE8, space_size_table
from repro.analysis.speedup import max_speedup_over_median, speedup_study
from repro.core.errors import ReproError


class TestRegistries:
    def test_benchmark_suite_and_lookup(self):
        suite = benchmark_suite()
        assert len(suite) == 7
        assert get_benchmark("GEMM").name == "gemm"
        with pytest.raises(ReproError):
            get_benchmark("not_a_kernel")

    def test_gpu_catalog_and_lookup(self):
        assert len(gpu_catalog()) == 4
        assert get_gpu("rtx 3090").name == "RTX_3090"
        assert get_gpu("RTX-2080-Ti").name == "RTX_2080_Ti"
        with pytest.raises(ReproError):
            get_gpu("GTX_480")

    def test_tuner_catalog_and_lookup(self):
        catalog = tuner_catalog()
        assert "random" in catalog and "genetic" in catalog
        tuner = get_tuner("random", seed=3)
        assert tuner.seed == 3
        with pytest.raises(ReproError):
            get_tuner("hillwalker")


class TestCampaign:
    def test_paper_protocol_constants(self):
        assert PAPER_SAMPLE_SIZE == 10_000
        assert PAPER_SAMPLED_BENCHMARKS == {"hotspot", "dedispersion", "expdist"}

    def test_sampling_policy(self, small_campaign):
        assert small_campaign.is_sampled("hotspot")
        assert not small_campaign.is_sampled("pnpoly")
        # exhaustive_limit forces convolution (18 432 > 10 000) into sampling too.
        assert small_campaign.is_sampled("convolution")

    def test_caches_are_memoized(self, small_campaign):
        a = small_campaign.cache("pnpoly", "RTX_3090")
        b = small_campaign.cache("pnpoly", "RTX_3090")
        assert a is b

    def test_save_and_load_roundtrip(self, small_campaign, tmp_path):
        small_campaign.cache("pnpoly", "RTX_3090")
        written = small_campaign.save(tmp_path)
        assert written
        fresh = Campaign({"pnpoly": benchmark_suite()["pnpoly"]},
                         {"RTX_3090": gpu_catalog()["RTX_3090"]})
        assert fresh.load(tmp_path) >= 1
        assert len(fresh.cache("pnpoly", "RTX_3090")) == len(small_campaign.cache("pnpoly", "RTX_3090"))


class TestDistribution:
    def test_summary_fields(self, pnpoly_cache_3090):
        summary = distribution_summary(pnpoly_cache_3090)
        assert summary.num_configs == pnpoly_cache_3090.num_valid
        assert summary.best_ms < summary.median_ms < summary.worst_ms
        assert summary.max_speedup_over_median == pytest.approx(
            summary.median_ms / summary.best_ms)
        assert 0.0 < summary.fraction_within_10pct_of_best < 1.0
        assert summary.percentiles[50] == pytest.approx(1.0, rel=1e-6)
        assert summary.histogram_density.shape[0] == summary.histogram_edges.shape[0] - 1

    def test_histogram_is_a_density(self, pnpoly_cache_3090):
        summary = distribution_summary(pnpoly_cache_3090, bins=40)
        widths = np.diff(summary.histogram_edges)
        assert float(np.sum(summary.histogram_density * widths)) == pytest.approx(1.0)

    def test_to_dict(self, pnpoly_cache_3090):
        data = distribution_summary(pnpoly_cache_3090).to_dict()
        assert data["benchmark"] == "pnpoly"
        assert "histogram_density" in data


class TestConvergence:
    def test_median_curve_properties(self, pnpoly_cache_3090):
        curve = random_search_convergence(pnpoly_cache_3090, repetitions=30, budget=300, seed=1)
        rel = curve.median_relative_performance
        assert rel.shape == (300,)
        assert np.all(np.diff(rel) >= -1e-12)           # monotone non-decreasing
        assert np.all((rel > 0) & (rel <= 1.0 + 1e-12))
        assert curve.quartile_low[-1] <= curve.quartile_high[-1]

    def test_full_budget_reaches_optimum(self, pnpoly_cache_3090):
        n = pnpoly_cache_3090.num_valid
        curve = random_search_convergence(pnpoly_cache_3090, repetitions=5, budget=n, seed=0)
        assert curve.median_relative_performance[-1] == pytest.approx(1.0)

    def test_threshold_helpers(self, pnpoly_cache_3090):
        curve = random_search_convergence(pnpoly_cache_3090, repetitions=20, budget=200, seed=2)
        needed = curve.evaluations_to_reach(0.5)
        assert needed is not None and needed >= 1
        assert curve.at(needed) >= 0.5
        table = evaluations_to_reach([curve], threshold=0.5)
        assert table[("pnpoly", "RTX_3090")] == needed

    def test_reproducible(self, pnpoly_cache_3090):
        a = random_search_convergence(pnpoly_cache_3090, repetitions=10, budget=50, seed=3)
        b = random_search_convergence(pnpoly_cache_3090, repetitions=10, budget=50, seed=3)
        np.testing.assert_allclose(a.median_relative_performance,
                                   b.median_relative_performance)

    def test_invalid_repetitions(self, pnpoly_cache_3090):
        with pytest.raises(ReproError):
            random_search_convergence(pnpoly_cache_3090, repetitions=0)

    def test_quartiles_equal_separate_percentile_calls(self, pnpoly_cache_3090):
        # The curve takes both quartiles from one np.percentile call; they must be
        # the bytes of one call per quartile, on the paper's 100 x 1000 shape.
        curve = random_search_convergence(pnpoly_cache_3090, repetitions=100,
                                          budget=1000, seed=4)
        runtimes = pnpoly_cache_3090.values(valid_only=True)
        rng = np.random.default_rng(4)
        relative = runtimes.min() / np.stack(
            [np.minimum.accumulate(runtimes[rng.permutation(runtimes.size)[:1000]])
             for _ in range(100)])
        assert (curve.median_relative_performance.tobytes()
                == np.median(relative, axis=0).tobytes())
        assert curve.quartile_low.tobytes() == np.percentile(relative, 25, axis=0).tobytes()
        assert curve.quartile_high.tobytes() == np.percentile(relative, 75, axis=0).tobytes()


class TestSpeedup:
    def test_entry_consistency(self, pnpoly_cache_3090):
        entry = max_speedup_over_median(pnpoly_cache_3090)
        assert entry.speedup == pytest.approx(entry.median_ms / entry.best_ms)
        assert entry.speedup > 1.0

    def test_study_covers_all_caches(self, small_campaign):
        caches = {("pnpoly", g): small_campaign.cache("pnpoly", g)
                  for g in ("RTX_3090", "RTX_2080_Ti")}
        entries = speedup_study(caches)
        assert len(entries) == 2


class TestPortability:
    @pytest.fixture(scope="class")
    def pnpoly_matrix(self, small_campaign, benchmarks, gpus):
        caches = {gpu: small_campaign.cache("pnpoly", gpu) for gpu in small_campaign.gpus}
        return portability_matrix(benchmarks["pnpoly"], caches, gpus)

    def test_diagonal_is_one(self, pnpoly_matrix):
        np.testing.assert_allclose(np.diag(pnpoly_matrix.relative_performance), 1.0)

    def test_off_diagonal_at_most_one(self, pnpoly_matrix):
        assert np.all(pnpoly_matrix.relative_performance <= 1.0 + 1e-9)
        assert np.all(pnpoly_matrix.relative_performance > 0.0)

    def test_helpers(self, pnpoly_matrix):
        src, dst, value = pnpoly_matrix.worst_transfer()
        assert src != dst
        gpus = pnpoly_matrix.gpus
        assert value == pytest.approx(
            pnpoly_matrix.relative_performance[gpus.index(src), gpus.index(dst)])
        assert 0.0 < pnpoly_matrix.mean_off_diagonal() <= 1.0

    def test_study_selects_exhaustive_benchmarks(self, small_campaign, benchmarks, gpus):
        caches = small_campaign.all_caches()
        matrices = portability_study(benchmarks, caches, gpus,
                                     benchmark_names=("pnpoly", "nbody"))
        assert set(matrices) == {"pnpoly", "nbody"}


class TestImportance:
    @pytest.fixture(scope="class")
    def pnpoly_report(self, pnpoly_cache_3090):
        return feature_importance(pnpoly_cache_3090, n_estimators=80, max_depth=4,
                                  n_repeats=2)

    def test_model_quality(self, pnpoly_report):
        assert pnpoly_report.r2 > 0.9
        assert pnpoly_report.n_samples > 1000

    def test_importances_cover_all_parameters(self, pnpoly_report):
        assert set(pnpoly_report.importances) == {"block_size_x", "tile_size",
                                                  "between_method", "use_method"}
        assert all(v >= -0.05 for v in pnpoly_report.importances.values())
        assert pnpoly_report.total_importance > 0.5

    def test_important_parameters_across_reports(self, pnpoly_report):
        keep = important_parameters([pnpoly_report], threshold=0.05)
        assert keep
        assert set(keep) == {name for name, value in pnpoly_report.importances.items()
                             if value >= 0.05}
        with pytest.raises(ReproError):
            important_parameters([])

    def test_too_small_cache_raises(self, benchmarks, gpu_3090):
        cache = benchmarks["pnpoly"].build_cache(gpu_3090, sample_size=5, seed=0)
        with pytest.raises(ReproError):
            feature_importance(cache)


class TestCentralityStudyAndTable8:
    @pytest.fixture(scope="class")
    def importance_reports(self, small_campaign):
        caches = {("pnpoly", g): small_campaign.cache("pnpoly", g)
                  for g in ("RTX_3090", "RTX_2080_Ti")}
        return importance_study(caches, n_estimators=60, max_depth=4, n_repeats=2)

    def test_centrality_study_selection(self, small_campaign):
        caches = small_campaign.all_caches()
        reports = centrality_study(caches, benchmark_names=("pnpoly",),
                                   proportions=(0.05, 0.2))
        assert set(k[0] for k in reports) == {"pnpoly"}
        for rep in reports.values():
            assert len(rep.values) == 2

    def test_space_size_table(self, benchmarks, gpus, importance_reports, small_campaign):
        selected = {"pnpoly": benchmarks["pnpoly"]}
        selected_gpus = {name: gpus[name] for name in ("RTX_3090", "RTX_2080_Ti")}
        caches = {("pnpoly", g): small_campaign.cache("pnpoly", g)
                  for g in ("RTX_3090", "RTX_2080_Ti")}
        rows = space_size_table(selected, selected_gpus, importance_reports, caches=caches)
        assert len(rows) == 1
        row = rows[0]
        assert row.cardinality == 4_092
        assert row.constrained == 4_092
        assert row.valid_range is not None
        assert row.valid_range[0] <= row.valid_range[1] <= 4_092
        assert 0 < row.reduced <= 4_092
        assert 0 < row.reduce_constrained <= row.reduced
        assert row.to_dict()["paper"] == PAPER_TABLE8["pnpoly"]

    def test_paper_table8_reference_complete(self):
        assert set(PAPER_TABLE8) == {"pnpoly", "nbody", "convolution", "gemm",
                                     "expdist", "hotspot", "dedispersion"}


class TestReportRendering:
    def test_format_table_alignment(self):
        text = report.format_table(("a", "bb"), [(1, 2), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, separator, two data rows

    def test_all_formatters_produce_text(self, small_campaign, benchmarks, gpus):
        caches = {("pnpoly", g): small_campaign.cache("pnpoly", g)
                  for g in ("RTX_3090", "RTX_2080_Ti")}
        summaries = [distribution_summary(c) for c in caches.values()]
        curves = [random_search_convergence(c, repetitions=10, budget=50) for c in caches.values()]
        speedups = speedup_study(caches)
        matrices = portability_study(benchmarks, caches, gpus, benchmark_names=("pnpoly",))
        importances = importance_study(caches, n_estimators=30, max_depth=3, n_repeats=1)
        centrality = centrality_study(caches, benchmark_names=("pnpoly",), proportions=(0.1,))

        for text in (
            report.format_parameter_table("pnpoly", benchmarks["pnpoly"].parameter_table(),
                                          "Table IV"),
            report.format_distribution(summaries),
            report.format_convergence(curves),
            report.format_speedups(speedups),
            report.format_portability(matrices),
            report.format_importance(importances),
            report.format_centrality(centrality),
        ):
            assert isinstance(text, str) and len(text.splitlines()) >= 3
