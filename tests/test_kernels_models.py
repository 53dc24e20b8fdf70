"""Tests of the analytical performance models.

The models stand in for hardware measurements, so the tests pin the properties the
analyses rely on: determinism, positivity, sensitivity to the tuning parameters,
architecture-family structure (portability), and the qualitative landmarks of the
paper (Hotspot's outlier speedup, GEMM/Convolution having rare optima).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.errors import ResourceLimitError
from repro.gpus.specs import RTX_2080_TI, RTX_3060, RTX_3090, RTX_TITAN
from repro.kernels import BENCHMARK_NAMES, all_benchmarks


@pytest.fixture(scope="module")
def suite():
    return all_benchmarks()


def _sample_valid(benchmark, gpu, n=30, seed=0):
    space = benchmark.space
    configs = space.configs_at(space.sample_indices(n, rng=seed))
    out = []
    for config in configs:
        try:
            out.append((config, benchmark.model.time_ms(config, gpu)))
        except ResourceLimitError:
            continue
    return out


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestModelBasics:
    def test_times_positive_and_finite(self, suite, name):
        for _, t in _sample_valid(suite[name], RTX_3090):
            assert math.isfinite(t) and t > 0

    def test_deterministic(self, suite, name):
        benchmark = suite[name]
        config = benchmark.space.config_at(
            benchmark.space.sample_one_index(rng=3))
        try:
            a = benchmark.model.time_ms(config, RTX_3090)
            b = benchmark.model.time_ms(config, RTX_3090)
        except ResourceLimitError:
            pytest.skip("sampled configuration not launchable")
        assert a == b

    def test_noise_is_small_and_multiplicative(self, suite, name):
        benchmark = suite[name]
        for config, _ in _sample_valid(benchmark, RTX_3090, n=10):
            noisy = benchmark.model.time_ms(config, RTX_3090, with_noise=True)
            clean = benchmark.model.time_ms(config, RTX_3090, with_noise=False)
            assert abs(noisy / clean - 1.0) < 0.25

    def test_parameters_change_performance(self, suite, name):
        times = [t for _, t in _sample_valid(suite[name], RTX_3090, n=40)]
        assert len(set(np.round(times, 9))) > max(3, len(times) // 4)

    def test_faster_gpu_is_generally_faster(self, suite, name):
        # The RTX 3090 dominates the RTX 3060 in every datasheet number, so the same
        # configuration should essentially never run faster on the 3060.
        pairs = _sample_valid(suite[name], RTX_3090, n=20)
        faster = 0
        total = 0
        for config, t_3090 in pairs:
            try:
                t_3060 = suite[name].model.time_ms(config, RTX_3060)
            except ResourceLimitError:
                continue
            total += 1
            if t_3090 <= t_3060 * 1.05:
                faster += 1
        assert total > 0 and faster / total > 0.9

    def test_estimate_breakdown_consistent(self, suite, name):
        benchmark = suite[name]
        for config, t in _sample_valid(benchmark, RTX_3090, n=5):
            estimate = benchmark.model.estimate(config, RTX_3090)
            assert estimate.time_ms == pytest.approx(t)
            assert estimate.compute_time_ms >= 0
            assert estimate.memory_time_ms >= 0
            assert 0 < estimate.occupancy.occupancy <= 1
            data = estimate.to_dict()
            assert data["time_ms"] == pytest.approx(t)

    def test_is_valid_on_consistent_with_model(self, suite, name):
        benchmark = suite[name]
        space = benchmark.space
        for config in space.configs_at(space.sample_indices(20, rng=11)):
            valid = benchmark.is_valid_on(config, RTX_2080_TI)
            try:
                benchmark.model.time_ms(config, RTX_2080_TI)
                ran = True
            except ResourceLimitError:
                ran = False
            assert valid == ran


class TestBuildCache:
    def test_sampled_cache_counts(self, suite):
        cache = suite["hotspot"].build_cache(RTX_3090, sample_size=200, seed=0)
        assert len(cache) == 200
        assert not cache.exhaustive
        assert 0 < cache.num_valid <= 200

    def test_exhaustive_cache_for_small_space(self, suite):
        cache = suite["pnpoly"].build_cache(RTX_3090)
        assert cache.exhaustive
        assert len(cache) == 4_092
        assert cache.num_valid > 4_000

    def test_cache_reproducible(self, suite):
        a = suite["expdist"].build_cache(RTX_3090, sample_size=50, seed=3)
        b = suite["expdist"].build_cache(RTX_3090, sample_size=50, seed=3)
        assert [o.value for o in a] == [o.value for o in b]


class TestQualitativeLandmarks:
    """The headline structure of the paper's Figs. 1/4, checked cheaply."""

    @pytest.fixture(scope="class")
    def speedups(self, suite):
        out = {}
        for name in BENCHMARK_NAMES:
            benchmark = suite[name]
            sample = None if benchmark.space.cardinality <= 20_000 else 1_500
            cache = benchmark.build_cache(RTX_3090, sample_size=sample, seed=5)
            values = cache.values()
            out[name] = float(np.median(values) / values.min())
        return out

    def test_hotspot_is_the_speedup_outlier(self, speedups):
        others = max(v for k, v in speedups.items() if k != "hotspot")
        assert speedups["hotspot"] > 4.0
        assert speedups["hotspot"] > 1.5 * others

    def test_other_benchmarks_have_moderate_speedups(self, speedups):
        for name, value in speedups.items():
            if name == "hotspot":
                continue
            assert 1.05 < value < 4.5, name

    def test_convolution_and_gemm_have_rare_optima(self, suite):
        for name in ("convolution", "gemm"):
            benchmark = suite[name]
            cache = benchmark.build_cache(RTX_3090)
            values = cache.values()
            near_optimal = float(np.mean(values <= values.min() / 0.9))
            assert near_optimal < 0.02, name

    def test_portability_within_family_better_than_across(self, suite):
        """Optimal configs transfer well 3060<->3090 and worse to the Turing cards."""
        benchmark = suite["pnpoly"]
        cache_3090 = benchmark.build_cache(RTX_3090)
        best = cache_3090.best().config

        def relative(gpu):
            target_cache = benchmark.build_cache(gpu)
            target_best = target_cache.best().value
            transferred = target_cache.get(best).value
            return target_best / transferred

        same_family = relative(RTX_3060)
        cross_family = min(relative(RTX_2080_TI), relative(RTX_TITAN))
        assert same_family > cross_family
        assert same_family > 0.85
        assert cross_family < 0.95
