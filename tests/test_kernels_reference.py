"""Functional tests of the NumPy reference implementations.

The central invariant of autotuning is that every configuration computes the same
result; these tests check it for every kernel by comparing the configuration-aware
drivers against plain ground-truth implementations, plus direct correctness checks of
the mathematics on small hand-checkable instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import all_benchmarks
from repro.kernels.reference import (
    convolution_reference,
    dedispersion_reference,
    expdist_reference,
    gemm_reference,
    hotspot_reference,
    nbody_reference,
    pnpoly_reference,
)


@pytest.fixture(scope="module")
def suite():
    return all_benchmarks()


def _sampled_configs(space, n, seed):
    """``n`` distinct valid configurations of ``space``, drawn with ``seed``."""
    return space.configs_at(space.sample_indices(n, rng=seed))


# ----------------------------------------------------------------------------- GEMM


class TestGemmReference:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((48, 32))
        b = rng.standard_normal((32, 40))
        c = rng.standard_normal((48, 40))
        expected = 1.5 * a @ b + 0.5 * c
        result = gemm_reference.tiled_gemm(a, b, c, {"MWG": 16, "NWG": 16, "SA": 1, "SB": 1},
                                           alpha=1.5, beta=0.5)
        np.testing.assert_allclose(result, expected, rtol=1e-10)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            gemm_reference.tiled_gemm(rng.random((4, 4)), rng.random((5, 4)),
                                      rng.random((4, 4)), {})

    def test_all_tilings_agree(self, suite, rng):
        reference = None
        for config in _sampled_configs(suite["gemm"].space, 6, 1):
            result = suite["gemm"].run_reference(config, rng=7, matrix_size=64)
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result, reference, rtol=1e-9)


# ---------------------------------------------------------------------------- N-body


class TestNbodyReference:
    def test_two_body_symmetry(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        masses = np.array([1.0, 1.0])
        acc = nbody_reference.nbody_accelerations(positions, masses)
        # Equal masses: accelerations are equal and opposite, along x only.
        np.testing.assert_allclose(acc[0], -acc[1], atol=1e-12)
        assert acc[0, 0] > 0 and abs(acc[0, 1]) < 1e-12 and abs(acc[0, 2]) < 1e-12

    def test_tiled_matches_ground_truth(self, rng):
        positions = rng.standard_normal((96, 3))
        masses = rng.uniform(0.5, 2.0, 96)
        expected = nbody_reference.nbody_accelerations(positions, masses)
        for config in ({"block_size": 32, "outer_unroll_factor": 2, "use_soa": 1, "local_mem": 1},
                       {"block_size": 17, "outer_unroll_factor": 1, "use_soa": 0, "local_mem": 0}):
            result = nbody_reference.tiled_nbody(positions, masses, config)
            np.testing.assert_allclose(result, expected, rtol=1e-9)

    def test_all_configs_agree(self, suite):
        reference = None
        for config in _sampled_configs(suite["nbody"].space, 6, 2):
            result = suite["nbody"].run_reference(config, rng=3, n_bodies=64)
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result, reference, rtol=1e-9)


# --------------------------------------------------------------------------- Hotspot


class TestHotspotReference:
    def test_uniform_grid_stays_uniform_without_power(self):
        temp = np.full((16, 16), 100.0)
        power = np.zeros((16, 16))
        out = hotspot_reference.hotspot_step(temp, power)
        # No gradients and no power: only the ambient coupling acts, uniformly.
        assert np.allclose(out, out[0, 0])
        assert out[0, 0] < 100.0  # pulled towards the ambient temperature (80)

    def test_power_heats_the_hotspot(self):
        temp = np.full((9, 9), 80.0)
        power = np.zeros((9, 9))
        power[4, 4] = 10.0
        out = hotspot_reference.hotspot_iterate(temp, power, iterations=5)
        assert out[4, 4] == out.max()
        assert out[4, 4] > 80.0

    def test_temporal_tiling_does_not_change_result(self, rng):
        temp = 80.0 + rng.uniform(0, 10, (24, 24))
        power = rng.uniform(0, 5, (24, 24))
        base = hotspot_reference.hotspot_iterate(temp, power, 12, {"temporal_tiling_factor": 1})
        for ttf in (2, 3, 5, 12):
            out = hotspot_reference.hotspot_iterate(temp, power, 12,
                                                    {"temporal_tiling_factor": ttf})
            np.testing.assert_allclose(out, base, rtol=1e-12)

    def test_driver_configs_agree(self, suite):
        reference = None
        for config in _sampled_configs(suite["hotspot"].space, 5, 4):
            result = suite["hotspot"].run_reference(config, rng=5, grid_size=20, iterations=6)
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result, reference, rtol=1e-12)


# ---------------------------------------------------------------------------- Pnpoly


class TestPnpolyReference:
    def test_square_polygon_classification(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        points = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [0.9, 0.99]])
        inside = pnpoly_reference.point_in_polygon(points, square)
        assert list(inside) == [True, False, False, True]

    def test_regular_polygon_generator(self):
        hexagon = pnpoly_reference.regular_polygon(6, radius=2.0)
        assert hexagon.shape == (6, 2)
        np.testing.assert_allclose(np.linalg.norm(hexagon, axis=1), 2.0)

    @pytest.mark.parametrize("between_method", [0, 1, 2, 3])
    @pytest.mark.parametrize("use_method", [0, 1, 2])
    def test_all_method_variants_agree(self, rng, between_method, use_method):
        polygon = pnpoly_reference.regular_polygon(17)
        points = rng.uniform(-1.5, 1.5, size=(512, 2))
        expected = pnpoly_reference.point_in_polygon(points, polygon, 0, 0)
        result = pnpoly_reference.point_in_polygon(points, polygon, between_method, use_method)
        np.testing.assert_array_equal(result, expected)

    def test_tiled_matches_untiled(self, suite, rng):
        reference = None
        for config in _sampled_configs(suite["pnpoly"].space, 6, 6):
            result = suite["pnpoly"].run_reference(config, rng=9, num_points=400)
            if reference is None:
                reference = result
            else:
                np.testing.assert_array_equal(result, reference)


# ----------------------------------------------------------------------- Convolution


class TestConvolutionReference:
    def test_identity_filter(self, rng):
        image = rng.standard_normal((12, 12))
        identity = np.zeros((3, 3))
        identity[1, 1] = 1.0
        out = convolution_reference.convolve2d_valid(image, identity)
        np.testing.assert_allclose(out, image[1:-1, 1:-1])

    def test_filter_larger_than_image_raises(self, rng):
        with pytest.raises(ValueError):
            convolution_reference.convolve2d_valid(rng.random((4, 4)), rng.random((5, 5)))

    def test_tiled_matches_dense(self, rng):
        image = rng.standard_normal((40, 40))
        filt = rng.standard_normal((5, 5))
        expected = convolution_reference.convolve2d_valid(image, filt)
        for config in ({"block_size_x": 8, "block_size_y": 4, "tile_size_x": 2,
                        "tile_size_y": 3, "use_padding": 1},
                       {"block_size_x": 16, "block_size_y": 16, "tile_size_x": 1,
                        "tile_size_y": 1, "use_padding": 0}):
            out = convolution_reference.tiled_convolution(image, filt, config)
            np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_driver_configs_agree(self, suite):
        reference = None
        for config in _sampled_configs(suite["convolution"].space, 6, 8):
            result = suite["convolution"].run_reference(config, rng=2, image_size=48,
                                                        filter_size=7)
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result, reference, rtol=1e-10)


# --------------------------------------------------------------------------- Expdist


class TestExpdistReference:
    def test_identical_particles_score(self):
        # Perfectly overlapping localizations: every pair with distance 0 contributes 1.
        template = np.zeros((4, 2))
        model = np.zeros((4, 2))
        sigma = np.full(4, 0.1)
        score = expdist_reference.expdist(template, model, sigma, sigma)
        assert score == pytest.approx(16.0)

    def test_score_decreases_with_distance(self, rng):
        template = rng.standard_normal((32, 2))
        sigma = np.full(32, 0.05)
        near = expdist_reference.expdist(template, template + 0.01, sigma, sigma)
        far = expdist_reference.expdist(template, template + 1.0, sigma, sigma)
        assert near > far

    def test_tiled_matches_dense(self, rng):
        template = rng.standard_normal((60, 2))
        model = template + 0.02 * rng.standard_normal((60, 2))
        st_ = rng.uniform(0.01, 0.05, 60)
        sm = rng.uniform(0.01, 0.05, 60)
        expected = expdist_reference.expdist(template, model, st_, sm)
        for config in ({"block_size_x": 32, "block_size_y": 2, "tile_size_x": 2,
                        "tile_size_y": 4, "use_column": 1, "n_y_blocks": 4},
                       {"block_size_x": 64, "block_size_y": 1, "tile_size_x": 1,
                        "tile_size_y": 1, "use_column": 0, "n_y_blocks": 1}):
            score = expdist_reference.tiled_expdist(template, model, st_, sm, config)
            assert score == pytest.approx(expected, rel=1e-10)

    def test_driver_configs_agree(self, suite):
        reference = None
        for config in _sampled_configs(suite["expdist"].space, 6, 10):
            result = suite["expdist"].run_reference(config, rng=11, num_localizations=80)
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result, reference, rtol=1e-9)


# ----------------------------------------------------------------------- Dedispersion


class TestDedispersionReference:
    def test_delays_zero_for_zero_dm_and_highest_frequency(self):
        freqs = np.array([1200.0, 1300.0, 1400.0])
        delays = dedispersion_reference.dispersion_delays(np.array([0.0, 50.0]), freqs, 1e4)
        assert delays[0].max() == 0           # DM 0: no dispersion at all
        assert delays[1, 2] == 0              # highest frequency channel: no delay
        assert delays[1, 0] > delays[1, 1] > 0  # lower frequencies arrive later

    def test_dedispersion_recovers_pulse(self):
        # Build a dispersed pulse and check that dedispersing at the true DM
        # concentrates the power while a wrong DM does not.
        freqs = np.linspace(1220.0, 1520.0, 16)
        sampling = 24_400.0
        true_dm = 40.0
        delays = dedispersion_reference.dispersion_delays(np.array([true_dm]), freqs, sampling)[0]
        n_samples = 200 + delays.max()
        data = np.zeros((16, n_samples))
        for c in range(16):
            data[c, 100 + delays[c]] = 1.0
        out = dedispersion_reference.dedisperse(data, np.array([true_dm, 0.0]), freqs,
                                                sampling, 200)
        assert out[0].max() == pytest.approx(16.0)   # all channels aligned
        assert out[1].max() < 16.0                   # wrong DM: power stays spread out

    def test_insufficient_samples_raises(self):
        freqs = np.linspace(1220.0, 1520.0, 4)
        data = np.zeros((4, 10))
        with pytest.raises(ValueError):
            dedispersion_reference.dedisperse(data, np.array([500.0]), freqs, 24_400.0, 10)

    def test_tiled_matches_dense(self, rng):
        freqs = np.linspace(1220.0, 1520.0, 24)
        dms = np.linspace(0.0, 60.0, 12)
        sampling = 24_400.0
        max_delay = dedispersion_reference.dispersion_delays(dms, freqs, sampling).max()
        data = rng.uniform(0, 1, (24, 80 + max_delay))
        expected = dedispersion_reference.dedisperse(data, dms, freqs, sampling, 80)
        config = {"block_size_x": 16, "block_size_y": 4, "tile_size_x": 3, "tile_size_y": 2,
                  "loop_unroll_factor_channel": 6}
        out = dedispersion_reference.tiled_dedisperse(data, dms, freqs, sampling, 80, config)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_driver_configs_agree(self, suite):
        reference = None
        for config in _sampled_configs(suite["dedispersion"].space, 5, 12):
            result = suite["dedispersion"].run_reference(config, rng=13, num_channels=16,
                                                         num_dms=8, num_output_samples=32)
            if reference is None:
                reference = result
            else:
                np.testing.assert_allclose(result, reference, rtol=1e-12)


# ------------------------------------------------------------------- property testing


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_property_gemm_tiling_invariant(seed):
    """Any GEMM tiling computes the same product as NumPy."""
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(5, 40, size=3)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n))
    mwg = int(rng.choice([16, 32, 64]))
    nwg = int(rng.choice([16, 32, 64]))
    config = {"MWG": mwg, "NWG": nwg, "SA": int(rng.integers(0, 2)), "SB": int(rng.integers(0, 2))}
    out = gemm_reference.tiled_gemm(a, b, c, config, alpha=1.0, beta=1.0)
    np.testing.assert_allclose(out, a @ b + c, rtol=1e-9, atol=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000),
       between_method=st.integers(min_value=0, max_value=3),
       use_method=st.integers(min_value=0, max_value=2))
@settings(max_examples=25, deadline=None)
def test_property_pnpoly_variants_agree(seed, between_method, use_method):
    """All algorithm variants classify random points identically."""
    rng = np.random.default_rng(seed)
    polygon = pnpoly_reference.regular_polygon(int(rng.integers(3, 24)))
    points = rng.uniform(-1.5, 1.5, size=(128, 2))
    baseline = pnpoly_reference.point_in_polygon(points, polygon, 0, 0)
    variant = pnpoly_reference.point_in_polygon(points, polygon, between_method, use_method)
    np.testing.assert_array_equal(variant, baseline)
