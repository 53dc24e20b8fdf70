"""Unit tests for the GPU substrate: specs, occupancy, memory model, noise, perfmodel."""

from __future__ import annotations

import hashlib
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ResourceLimitError
from repro.gpus.memory import (
    MemoryTraffic,
    bank_conflict_factor,
    coalescing_efficiency,
    dram_time_ms,
    read_only_cache_factor,
    vector_access_efficiency,
)
from repro.gpus.noise import (config_noise, lognormal_factor, lognormal_factors,
                              stable_hash)
from repro.gpus.occupancy import compute_occupancy
from repro.gpus.perfmodel import (
    ilp_factor,
    occupancy_throughput_factor,
    tail_effect_factor,
)
from repro.gpus.specs import RTX_2080_TI, RTX_3060, RTX_3090, RTX_TITAN, all_gpus


class TestSpecs:
    def test_catalog_contains_the_papers_four_gpus(self):
        catalog = all_gpus()
        assert set(catalog) == {"RTX_2080_Ti", "RTX_3060", "RTX_3090", "RTX_Titan"}

    def test_family_structure(self):
        assert RTX_2080_TI.architecture == RTX_TITAN.architecture == "Turing"
        assert RTX_3060.architecture == RTX_3090.architecture == "Ampere"

    def test_derived_quantities(self):
        assert RTX_2080_TI.max_warps_per_sm == 32
        assert RTX_3090.max_warps_per_sm == 48
        assert RTX_3090.peak_flops == pytest.approx(35.58e12)

    def test_to_dict(self):
        data = RTX_3060.to_dict()
        assert data["architecture"] == "Ampere"
        assert data["sm_count"] == 28


class TestOccupancy:
    def test_full_occupancy_small_block(self):
        occ = compute_occupancy(RTX_2080_TI, threads_per_block=256, registers_per_thread=32,
                                shared_mem_per_block_bytes=0)
        assert occ.blocks_per_sm == 4
        assert occ.occupancy == pytest.approx(1.0)

    def test_warp_limited(self):
        occ = compute_occupancy(RTX_2080_TI, 1024, 32, 0)
        assert occ.blocks_per_sm == 1
        assert occ.limiting_factor in ("warps", "registers")
        assert occ.occupancy == pytest.approx(1.0)

    def test_register_limited(self):
        occ = compute_occupancy(RTX_3090, 256, 128, 0)
        # 128 regs * 256 threads = 32768 regs per block -> 2 blocks on a 64k register file.
        assert occ.blocks_per_sm == 2
        assert occ.limiting_factor == "registers"

    def test_shared_memory_limited(self):
        occ = compute_occupancy(RTX_3090, 128, 32, 40 * 1024)
        assert occ.limiting_factor == "shared_memory"
        assert occ.blocks_per_sm == 2

    def test_too_many_threads_raises(self):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(RTX_3090, 2048, 32, 0)

    def test_too_much_shared_memory_raises(self):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(RTX_2080_TI, 128, 32, 64 * 1024)

    def test_zero_threads_raises(self):
        with pytest.raises(ResourceLimitError):
            compute_occupancy(RTX_3090, 0, 32, 0)

    def test_ampere_allows_more_resident_threads_than_turing(self):
        turing = compute_occupancy(RTX_2080_TI, 256, 40, 0)
        ampere = compute_occupancy(RTX_3090, 256, 40, 0)
        assert ampere.active_warps >= turing.active_warps


class TestMemoryModel:
    def test_coalescing_full_for_warp_aligned(self):
        assert coalescing_efficiency(RTX_3090, 32) == 1.0
        assert coalescing_efficiency(RTX_3090, 256) == 1.0

    def test_coalescing_penalises_narrow_blocks(self):
        assert coalescing_efficiency(RTX_3090, 8) < coalescing_efficiency(RTX_3090, 16) < 1.0
        assert coalescing_efficiency(RTX_3090, 1) >= 0.125

    def test_vector_access_monotone_up_to_preferred(self):
        widths = [1, 2, 4, 8]
        values = [vector_access_efficiency(RTX_3090, w) for w in widths]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_vector_access_penalises_overwide_on_turing(self):
        assert vector_access_efficiency(RTX_2080_TI, 8) < vector_access_efficiency(RTX_2080_TI, 4)

    def test_read_only_cache_helps_turing_more(self):
        assert read_only_cache_factor(RTX_2080_TI, True) > read_only_cache_factor(RTX_3090, True)
        assert read_only_cache_factor(RTX_3090, False) == 1.0

    def test_bank_conflicts_removed_by_padding(self):
        assert bank_conflict_factor(RTX_3090, 48, use_padding=True) == 1.0
        assert bank_conflict_factor(RTX_3090, 48, use_padding=False) > 1.0
        assert bank_conflict_factor(RTX_3090, 64, use_padding=False) == 1.0

    def test_dram_time_scales_with_bytes_and_efficiency(self):
        fast = dram_time_ms(RTX_3090, MemoryTraffic(1e9, 0, efficiency=1.0))
        slow = dram_time_ms(RTX_3090, MemoryTraffic(1e9, 0, efficiency=0.5))
        assert slow == pytest.approx(2 * fast)
        assert dram_time_ms(RTX_3090, MemoryTraffic(2e9, 0)) == pytest.approx(2 * fast)


class TestNoise:
    def test_stable_hash_deterministic_and_sensitive(self):
        config = {"a": 1, "b": 2}
        assert stable_hash("x", config) == stable_hash("x", {"b": 2, "a": 1})
        assert stable_hash("x", config) != stable_hash("y", config)
        assert stable_hash("x", config) != stable_hash("x", {"a": 1, "b": 3})

    def test_config_noise_reproducible(self):
        a = config_noise("GPU", "gemm", {"p": 1})
        b = config_noise("GPU", "gemm", {"p": 1})
        assert a == b
        assert a != config_noise("GPU", "gemm", {"p": 2})

    def test_noise_magnitude(self):
        factors = [config_noise("GPU", "k", {"p": i}, sigma=0.015) for i in range(500)]
        assert all(0.9 < f < 1.12 for f in factors)
        mean = sum(factors) / len(factors)
        assert 0.99 < mean < 1.01

    def test_zero_sigma_is_identity(self):
        assert lognormal_factor(12345, 0.0) == 1.0

    def test_lognormal_factors_equal_the_per_hash_loop(self):
        def reference(seed_hash, sigma):
            # The scalar Box-Muller loop the columnar form replaced.
            def uniform(value):
                return (value % (2**53)) / float(2**53) or 0.5 / float(2**53)

            u1 = uniform(seed_hash)
            second = hashlib.blake2b(b"%d\x1f'second'\x1f" % seed_hash,
                                     digest_size=8).digest()
            u2 = uniform(struct.unpack("<Q", second)[0])
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            return math.exp(sigma * z)

        rng = random.Random(11)
        hashes = [0, 1, 2**53 - 1, 2**53, 2**64 - 1]
        hashes += [rng.getrandbits(64) for _ in range(2000)]
        for sigma in (0.015, 0.7):
            got = lognormal_factors(hashes, sigma)
            assert [float(f).hex() for f in got] == \
                [reference(h, sigma).hex() for h in hashes]
            assert lognormal_factor(hashes[3], sigma).hex() == reference(hashes[3], sigma).hex()


class TestPerfmodelHelpers:
    def test_occupancy_factor_saturates(self):
        assert occupancy_throughput_factor(0.5, 0.5) == 1.0
        assert occupancy_throughput_factor(0.9, 0.5) == 1.0
        assert occupancy_throughput_factor(0.1, 0.5) < occupancy_throughput_factor(0.3, 0.5) < 1.0

    def test_ilp_factor_peak_at_best(self):
        assert ilp_factor(8, 8) == pytest.approx(1.0)
        assert ilp_factor(2, 8) < 1.0
        assert ilp_factor(32, 8) < 1.0
        assert ilp_factor(0, 8) == pytest.approx(0.92)

    def test_tail_effect(self):
        # A grid much larger than the machine has negligible tail.
        assert tail_effect_factor(RTX_3090, 100_000, 4) > 0.99
        # A grid smaller than one wave leaves most of the machine idle.
        assert tail_effect_factor(RTX_3090, 10, 4) < 0.1
        assert tail_effect_factor(RTX_3090, 0, 4) <= 1e-3


@given(occ=st.floats(min_value=0.0, max_value=1.0),
       sat=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_property_occupancy_factor_bounded(occ, sat):
    """The occupancy throughput factor always lies in (0, 1]."""
    factor = occupancy_throughput_factor(occ, sat)
    assert 0.0 < factor <= 1.0


@given(blocks=st.integers(min_value=1, max_value=10**6),
       per_sm=st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_property_tail_effect_bounded(blocks, per_sm):
    """The tail factor is a utilisation, hence in (0, 1]."""
    factor = tail_effect_factor(RTX_3090, blocks, per_sm)
    assert 0.0 < factor <= 1.0
