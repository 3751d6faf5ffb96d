"""Randomized invariant checks over generated stencil kernels.

The kernels come from :func:`refdata.random_kernel`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from stencilmem.balance import (
    FULL_WA,
    NO_WA,
    code_balance,
    classify,
    evasion,
    scenario_table,
)
from stencilmem.cachesim import (
    AlwaysAllocate,
    AutoClaim,
    CacheLevelConfig,
    NtBypass,
    simulate_kernel,
)
from stencilmem.decomp import (
    factorize_ranks,
    halo_read_overhead,
    is_prime,
    local_extents,
    predict_rank_sweep,
)
from stencilmem.kernels import (
    GridSpec,
    KernelSpec,
    derive_stream_counts,
)

from refdata import random_kernel, sweep_rows

N_ARITHMETIC_KERNELS = 1200
N_SIM_KERNELS = 36


@pytest.fixture(scope="module")
def arithmetic_kernels():
    rng = random.Random(20240915)
    return [random_kernel(rng, i) for i in range(N_ARITHMETIC_KERNELS)]


@pytest.fixture(scope="module")
def sim_kernels():
    rng = random.Random(77)
    grid = GridSpec(inner_extent=40, outer_extent=10, halo_lo=2, halo_hi=2)
    return [random_kernel(rng, i, grid) for i in range(N_SIM_KERNELS)], grid


class TestGeneratedKernelAlgebra:
    def test_generator_produces_valid_kernels(self, arithmetic_kernels):
        # building a kernel checks it, so every generated one was valid
        assert len(arithmetic_kernels) == N_ARITHMETIC_KERNELS
        assert all(isinstance(k, KernelSpec) for k in arithmetic_kernels)

    def test_scenario_ordering(self, arithmetic_kernels):
        for kernel in arithmetic_kernels:
            t = scenario_table(kernel)
            assert t.minimum.bytes_per_it <= t.lcf_wa.bytes_per_it \
                <= t.maximum.bytes_per_it
            assert t.minimum.bytes_per_it <= t.lcb.bytes_per_it \
                <= t.maximum.bytes_per_it

    def test_stream_count_relations(self, arithmetic_kernels):
        for kernel in arithmetic_kernels:
            c = derive_stream_counts(kernel)
            assert c.rd_lcf <= c.rd_lcb
            assert c.rdwr <= min(c.rd_lcf, c.wr)
            assert c.n_arrays >= c.rd_lcf and c.n_arrays >= c.wr

    def test_evasion_interpolates_corners(self, arithmetic_kernels):
        for kernel in arithmetic_kernels[:300]:
            c = derive_stream_counts(kernel)
            lo = code_balance(c, True, evasion(1.0))
            mid = code_balance(c, True, evasion(1.5))
            hi = code_balance(c, True, evasion(2.0))
            assert code_balance(c, True, NO_WA) == lo <= mid <= hi \
                == code_balance(c, True, FULL_WA)

    def test_classification_consistent_with_counts(self, arithmetic_kernels):
        for kernel in arithmetic_kernels:
            c = derive_stream_counts(kernel)
            label = classify(c)
            assert label == {0: "iii", 1: "i"}.get(c.wr - c.rdwr, "ii")

    def test_rank_sweep_identity_at_one(self, arithmetic_kernels, icx):
        kernels = arithmetic_kernels[:300]
        for kernel, sweep in zip(kernels, predict_rank_sweep(kernels, [1], icx,
                                                             FULL_WA)):
            pred, = sweep_rows(sweep)
            assert pred.bytes_per_it == \
                scenario_table(kernel).lcf_wa.bytes_per_it


class TestSimulatorInvariants:
    def test_lru_stack_property_ladder(self, sim_kernels):
        kernels, grid = sim_kernels
        ladder = [2, 4, 8, 16, 64, 256]
        for kernel in kernels:
            reads = [simulate_kernel(kernel, grid,
                                     [CacheLevelConfig(n * 64)],
                                     AlwaysAllocate()).read_bytes
                     for n in ladder]
            assert reads == sorted(reads, reverse=True), kernel.name

    def test_policy_read_ordering(self, sim_kernels):
        kernels, grid = sim_kernels
        levels = [CacheLevelConfig(64 * 64)]
        for kernel in kernels:
            nt = simulate_kernel(kernel, grid, levels, NtBypass())
            claim = simulate_kernel(kernel, grid, levels, AutoClaim())
            always = simulate_kernel(kernel, grid, levels, AlwaysAllocate())
            assert nt.read_bytes <= claim.read_bytes <= always.read_bytes, \
                kernel.name
            assert claim.write_bytes == always.write_bytes
            assert nt.write_bytes <= always.write_bytes
            assert claim.read_bytes + claim.wa_avoided_bytes == always.read_bytes

    def test_write_conservation(self, sim_kernels):
        kernels, grid = sim_kernels
        levels = [CacheLevelConfig(64 * 64)]
        interior = grid.inner_extent * grid.outer_extent
        for kernel in kernels:
            if not kernel.writes():
                continue
            t = simulate_kernel(kernel, grid, levels, AlwaysAllocate())
            assert t.write_bytes >= \
                len({w.array.name for w in kernel.writes()}) * interior * 8

    def test_determinism(self, sim_kernels):
        kernels, grid = sim_kernels
        levels = [CacheLevelConfig(32 * 64)]
        for kernel in kernels[:6]:
            for policy in (AlwaysAllocate(), AutoClaim(), NtBypass()):
                assert simulate_kernel(kernel, grid, levels, policy) == \
                    simulate_kernel(kernel, grid, levels, policy)

    def test_model_matches_simulator_on_random_kernels(self):
        # differential check beyond the bundled suite: a cache generously
        # sized for the LRU reuse distance (largest row gap of any array
        # times the per-sweep traffic of every stream) must land on the
        # fulfilled-LC bound, a stream-preserving tiny cache on the max
        # bound; residual deltas are cold-start rows and halo columns
        from stencilmem.balance import scenario_table as table
        from stencilmem.kernels import derive_stream_counts

        def reuse_cache(kernel, grid, counts):
            gap = 0
            for rows in kernel.read_dk_offsets().values():
                srt = sorted(rows)
                if len(srt) >= 2:
                    gap = max(gap, max(b - a for a, b in zip(srt, srt[1:])))
            if gap == 0:
                return [CacheLevelConfig(capacity=64 * 64)]
            per_sweep = counts.rd_lcb + counts.wr + 2
            cap = 3 * gap * per_sweep * grid.row_stride * grid.element_size
            return [CacheLevelConfig(capacity=-(-cap // 64) * 64)]

        rng = random.Random(99)
        grid = GridSpec(inner_extent=512, outer_extent=384, halo_lo=2, halo_hi=2)
        for i in range(20):
            kernel = random_kernel(rng, i, grid)
            c = derive_stream_counts(kernel)
            t = table(kernel)
            held = simulate_kernel(kernel, grid, reuse_cache(kernel, grid, c),
                                   AlwaysAllocate()).bytes_per_it
            tiny = max(4, 2 * (c.rd_lcb + c.wr) + 8)
            broken = simulate_kernel(kernel, grid, [CacheLevelConfig(tiny * 64)],
                                     AlwaysAllocate()).bytes_per_it
            assert held == pytest.approx(t.lcf_wa.bytes_per_it, rel=0.025), \
                kernel.name
            assert broken == pytest.approx(t.maximum.bytes_per_it, rel=0.015), \
                kernel.name


class TestDecompositionProperties:
    @given(p=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=1000, deadline=None)
    def test_factorization_product(self, p):
        px, py = factorize_ranks(p)
        assert px * py == p
        if is_prime(p) and p > 2:
            assert py == 1

    @given(extent=st.integers(min_value=1, max_value=10 ** 6),
           parts=st.integers(min_value=1, max_value=500))
    @settings(max_examples=1000, deadline=None)
    def test_local_extents_partition(self, extent, parts):
        if extent < parts:
            with pytest.raises(ValueError):
                local_extents(extent, parts)
            return
        chunks = local_extents(extent, parts)
        assert sum(chunks) == extent
        assert len(chunks) == parts
        assert max(chunks) - min(chunks) <= 1
        assert chunks == sorted(chunks, reverse=True)

    @given(inner=st.integers(min_value=1, max_value=10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_halo_overhead_bounds(self, inner):
        h = halo_read_overhead(inner)
        assert 0 < h < 1
        assert halo_read_overhead(inner + 1) < h
