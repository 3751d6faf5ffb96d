import json
from dataclasses import replace

import numpy as np
import pytest

from stencilmem.balance import scenario_table
from stencilmem.kernels import GridSpec
from stencilmem.roofline import (
    MachineModel,
    effective_bandwidth,
    kernel_runtime,
    load_machine,
    roofline_predict,
)


class TestMachineModel:
    def test_loads_bundled_configs(self, icx, spr):
        assert icx.cores_per_node == 72
        assert icx.speci2m_factor == 1.2
        assert spr.cores_per_node == 112
        assert spr.speci2m_factor == 1.5

    def test_effective_cache_per_process(self, icx):
        # one core: private L2 plus the whole socket L3, half usable
        assert icx.effective_cache_per_process(1) == (1310720 + 56623104) / 2
        # full node: the per-core share
        assert icx.effective_cache_per_process(72) == 1441792.0

    def test_cache_share_of_a_rank_column_is_the_scalar_share(self, icx, spr):
        # one call prices a whole column of rank counts; each entry is the
        # one-count figure bit for bit, also where count x L2 bytes would
        # overflow an int64
        counts = [*range(1, 1001), 2**43, 2**60]
        ps = np.array(counts, dtype=np.int64)
        for machine in (icx, spr):
            column = machine.effective_cache_per_process(ps)
            one_by_one = [machine.effective_cache_per_process(p) for p in counts]
            assert all(type(share) is float for share in one_by_one)
            assert column.dtype == np.float64
            assert column.view(np.uint64).tolist() == \
                np.array(one_by_one).view(np.uint64).tolist()

    @pytest.mark.parametrize("processes", [0, -3, np.array([4, 0, 9], dtype=np.int64)],
                             ids=["zero", "negative", "column_holding_zero"])
    def test_cache_share_refuses_fewer_than_one_process(self, icx, processes):
        with pytest.raises(ValueError, match="processes must be >= 1"):
            icx.effective_cache_per_process(processes)

    def test_per_core_share_covers_two_worst_case_rows(self, icx):
        # the largest row demand of the bundled suite fits the full-node share
        assert 2 * 15360 * 8 < icx.effective_cache_per_process(72)

    def test_evasion_activation(self, icx, spr):
        assert not icx.wa_evasion_active(2)
        assert icx.wa_evasion_active(3)
        assert not spr.wa_evasion_active(17)
        assert spr.wa_evasion_active(18)

    def test_rejects_nonpositive_fields(self, icx):
        with pytest.raises(ValueError):
            MachineModel(name="bad", peak_flops_per_core=0, mem_bw_per_domain=1,
                         cores_per_domain=1, domains_per_node=1, saturating_cores=1,
                         cores_per_socket=1, cache_l1=1, cache_l2=1, cache_l3=1)

    @pytest.mark.parametrize("field, value, message", [
        ("mem_bw_per_domain", float("nan"), "must be a finite number"),
        ("mem_bw_per_domain", float("inf"), "must be a finite number"),
        ("mem_bw_per_domain", True, "must be a finite number"),
        ("cores_per_domain", 18.5, "must be an integer"),
        ("cache_l3", 5.6e7, "must be an integer"),
        ("speci2m_factor", "1.2", "must be a finite number"),
        ("nt_factor", None, "must be a finite number"),
        ("name", 8360, "must be a string"),
    ], ids=["nan", "inf", "bool", "fractional_cores", "float_cache",
            "factor_string", "factor_null", "name_number"])
    def test_mistyped_field_rejected_in_code(self, icx, field, value, message):
        # the values the machine loader refuses, built without it
        with pytest.raises(ValueError, match=rf"^{field} {message}, not "):
            replace(icx, **{field: value})

    def test_load_rejects_unknown_fields(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"name": "x", "bogus": 1}))
        with pytest.raises(ValueError):
            load_machine(p)


class TestEffectiveBandwidth:
    def test_linear_ramp_then_saturation(self, icx):
        b = icx.mem_bw_per_domain
        assert effective_bandwidth(icx, 1) == pytest.approx(b / 9)
        assert effective_bandwidth(icx, 3) == pytest.approx(b / 3)
        assert effective_bandwidth(icx, 9) == b
        assert effective_bandwidth(icx, 14) == b

    def test_two_full_domains_double(self, icx):
        assert effective_bandwidth(icx, 36) == 2 * effective_bandwidth(icx, 18)

    def test_monotone_in_cores(self, icx):
        values = [effective_bandwidth(icx, c) for c in range(1, 73)]
        assert values == sorted(values)


class TestRooflinePredict:
    def test_core_bound_limit(self, icx):
        p = roofline_predict(1e9, icx, cores=4)
        assert p.bound == "core"
        assert p.performance == 4 * icx.peak_flops_per_core

    def test_memory_bound_at_saturation(self, icx):
        intensity = 0.25  # flops/byte, far below the machine balance
        p = roofline_predict(intensity, icx, cores=9)
        assert p.bound == "memory"
        assert p.performance == pytest.approx(intensity * icx.mem_bw_per_domain)

    def test_bound_flips_at_machine_balance(self, icx):
        cores = 18
        crit = cores * icx.peak_flops_per_core / effective_bandwidth(icx, cores)
        assert roofline_predict(crit * 0.99, icx, cores).bound == "memory"
        assert roofline_predict(crit * 1.01, icx, cores).bound == "core"

    def test_monotone_in_cores(self, icx):
        perf = [roofline_predict(0.2, icx, c).performance for c in range(1, 73)]
        assert perf == sorted(perf)


class TestKernelRuntime:
    def test_am04_full_domain_sweep(self, suite, icx):
        kernel = suite.kernels["am04"]
        grid = GridSpec(15360, 15360, halo_lo=2, halo_hi=2)
        pred = kernel_runtime(kernel, grid, icx, cores=18,
                              scenario=scenario_table(kernel).lcf_wa)
        assert pred.bound == "memory"
        assert pred.runtime == pytest.approx(15360 ** 2 * 24 / 80e9, rel=1e-12)
        assert pred.runtime == pytest.approx(0.0708, abs=2e-4)

    def test_zero_flop_kernel_memory_bound(self, icx):
        from stencilmem.kernels import WRITE
        from test_kernels import make_kernel
        kernel = make_kernel([("a", 0, 0, WRITE)])
        grid = GridSpec(64, 64)
        pred = kernel_runtime(kernel, grid, icx, 1, scenario_table(kernel).lcf_wa)
        assert pred.bound == "memory"

    def test_tiny_balance_core_bound(self, suite, icx):
        from stencilmem.balance import BalanceScenario, NO_WA
        kernel = suite.kernels["ac02"]  # 17 flops/it
        grid = GridSpec(1024, 1024)
        s = BalanceScenario(True, NO_WA, bytes_per_it=1e-9, flops_per_it=17)
        pred = kernel_runtime(kernel, grid, icx, 1, s)
        assert pred.bound == "core"

    def test_memory_runtime_linear_in_balance(self, suite, icx):
        from stencilmem.balance import BalanceScenario, FULL_WA
        kernel = suite.kernels["am04"]
        grid = GridSpec(2048, 2048)
        r = []
        for b in (24.0, 48.0):
            s = BalanceScenario(True, FULL_WA, bytes_per_it=b, flops_per_it=4)
            r.append(kernel_runtime(kernel, grid, icx, 18, s).runtime)
        assert r[1] == pytest.approx(2 * r[0])

    def test_loop_ranges_set_the_iteration_count(self, icx):
        # loop_j_range (0, 9) on a 100x100 grid: 10 x 100 iterations, the
        # count the simulator replays
        from stencilmem.balance import BalanceScenario, FULL_WA
        from stencilmem.cachesim import CacheLevelConfig, simulate_kernel
        from stencilmem.kernels import READ, KernelSpec
        from test_kernels import make_kernel
        grid = GridSpec(100, 100)
        full = make_kernel([("a", 0, 0, READ)])
        strip = KernelSpec(name="strip", accesses=full.accesses, loop_j_range=(0, 9))
        s = BalanceScenario(True, FULL_WA, bytes_per_it=8.0, flops_per_it=0)
        iterations = simulate_kernel(strip, grid, [CacheLevelConfig(64 * 64)]).iterations
        assert iterations == 1000
        assert kernel_runtime(strip, grid, icx, 1, s).runtime == pytest.approx(
            kernel_runtime(full, grid, icx, 1, s).runtime * iterations / 100 ** 2,
            rel=1e-12)

    def test_loop_range_outside_the_grid_is_not_priced(self, icx):
        from stencilmem.balance import BalanceScenario, FULL_WA
        from stencilmem.kernels import READ, KernelError, KernelSpec
        from test_kernels import make_kernel
        full = make_kernel([("a", 0, 0, READ)])
        strip = KernelSpec(name="strip", accesses=full.accesses, loop_j_range=(0, 199))
        s = BalanceScenario(True, FULL_WA, bytes_per_it=8.0, flops_per_it=0)
        with pytest.raises(KernelError, match="strip: loop_j_range"):
            kernel_runtime(strip, GridSpec(100, 100), icx, 1, s)
