import pytest

from stencilmem.balance import (
    EVADING,
    FULL_WA,
    NO_WA,
    SCENARIOS,
    LayerConditionReport,
    WaPolicy,
    classify,
    code_balance,
    evasion,
    layer_condition,
    min_total_cache,
    nt_plus_evasion,
    scenario_balance,
    scenario_table,
    wa_policy,
)
from stencilmem.kernels import READ, StreamCounts, derive_stream_counts

from refdata import CLASS_I, CLASS_III, KERNEL_NAMES, bounds_of
from test_kernels import make_kernel

AM04 = StreamCounts(n_arrays=2, rd_lcf=1, rd_lcb=2, wr=1, rdwr=0)
AC03 = StreamCounts(n_arrays=6, rd_lcf=6, rd_lcb=6, wr=2, rdwr=2)


class TestCodeBalance:
    def test_am04_corners(self):
        assert code_balance(AM04, True, FULL_WA) == 24
        assert code_balance(AM04, False, FULL_WA) == 32
        assert code_balance(AM04, True, NO_WA) == 16
        assert code_balance(AM04, False, NO_WA) == 24

    def test_ac03_insensitive_to_everything(self):
        for lc in (True, False):
            for policy in (FULL_WA, NO_WA, evasion(1.2)):
                assert code_balance(AC03, lc, policy) == 64

    def test_partial_evasion_am04(self):
        assert code_balance(AM04, True, evasion(1.2)) == pytest.approx(17.6)

    def test_evasion_endpoints_match_corners(self):
        for counts in (AM04, AC03):
            for lc in (True, False):
                assert code_balance(counts, lc, evasion(1.0)) == \
                    code_balance(counts, lc, NO_WA)
                assert code_balance(counts, lc, evasion(2.0)) == \
                    code_balance(counts, lc, FULL_WA)

    def test_monotone_in_residual_ratio(self):
        values = [code_balance(AM04, True, evasion(f))
                  for f in (1.0, 1.1, 1.5, 1.9, 2.0)]
        assert values == sorted(values)

    def test_linear_in_element_size(self):
        assert code_balance(AM04, True, FULL_WA, element_size=4) * 2 == \
            code_balance(AM04, True, FULL_WA, element_size=8)

    def test_nt_policy_charges_one_stream_at_nt_ratio(self):
        two_wa = StreamCounts(n_arrays=5, rd_lcf=3, rd_lcb=4, wr=2, rdwr=0)
        b = code_balance(two_wa, True, nt_plus_evasion(1.17, 1.2))
        assert b == pytest.approx(8 * (3 + 2 + 0.17 + 0.2))

    def test_nt_policy_without_evadable_writes(self):
        assert code_balance(AC03, True, nt_plus_evasion(1.17, 1.2)) == \
            code_balance(AC03, True, evasion(1.2))

    def test_nt_policy_collapses_when_ratios_match(self):
        two_wa = StreamCounts(n_arrays=5, rd_lcf=3, rd_lcb=4, wr=2, rdwr=0)
        for counts in (AM04, AC03, two_wa):
            assert code_balance(counts, True, nt_plus_evasion(1.3, 1.3)) == \
                pytest.approx(code_balance(counts, True, evasion(1.3)))

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError):
            WaPolicy(store_ratio=0.9)
        with pytest.raises(ValueError):
            WaPolicy(store_ratio=1.2, nt_ratio=2.5)

    def test_unknown_wa_model_rejected(self, icx):
        with pytest.raises(ValueError, match="bogus"):
            wa_policy("bogus", icx)


class TestScenarioTable:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_matches_reference(self, suite, name):
        assert scenario_table(suite.kernels[name]).as_tuple() == bounds_of(name)

    def test_pure_store_kernel(self):
        from stencilmem.kernels import WRITE
        table = scenario_table(make_kernel([("a", 0, 0, WRITE)]))
        assert table.as_tuple() == (8, 16, 8, 16)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_ordering(self, suite, name):
        t = scenario_table(suite.kernels[name])
        assert t.minimum.bytes_per_it <= t.lcf_wa.bytes_per_it <= t.maximum.bytes_per_it
        assert t.minimum.bytes_per_it <= t.lcb.bytes_per_it <= t.maximum.bytes_per_it

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_corners_are_the_first_four_scenarios(self, suite, icx, name):
        kernel = suite.kernels[name]
        assert scenario_table(kernel).as_tuple() == tuple(
            scenario_balance(kernel, s, icx) for s in list(SCENARIOS)[:4])

    def test_kernel_without_evasion_is_priced_at_lcf_wa(self, suite, icx):
        kernel = suite.kernels["am04"]
        lcf_wa = scenario_table(kernel).lcf_wa.bytes_per_it
        assert EVADING == {"speci2m", "nt-speci2m"}
        for name in SCENARIOS:
            priced = scenario_balance(kernel, name, icx, evasion_engages=False)
            if name in EVADING:
                assert scenario_balance(kernel, name, icx) < lcf_wa == priced
            else:
                assert priced == scenario_balance(kernel, name, icx)

    def test_intensity_is_flops_over_bytes(self, suite):
        t = scenario_table(suite.kernels["am04"])
        assert t.lcf_wa.intensity == pytest.approx(4 / 24)
        assert t.lcf_wa.bytes_per_it == 24


class TestLayerCondition:
    def test_three_row_stencil_requirement(self):
        # 4-point stencil reading rows k-1, k, k+1 of one array
        kernel = make_kernel([("x", 0, 1, READ), ("x", -1, 0, READ),
                              ("x", 1, 0, READ), ("x", 0, -1, READ)])
        imax = 2048
        rep = layer_condition(kernel, imax, effective_cache=10 ** 9)
        assert rep.total_required == 3 * imax * 8
        assert rep.fulfilled

    def test_status_flips_at_requirement(self):
        kernel = make_kernel([("x", 0, 0, READ), ("x", 0, -1, READ)])
        need = 2 * 100 * 8
        assert layer_condition(kernel, 100, need + 1).fulfilled
        assert not layer_condition(kernel, 100, need).fulfilled
        assert layer_condition(kernel, 100, need).status == "broken"

    def test_single_row_reads_impose_nothing(self):
        kernel = make_kernel([("x", 0, 0, READ), ("x", 1, 0, READ)])
        rep = layer_condition(kernel, 10 ** 6, effective_cache=1)
        assert rep.total_required == 0
        assert rep.fulfilled

    def test_am04_needs_two_rows(self, suite):
        rep = layer_condition(suite.kernels["am04"], 15360, 2 ** 30)
        assert rep.per_array == {"mass_flux_x": 2 * 15360 * 8}

    def test_requirement_scales_the_per_width_bytes(self, suite):
        # the rank sweep prices the width through the stored row_reuse alone
        for kernel in suite:
            per_width = kernel.row_reuse
            for width in (1, 216, 15360):
                rep = layer_condition(kernel, width, 10 ** 6)
                assert rep.per_array == {n: b * width for n, b in per_width.items()}
                assert rep.fulfilled == LayerConditionReport.holds(
                    sum(per_width.values()) * width, 10 ** 6)

    def test_threshold_helper(self):
        assert min_total_cache(2, 15360) == 491520
        assert min_total_cache(3, 2048, 8) == 2 * 3 * 2048 * 8

    def test_rejects_bad_inputs(self, suite):
        with pytest.raises(ValueError):
            layer_condition(suite.kernels["am04"], 0, 100)
        with pytest.raises(ValueError):
            layer_condition(suite.kernels["am04"], 100, 0)


class TestClassify:
    def test_reference_classes(self, suite):
        for name in CLASS_I:
            assert classify(derive_stream_counts(suite.kernels[name])) == "i"
        for name in CLASS_III:
            assert classify(derive_stream_counts(suite.kernels[name])) == "iii"
        others = set(KERNEL_NAMES) - set(CLASS_I) - set(CLASS_III)
        for name in others:
            assert classify(derive_stream_counts(suite.kernels[name])) == "ii"
