from dataclasses import fields, replace

import numpy as np
import pytest

from stencilmem import kernels as kernels_module
from stencilmem.balance import (
    FULL_WA,
    WA_MODELS,
    code_balance,
    evasion,
    layer_condition,
    scenario_table,
    wa_policy,
)
from stencilmem.decomp import (
    RankSweep,
    decompose,
    factorize_ranks,
    halo_read_overhead,
    is_prime,
    local_extents,
    predict_rank_sweep,
)
from stencilmem.kernels import (
    LINE_BYTES,
    READ,
    WRITE,
    Access,
    ArrayDecl,
    GridSpec,
    KernelSpec,
    data_path,
    derive_stream_counts,
    element_size,
    load_suite,
)

from refdata import sweep_rows

M = 15360


def float2row():
    """Two-row float stencil on the bundled extent: 16 elements a line."""
    grid = GridSpec(M, M, halo_lo=2, halo_hi=2, element_size=4)
    a, b = ArrayDecl("a", grid), ArrayDecl("b", grid)
    return KernelSpec(name="float2row", accesses=(
        Access(a, 0, -1, READ), Access(a, 0, 1, READ), Access(b, 0, 0, WRITE)))


class TestFactorize:
    def test_prime_cuts_inner_dimension(self):
        assert factorize_ranks(71) == (71, 1)
        assert factorize_ranks(19) == (19, 1)
        assert factorize_ranks(2) == (2, 1)

    def test_identity(self):
        assert factorize_ranks(1) == (1, 1)

    def test_72_keeps_rows_long(self):
        px, py = factorize_ranks(72)
        assert px * py == 72
        assert min(local_extents(M, px)) >= 1920

    @pytest.mark.parametrize("p", range(1, 100))
    def test_product_invariant(self, p):
        px, py = factorize_ranks(p)
        assert px * py == p
        if is_prime(p) and p > 2:
            assert py == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize_ranks(0)

    def test_matches_the_documented_rule_up_to_5000(self):
        # the rule re-derived by brute force: factors from a smallest-prime-
        # factor sieve, dealt largest first onto the dimension with the
        # smaller product (py on ties); a prime cuts px alone
        n = 5000
        spf = list(range(n + 1))
        for d in range(2, int(n ** 0.5) + 1):
            if spf[d] == d:
                for m in range(d * d, n + 1, d):
                    if spf[m] == m:
                        spf[m] = d
        for p in range(1, n + 1):
            factors, rest = [], p
            while rest > 1:
                factors.append(spf[rest])
                rest //= spf[rest]
            if len(factors) == 1:
                expected = (p, 1)
            else:
                px = py = 1
                for f in sorted(factors, reverse=True):
                    if py <= px:
                        py *= f
                    else:
                        px *= f
                expected = (px, py)
            assert factorize_ranks(p) == expected, p

    def test_is_prime(self):
        primes = [n for n in range(-3, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                          53, 59]


class TestLocalExtents:
    def test_71_ranks(self):
        widths = local_extents(M, 71)
        assert min(widths) == 216
        assert set(widths) == {216, 217}
        assert sum(widths) == M

    def test_19_ranks(self):
        widths = local_extents(M, 19)
        assert max(widths) == 809
        assert sum(widths) == M

    def test_unit_chunks(self):
        assert local_extents(8, 8) == [1] * 8

    def test_larger_chunks_first(self):
        assert local_extents(10, 3) == [4, 3, 3]

    def test_extent_smaller_than_parts(self):
        with pytest.raises(ValueError):
            local_extents(8, 9)

    def test_deterministic(self):
        assert local_extents(M, 71) == local_extents(M, 71)


class TestDecompose:
    def test_invariants(self):
        for p in (1, 2, 19, 36, 38, 71, 72, 360):
            d = decompose(p, M)
            assert d.px * d.py == p
            assert d.min_inner_width == min(local_extents(M, d.px))
            assert sum(d.local_inner_widths) == M
            assert sum(d.local_outer_heights) == M
            assert max(d.local_inner_widths) - min(d.local_inner_widths) <= 1
            assert max(d.local_outer_heights) - min(d.local_outer_heights) <= 1

    def test_large_prime_builds_no_per_rank_tuple(self):
        # a million-wide grid over the prime 999983: one cell a rank; building
        # the per-rank widths would take a 999983-entry tuple
        d = decompose(999983, 10 ** 6)
        assert (d.px, d.py) == (999983, 1)
        assert d.min_inner_width == 1

    def test_unsplittable_extent_raises(self):
        with pytest.raises(ValueError,
                           match="^cannot split extent 15360 into 15361 parts$"):
            decompose(15361, M)
        # 2 x 15361 puts the prime on the outer dimension
        assert factorize_ranks(2 * 15361) == (2, 15361)
        with pytest.raises(ValueError,
                           match="^cannot split extent 15360 into 15361 parts$"):
            decompose(2 * 15361, M)

    def test_more_ranks_than_cells_raises_before_factorizing(self):
        # 16 ranks fill a 4 x 4 grid, 17 can never fit; 2**61 - 1 is a prime
        # whose trial division alone would run for minutes
        d = decompose(16, 4)
        assert (d.px, d.py) == (4, 4)
        for p, extent in ((17, 4), (2 ** 61 - 1, M)):
            with pytest.raises(ValueError, match=f"^cannot split a {extent} x "
                                                 f"{extent} grid into {p} ranks$"):
                decompose(p, extent)


class TestHaloReadOverhead:
    def test_short_rows(self):
        assert halo_read_overhead(216) == pytest.approx(8 / 224)

    def test_long_rows(self):
        assert halo_read_overhead(1920) == pytest.approx(8 / 1928)

    def test_strictly_decreasing(self):
        values = [halo_read_overhead(w) for w in (100, 216, 530, 1920, 15360)]
        assert values == sorted(values, reverse=True)

    def test_asymptotic_limit(self):
        assert halo_read_overhead(10 ** 9) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            halo_read_overhead(0)

    def test_integer_array_gives_the_scalar_values(self):
        # the rank sweep prices a whole column of widths in one call
        widths = np.array([1, 100, 216, 229, 15360])
        for esize in (4, 8):
            assert halo_read_overhead(widths, esize).tolist() == \
                [halo_read_overhead(w, esize) for w in widths.tolist()]
        with pytest.raises(ValueError):
            halo_read_overhead(np.array([216, 0]))


class TestRankSweep:
    def test_single_rank_equals_plain_scenario(self, suite, icx):
        for name in ("am04", "ac03", "pdv01"):
            kernel = suite.kernels[name]
            pred, = sweep_rows(predict_rank_sweep([kernel], [1], icx, FULL_WA)[0])
            assert pred.bytes_per_it == scenario_table(kernel).lcf_wa.bytes_per_it

    def test_am04_prime_spike_is_read_side_only(self, suite, icx):
        # local width 216 is line-aligned, so only the read streams inflate
        kernel = suite.kernels["am04"]
        p1, p71 = sweep_rows(predict_rank_sweep([kernel], [1, 71], icx, FULL_WA)[0])
        h = halo_read_overhead(216)
        counts = derive_stream_counts(kernel)
        assert p71.min_inner_width == 216
        assert p71.bytes_per_it - p1.bytes_per_it == \
            pytest.approx(8 * counts.rd_lcf * h)
        assert 1.03 < 1 + h < 1.04

    def test_class_iii_varies_by_halo_term_only(self, suite, icx):
        kernel = suite.kernels["ac03"]  # no evadable writes
        counts = derive_stream_counts(kernel)
        sweep, = predict_rank_sweep([kernel], [1, 19, 37, 71, 72], icx, FULL_WA)
        for pred in sweep_rows(sweep):
            if pred.px == 1:
                assert pred.bytes_per_it == 8 * (counts.rd_lcf + counts.wr)
                continue
            h = halo_read_overhead(pred.min_inner_width)
            expect = 8 * (counts.rd_lcf * (1 + h) + counts.wr)
            assert pred.bytes_per_it == pytest.approx(expect)

    def test_72_ranks_overhead_below_half_percent(self, suite, icx):
        kernels = list(suite)
        for kernel, sweep in zip(kernels, predict_rank_sweep(kernels, [1, 72], icx,
                                                             FULL_WA)):
            p1, p72 = sweep_rows(sweep)
            assert p72.bytes_per_it / p1.bytes_per_it < 1.005

    def test_prime_flagging(self, suite, icx):
        preds = sweep_rows(predict_rank_sweep([suite.kernels["am04"]], [70, 71, 72],
                                              icx, evasion(1.2))[0])
        assert [p.prime for p in preds] == [False, True, False]
        assert preds[1].bytes_per_it > preds[0].bytes_per_it
        assert preds[1].bytes_per_it > preds[2].bytes_per_it

    def test_prime_flag_matches_is_prime(self, suite, icx):
        ranks = range(1, 1001)
        sweep, = predict_rank_sweep([suite.kernels["am04"]], ranks, icx, FULL_WA)
        assert sweep.prime.tolist() == [is_prime(p) for p in ranks]

    def test_row_offsets_derived_once_per_kernel(self, icx, monkeypatch):
        # each kernel's read rows are derived when it is built; the sweep
        # prices the stored rows and derives none
        calls = []
        derive = kernels_module._read_rows
        monkeypatch.setattr(kernels_module, "_read_rows",
                            lambda kernel: calls.append(1) or derive(kernel))
        kernels = list(load_suite(data_path("cloverleaf_tiny.json")))
        assert len(calls) == len(kernels)
        predict_rank_sweep(kernels, [1, 71, 72], icx, FULL_WA)
        assert len(calls) == len(kernels)

    def test_unaligned_width_adds_write_side_term(self, suite, icx):
        # 67 ranks: prime, width 229 -> partial-line allocate on the write stream
        kernel = suite.kernels["am04"]
        pred, = sweep_rows(predict_rank_sweep([kernel], [67], icx, evasion(1.2))[0])
        width = pred.min_inner_width
        assert width % 8 != 0
        h = halo_read_overhead(width)
        expect = 8 * (1 * (1 + h) + 1 + 0.2 + 1 * h)
        assert pred.bytes_per_it == pytest.approx(expect)

    def test_halo_line_counts_the_kernel_element_size(self, icx):
        # one 64-byte halo line holds 16 floats: at 71 ranks (width 216) each
        # read stream pays 16/232, and 216 floats end in the middle of a
        # line, so the write stream pays the partial-line allocate too
        kernel = float2row()
        counts = derive_stream_counts(kernel)
        p1, p71 = sweep_rows(predict_rank_sweep([kernel], [1, 71], icx, FULL_WA)[0])
        assert p71.min_inner_width == 216
        assert p1.lc_fulfilled and p71.lc_fulfilled
        assert halo_read_overhead(216, 4) == 16 / 232
        assert p71.bytes_per_it - p1.bytes_per_it == pytest.approx(
            4 * (counts.rd_lcf + counts.evadable_writes) * 16 / 232)


def composed_rank_prediction(kernel, p, machine, policy) -> dict:
    """One rank count priced by composing the public steps per p: the
    per-rank widths of the decomposition, a layer-condition report at the
    narrowest one, ``code_balance`` and the halo and partial-line terms.
    Keyed by the :class:`RankSweep` field names."""
    counts = derive_stream_counts(kernel)
    esize = element_size(kernel)
    dec = decompose(p, kernel.grid.inner_extent)
    width = min(dec.local_inner_widths)
    lc = layer_condition(kernel, width, machine.effective_cache_per_process(p))
    bytes_per_it = code_balance(counts, lc.fulfilled, policy, esize)
    if dec.px > 1:
        h = halo_read_overhead(width, esize)
        rd = counts.rd_lcf if lc.fulfilled else counts.rd_lcb
        partial_line_wa = (counts.evadable_writes * h
                           if width * esize % LINE_BYTES else 0.0)
        bytes_per_it += esize * (rd * h + partial_line_wa)
    return dict(ranks=p, px=dec.px, py=dec.py, min_inner_width=width,
                bytes_per_it=bytes_per_it, lc_fulfilled=lc.fulfilled,
                prime=is_prime(p))


@pytest.mark.parametrize("wa", sorted(WA_MODELS))
@pytest.mark.parametrize("machine_name", ["icx", "spr", "small"])
def test_sweep_equals_per_rank_composition(suite, machine_name, wa, request):
    # exact equality: the sweep hoists the per-kernel work out of the rank
    # loop, shares the per-rank work between kernels on one grid and prices
    # as numpy columns, which must not move a single bit of any field. Both
    # bundled machines hold every layer condition over 1..400, so a machine
    # with 16 KiB of L2 and 256 KiB of L3 adds rank counts that break it
    if machine_name == "small":
        machine = replace(request.getfixturevalue("icx"), cache_l2=16 * 1024,
                          cache_l3=256 * 1024)
    else:
        machine = request.getfixturevalue(machine_name)
    policy = wa_policy(wa, machine)
    ranks = range(1, 401)
    kernels = [*suite, float2row()]
    sweeps = predict_rank_sweep(kernels, ranks, machine, policy)
    assert len(sweeps) == len(kernels)
    states = set()
    for kernel, got in zip(kernels, sweeps):
        want = [composed_rank_prediction(kernel, p, machine, policy) for p in ranks]
        for field in fields(RankSweep):
            assert getattr(got, field.name).tolist() == \
                [w[field.name] for w in want], (kernel.name, field.name)
        states |= set(got.lc_fulfilled.tolist())
    assert states == ({True, False} if machine_name == "small" else {True})
