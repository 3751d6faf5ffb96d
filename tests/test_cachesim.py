import copy
import math
from itertools import repeat

import numpy as np
import pytest

from stencilmem import cachesim
from stencilmem.balance import scenario_table
from stencilmem.cachesim import (
    DEFAULT_BENCH_CACHE,
    TRACE_BLOCK,
    TRACE_DTYPE,
    AlwaysAllocate,
    AutoClaim,
    CacheLevelConfig,
    NtBypass,
    array_layout,
    dump_trace,
    evades,
    _Hierarchy,
    _cut,
    _live_lines,
    _replay_kernel,
    _squeeze,
    _window_rows,
    _write_masks,
    gen_trace,
    gen_trace_blocks,
    halo_copy_experiment,
    halo_copy_kernel,
    load_trace,
    simulate,
    simulate_kernel,
    store_ratio,
    store_stream_kernel,
)
from stencilmem.kernels import (READ, WRITE, Access, ArrayDecl, GridSpec, KernelError,
                                KernelSpec, _loop_bounds)

from test_kernels import make_kernel

LINE = 64


def lv(*line_counts):
    return [CacheLevelConfig(capacity=n * LINE) for n in line_counts]


def as_trace(events):
    """A trace of one record block holding (address, READ/WRITE) pairs."""
    return [np.array([(a, m == WRITE) for a, m in events], dtype=TRACE_DTYPE)]


def feed(sim, addrs, writes, access_bytes=8, last=False):
    """Feed events of `access_bytes` bytes each, as ``simulate`` does; with
    `last`, replay the held-back run too, so nothing is held back."""
    sim.feed(addrs, writes, _write_masks(addrs, writes, access_bytes))
    if last:
        sim._replay_held()


def pairs(blocks):
    """The (address, READ/WRITE) pairs of a trace, e.g. from gen_trace."""
    records = np.concatenate(list(blocks))
    return [(a, WRITE if m else READ) for a, m in records.tolist()]


class TestTraceGeneration:
    def test_minimal_trace(self):
        grid = GridSpec(1, 1)
        kernel = make_kernel([("a", 0, 0, READ)])
        events = pairs(gen_trace(kernel, grid))
        assert events == [(0, READ)]

    def test_am04_event_count(self, suite):
        grid = GridSpec(8, 3, halo_lo=2, halo_hi=2)
        events = pairs(gen_trace(suite.kernels["am04"], grid))
        assert len(events) == 8 * 3 * 5

    def test_copy_kernel_order_and_monotonicity(self):
        grid = GridSpec(32, 1)
        kernel = make_kernel([("b", 0, 0, READ), ("a", 0, 0, WRITE)])
        events = pairs(gen_trace(kernel, grid))
        assert len(events) == 64
        reads = [a for a, m in events if m == READ]
        writes = [a for a, m in events if m == WRITE]
        assert events[0][1] == READ and events[1][1] == WRITE
        assert reads == sorted(reads) and writes == sorted(writes)
        assert all(r < w for r, w in zip(reads, writes))  # b laid out before a

    def test_bases_are_aligned(self, suite):
        grid = GridSpec(100, 10, halo_lo=2, halo_hi=2)
        layout = array_layout(suite.kernels["pdv01"], grid)
        origin = (grid.halo_lo * grid.row_stride + grid.halo_lo) * 8
        for base in layout.values():
            assert (base - origin) % 64 == 0

    def test_out_of_bounds_rejected(self):
        grid = GridSpec(8, 8)  # no halos
        kernel = make_kernel([("a", -1, 0, READ)])
        with pytest.raises(KernelError, match="leaves the allocated grid"):
            list(gen_trace(kernel, grid))

    def test_loop_ranges_restrict_iteration(self):
        grid = GridSpec(16, 16, halo_lo=2, halo_hi=2)
        kernel = make_kernel([("a", 0, 0, READ)])
        sub = type(kernel)(name="sub", accesses=kernel.accesses,
                           loop_j_range=(2, 5), loop_k_range=(1, 2))
        assert len(pairs(gen_trace(sub, grid))) == 4 * 2

    @pytest.mark.parametrize("rows", [1, 2, 5, 16, 17])
    def test_blocks_of_any_rows_are_one_stream(self, suite, tmp_path, rows):
        # 35 rows of a 3-row band: blocks of 17 rows leave one row over
        kernel = suite.kernels["pdv01"]
        band = KernelSpec(name="band", accesses=kernel.accesses, loop_k_range=(3, 37))
        grid = kernel.grid.resized(20, 40)
        for k in (kernel, band):
            blocks = list(gen_trace_blocks(k, grid, rows))
            assert all(a.size == blocks[0][0].size for a, _ in blocks[:-1])
            records = [np.rec.fromarrays(b, dtype=TRACE_DTYPE) for b in blocks]
            dump_trace(records, tmp_path / "rows.trace")
            dump_trace(gen_trace(k, grid), tmp_path / "gen.trace")
            assert ((tmp_path / "rows.trace").read_bytes()
                    == (tmp_path / "gen.trace").read_bytes())

    @pytest.mark.parametrize("rows", [0, -1])
    def test_blocks_of_no_rows_rejected(self, suite, rows):
        # a negative step would make an empty trace
        kernel = suite.kernels["am04"]
        with pytest.raises(ValueError, match="at least one row"):
            next(gen_trace_blocks(kernel, kernel.grid.resized(8, 8), rows))


class TestSimulateBasics:
    def test_read_miss_then_hit(self):
        t = simulate(as_trace([(0, READ), (8, READ)]), lv(4))
        assert (t.read_bytes, t.write_bytes) == (LINE, 0)

    def test_write_allocate_and_flush(self):
        t = simulate(as_trace([(0, WRITE)]), lv(4))
        assert (t.read_bytes, t.write_bytes) == (LINE, LINE)

    def test_dirty_eviction(self):
        t = simulate(as_trace([(0, WRITE), (64, WRITE)]), lv(1))
        assert (t.read_bytes, t.write_bytes) == (2 * LINE, 2 * LINE)

    def test_clean_eviction_costs_nothing_extra(self):
        t = simulate(as_trace([(0, READ), (64, READ), (0, READ)]), lv(1))
        assert (t.read_bytes, t.write_bytes) == (3 * LINE, 0)

    def test_traffic_is_line_granular(self, suite):
        grid = GridSpec(64, 16, halo_lo=2, halo_hi=2)
        t = simulate_kernel(suite.kernels["am05"], grid, lv(256))
        assert t.read_bytes % LINE == 0 and t.write_bytes % LINE == 0
        assert t.iterations == 64 * 16

    def test_determinism(self, suite):
        grid = GridSpec(128, 32, halo_lo=2, halo_hi=2)
        args = (suite.kernels["am00"], grid, lv(64), AutoClaim())
        assert simulate_kernel(*args) == simulate_kernel(*args)

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            simulate(as_trace([(0, READ)]), [])

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            simulate([np.array([(0, 7)], dtype=TRACE_DTYPE)], lv(4))

    def test_rejects_access_across_a_line(self):
        # bytes 60..67 touch two lines; charging one would undercount
        with pytest.raises(ValueError, match="address 60 crosses"):
            simulate(as_trace([(0, READ), (60, WRITE)]), lv(64), AlwaysAllocate(), 8)
        assert simulate(as_trace([(60, WRITE)]), lv(64), AlwaysAllocate(), 4) == \
            simulate(as_trace([(0, WRITE)]), lv(64), AlwaysAllocate(), 4)

    @pytest.mark.parametrize("policy", [AlwaysAllocate(), AutoClaim()], ids=["always", "claim"])
    @pytest.mark.parametrize("access_bytes", [8.0, 8.5, True], ids=["8.0", "8.5", "True"])
    def test_access_bytes_must_be_an_integer(self, policy, access_bytes):
        # 8.0 is refused under every policy, though always-allocate needs no
        # write mask and the claim masks cannot shift by a float; an 8.5-byte
        # write at address 56 is refused for its size, not for crossing a line
        with pytest.raises(ValueError, match="access_bytes must be an integer"):
            simulate(as_trace([(56, WRITE)]), lv(4), policy, access_bytes)

    @pytest.mark.parametrize("policy, expected", [
        (AlwaysAllocate(), False), (NtBypass(), True), (AutoClaim(), True)])
    def test_evading_policies(self, policy, expected):
        assert evades(policy) is expected

    def test_multi_level_matches_last_level(self, suite):
        grid = GridSpec(96, 24, halo_lo=2, halo_hi=2)
        kernel = suite.kernels["am00"]
        one = simulate_kernel(kernel, grid, lv(128))
        three = simulate_kernel(kernel, grid, lv(8, 32, 128))
        assert (one.read_bytes, one.write_bytes) == \
            (three.read_bytes, three.write_bytes)

    def test_any_lines_share_a_fully_associative_level(self):
        # lines 0 and 2 would map to one set of any power-of-two number of
        # sets; a level of two lines holds both, a level of one reloads each
        trace = [(0, READ), (128, READ)] * 3
        assert simulate(as_trace(trace), lv(2)).read_bytes == 2 * LINE
        assert simulate(as_trace(trace), lv(1)).read_bytes == 6 * LINE


@pytest.mark.parametrize("value", [65536.0, True])
@pytest.mark.parametrize("record", [CacheLevelConfig, AutoClaim, NtBypass])
def test_size_must_be_an_integer(record, value):
    # a float capacity once failed deep in the replay; a float claim table
    # replayed as its integer part
    with pytest.raises(ValueError, match=rf"integer.*, not {value!r}$"):
        record(value)


class TestAutoClaim:
    def test_fully_written_line_is_claimed(self):
        trace = [(i * 8, WRITE) for i in range(8)]
        t = simulate(as_trace(trace), lv(16), AutoClaim())
        assert (t.read_bytes, t.write_bytes, t.wa_avoided_bytes) == (0, LINE, LINE)

    def test_has_no_inactive_mode(self):
        # an inactive detector replayed as AlwaysAllocate(), which is what
        # `--policy claim-inactive` builds
        with pytest.raises(TypeError):
            AutoClaim(active=False)

    def test_partial_lines_fall_back_to_allocate(self):
        # one element in each of 70 lines; none completes
        trace = [(i * LINE, WRITE) for i in range(70)]
        t = simulate(as_trace(trace), lv(128), AutoClaim(buffer_lines=64))
        assert t.read_bytes == 70 * LINE
        assert t.write_bytes == 70 * LINE
        assert t.wa_avoided_bytes == 0

    def test_read_of_pending_line_forces_fill(self):
        trace = [(0, WRITE), (8, READ)]
        t = simulate(as_trace(trace), lv(16), AutoClaim())
        assert (t.read_bytes, t.write_bytes, t.wa_avoided_bytes) == (LINE, LINE, 0)

    def test_read_after_claim_completion_is_free(self):
        trace = [(i * 8, WRITE) for i in range(8)] + [(8, READ)]
        t = simulate(as_trace(trace), lv(16), AutoClaim())
        assert (t.read_bytes, t.wa_avoided_bytes) == (0, LINE)

    def test_cache_eviction_resolves_pending_claims(self):
        # three partial streams through a 2-line cache: every claim is
        # resolved (by eviction or at the end) as a regular allocate, so
        # the totals equal the always-allocate policy
        trace = [(0, WRITE), (1024, WRITE), (2048, WRITE)]
        claimed = simulate(as_trace(trace), lv(2), AutoClaim())
        plain = simulate(as_trace(trace), lv(2), AlwaysAllocate())
        assert claimed.read_bytes == plain.read_bytes == 3 * LINE
        assert claimed.write_bytes == plain.write_bytes == 3 * LINE
        assert claimed.wa_avoided_bytes == 0

    def test_window_of_one_line(self):
        # with a single-entry detector the first stream is aged out (and
        # pays its fill) as soon as the second one misses; the survivor
        # still completes and is claimed
        trace = []
        for i in range(8):
            trace.append((i * 8, WRITE))
            trace.append((1024 + i * 8, WRITE))
        t = simulate(as_trace(trace), lv(16), AutoClaim(buffer_lines=1))
        assert t.wa_avoided_bytes == LINE
        assert t.read_bytes == LINE
        assert t.write_bytes == 2 * LINE


class TestNtBypass:
    def test_full_line_flushed_without_read(self):
        trace = [(i * 8, WRITE) for i in range(8)]
        t = simulate(as_trace(trace), lv(4), NtBypass())
        assert (t.read_bytes, t.write_bytes) == (0, LINE)

    def test_partial_line_pays_merge_read(self):
        t = simulate(as_trace([(0, WRITE)]), lv(4), NtBypass())
        assert (t.read_bytes, t.write_bytes) == (LINE, LINE)

    def test_writes_do_not_displace_cached_reads(self):
        # reads keep hitting although interleaved NT writes exceed the cache
        trace = [(0, READ)]
        trace += [(1024 + i * LINE, WRITE) for i in range(32)]
        trace += [(0, READ)]
        t = simulate(as_trace(trace), lv(2), NtBypass(combine_buffers=4))
        assert t.read_bytes == LINE + 32 * LINE  # one fill + 32 merge reads

    def test_read_after_nt_write_reloads_from_memory(self):
        t = simulate(as_trace([(0, WRITE), (0, READ)]), lv(4), NtBypass())
        # partial flush (write+read) plus the demand fill
        assert (t.read_bytes, t.write_bytes) == (2 * LINE, LINE)

    def test_nt_store_to_cached_line_is_plain_store(self):
        t = simulate(as_trace([(0, READ), (0, WRITE)]), lv(4), NtBypass())
        # the fill from the read, then an in-place update and final flush
        assert (t.read_bytes, t.write_bytes) == (LINE, LINE)


@pytest.fixture(scope="module")
def am04(suite):
    return suite.kernels["am04"]


@pytest.fixture(scope="module")
def grid(am04):
    return am04.arrays[0].grid.resized(512, 512)


class TestMeasureBalance:
    def test_lc_satisfied_write_allocate(self, am04, grid):
        b = simulate_kernel(am04, grid, lv(4096), AlwaysAllocate()).bytes_per_it
        assert b == pytest.approx(24, abs=0.5)

    def test_lc_broken(self, am04, grid):
        b = simulate_kernel(am04, grid, lv(4), AlwaysAllocate()).bytes_per_it
        assert b == pytest.approx(32, abs=0.5)

    def test_lc_satisfied_claims(self, am04, grid):
        t = simulate_kernel(am04, grid, lv(4096), AutoClaim(buffer_lines=256))
        assert t.bytes_per_it == pytest.approx(16, abs=0.5)

    def test_copy_kernel_split(self):
        # streaming copy under write-allocate: 8 B/it demand read plus
        # 8 B/it allocate fill, 8 B/it written back
        kernel = make_kernel([("b", 0, 0, READ), ("a", 0, 0, WRITE)])
        g = GridSpec(4096, 64)
        t = simulate_kernel(kernel, g, lv(1024), AlwaysAllocate())
        assert t.read_bytes / t.iterations == pytest.approx(16, abs=0.1)
        assert t.write_bytes / t.iterations == pytest.approx(8, abs=0.1)
        ratio = t.total_bytes / (t.iterations * 8)
        assert ratio == pytest.approx(3.0, abs=0.02)
        # the store stream alone sees the classic factor of two
        store_traffic = t.total_bytes - 8 * t.iterations
        assert store_traffic / (8 * t.iterations) == pytest.approx(2.0, abs=0.02)


class TestStoreRatio:
    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_always_allocate_is_two(self, streams):
        assert store_ratio(streams, 1 << 20, AlwaysAllocate()) == 2.0

    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_nt_is_one(self, streams):
        assert store_ratio(streams, 1 << 20, NtBypass()) == 1.0

    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_claim_is_one(self, streams):
        assert store_ratio(streams, 1 << 20, AutoClaim()) == 1.0

    @pytest.mark.parametrize("streams", [0, -1])
    def test_no_stream_is_rejected(self, streams):
        with pytest.raises(ValueError, match="at least one store stream"):
            store_ratio(streams, 1 << 20, AlwaysAllocate())

    def test_store_kernel_shape(self):
        kernel, grid = store_stream_kernel(3, 4096)
        assert len(kernel.writes()) == 3
        assert grid.inner_extent == 4096


def halo_copy_oracle(inner, halo, rows, esize=8, line=64):
    """Byte-coverage enumeration of the destination lines.

    Independent of the simulator: walks the written byte ranges row by row,
    unions them per line, and counts partially covered lines (each pays one
    fill). Source reads touch the same line set as destination writes.
    """
    period = inner + halo
    covered: dict[int, int] = {}
    for r in range(rows):
        start = r * period * esize
        end = start + inner * esize
        for ln in range(start // line, (end - 1) // line + 1):
            lo = max(start, ln * line)
            hi = min(end, (ln + 1) * line)
            covered[ln] = covered.get(ln, 0) + (hi - lo)
    dest_lines = len(covered)
    partial = sum(1 for v in covered.values() if v < line)
    return (dest_lines + partial) / dest_lines


class TestHaloCopy:
    @pytest.mark.parametrize("halo", [0, 8, 16])
    def test_aligned_halos_avoid_all_allocates(self, halo):
        assert halo_copy_experiment(216, halo, 1 << 21, AutoClaim()) == 1.0

    @pytest.mark.parametrize("halo", [1, 2, 3, 5, 7])
    def test_misaligned_halos_match_coverage_oracle(self, halo):
        inner, total = 216, 1 << 21
        rows = total // (inner * 8)
        got = halo_copy_experiment(inner, halo, total, AutoClaim())
        assert got == pytest.approx(halo_copy_oracle(inner, halo, rows), rel=1e-12)
        assert got > 1.01

    def test_long_rows_shrink_the_penalty(self):
        short = halo_copy_experiment(216, 3, 1 << 21, AutoClaim())
        long = halo_copy_experiment(1920, 3, 1 << 21, AutoClaim())
        assert 1.0 < long < short

    def test_long_aligned_rows_fully_claimed(self):
        assert halo_copy_experiment(1920, 0, 1 << 21, AutoClaim()) == 1.0

    def test_always_allocate_reference(self):
        # without evasion every destination line is read once regardless of
        # alignment: ratio 2.0
        assert halo_copy_experiment(216, 0, 1 << 21, AlwaysAllocate()) == 2.0

    @pytest.mark.parametrize("inner", [0, -8])
    def test_empty_rows_are_rejected(self, inner):
        with pytest.raises(ValueError, match="at least one inner element"):
            halo_copy_experiment(inner, 2, 1 << 20, AutoClaim())

    def test_kernel_layout(self):
        kernel, grid = halo_copy_kernel(216, 5, 100)
        assert grid.row_stride == 221
        assert grid.outer_extent == 100
        assert len(kernel.reads()) == len(kernel.writes()) == 1


class TestConcurrentInstances:
    def test_parallel_simulations_match_sequential(self, suite):
        from concurrent.futures import ThreadPoolExecutor
        grid = GridSpec(96, 16, halo_lo=2, halo_hi=2)
        jobs = [(suite.kernels[n], policy)
                for n in ("am04", "ac03", "pdv00")
                for policy in (AlwaysAllocate(), AutoClaim(), NtBypass())]
        sequential = [simulate_kernel(k, grid, lv(64), p) for k, p in jobs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda job: simulate_kernel(job[0], grid, lv(64), job[1]), jobs))
        assert parallel == sequential


class TestTraceIO:
    def test_round_trip(self, suite, tmp_path):
        grid = GridSpec(32, 8, halo_lo=2, halo_hi=2)
        kernel = suite.kernels["am04"]
        path = tmp_path / "am04.trace"
        dump_trace(gen_trace(kernel, grid), path)
        events = pairs(gen_trace(kernel, grid))
        assert path.stat().st_size == 9 * len(events)
        assert pairs(load_trace(path)) == events

    def test_file_of_two_and_a_half_blocks(self, tmp_path, monkeypatch):
        # the blocks are read one at a time from the open file, which is
        # closed when the iteration ends, and they are the records of the
        # whole file cut every TRACE_BLOCK
        size = TRACE_BLOCK * 5 // 2
        records = np.empty(size, dtype=TRACE_DTYPE)
        records["address"] = np.arange(size, dtype=np.uint64) * np.uint64(8)
        records["mode"] = np.arange(size) % 3 == 0
        path = tmp_path / "t.trace"
        dump_trace([records], path)
        opened = []

        def recording(*args):
            opened.append(open(*args))
            return opened[-1]

        monkeypatch.setattr(cachesim, "open", recording, raising=False)
        blocks = load_trace(path)
        assert opened == []
        blocks = list(blocks)
        assert [b.size for b in blocks] == [TRACE_BLOCK, TRACE_BLOCK, TRACE_BLOCK // 2]
        whole = np.fromfile(path, dtype=TRACE_DTYPE)
        for i, block in enumerate(blocks):
            assert np.array_equal(block, whole[i * TRACE_BLOCK:(i + 1) * TRACE_BLOCK])
        assert len(opened) == 1 and opened[0].closed

    def test_truncated_file_raises_at_the_call(self, suite, tmp_path):
        path = tmp_path / "t.trace"
        dump_trace(gen_trace(suite.kernels["am04"], GridSpec(32, 8, halo_lo=2, halo_hi=2)), path)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 4)
        with pytest.raises(ValueError, match="whole number of 9-byte trace records"):
            load_trace(path)

    @pytest.mark.parametrize("policy", [AlwaysAllocate(), AutoClaim(), NtBypass()],
                             ids=["always", "claim", "nt"])
    def test_replayed_traffic_matches_direct(self, suite, tmp_path, policy):
        grid = GridSpec(128, 96, halo_lo=2, halo_hi=2)
        kernel = suite.kernels["am00"]
        path = tmp_path / "t.trace"
        dump_trace(gen_trace(kernel, grid), path)
        events = 128 * 96 * len(kernel.accesses)
        assert [b.size for b in load_trace(path)] == [TRACE_BLOCK, events - TRACE_BLOCK]
        direct = simulate_kernel(kernel, grid, lv(64), policy)
        replayed = simulate(load_trace(path), lv(64), policy,
                            access_bytes=grid.element_size)
        assert (direct.read_bytes, direct.write_bytes, direct.wa_avoided_bytes) == \
            (replayed.read_bytes, replayed.write_bytes, replayed.wa_avoided_bytes)


class TestBlockCuts:
    """``simulate`` gives the same traffic wherever a trace is cut into
    blocks: a run of one line that goes on in the next block stays one run."""

    POLICIES = (AlwaysAllocate(), AutoClaim(buffer_lines=1), AutoClaim(buffer_lines=2),
                NtBypass(combine_buffers=1), NtBypass(combine_buffers=2))

    @staticmethod
    def traffic(records, cuts, policy, levels):
        t = simulate(np.split(records, cuts), levels, policy)
        return t.read_bytes, t.write_bytes, t.wa_avoided_bytes

    def test_every_cut_of_a_line_written_in_two_runs(self):
        # four half-line writes to line 0, a whole line 1, the rest of line 0
        [records] = as_trace([(a, WRITE) for a in (0, 8, 16, 24, *range(64, 128, 8),
                                                    32, 40, 48, 56)])
        for policy in (AutoClaim(buffer_lines=1), NtBypass(combine_buffers=1),
                       AlwaysAllocate()):
            whole = self.traffic(records, [], policy, lv(64))
            for cut in range(records.size + 1):
                cut_once = self.traffic(records, [cut], policy, lv(64))
                assert cut_once == whole, (policy, cut)

    def test_random_partial_line_writes(self):
        # runs of consecutive 8-byte writes inside random lines of a small
        # pool, through a 4-line cache, cut at one to three random places
        rng = np.random.default_rng(2023)
        for case in range(500):
            addrs = []
            for line, first in zip(rng.integers(12, size=12), rng.integers(8, size=12)):
                count = int(rng.integers(1, 9 - first))
                addrs += [int(line) * LINE + 8 * e for e in range(first, first + count)]
            [records] = as_trace([(a, WRITE) for a in addrs])
            cuts = np.sort(rng.integers(0, records.size + 1, size=rng.integers(1, 4)))
            for policy in self.POLICIES:
                assert (self.traffic(records, cuts, policy, lv(4))
                        == self.traffic(records, [], policy, lv(4))), (case, policy, cuts)


class TestSmallElements:
    def test_four_byte_elements_claimable(self):
        grid = GridSpec(inner_extent=256, outer_extent=1, element_size=4)
        kernel = make_kernel([("a", 0, 0, WRITE)])
        t = simulate_kernel(kernel, grid, lv(64), AutoClaim())
        # 256 * 4 B = 16 fully written lines
        assert (t.read_bytes, t.wa_avoided_bytes) == (0, 16 * LINE)

    def test_four_byte_balance_halves(self, suite):
        kernel = make_kernel([("a", 0, 0, READ), ("c", 0, 0, WRITE)])
        g8 = GridSpec(256, 16)
        g4 = GridSpec(256, 16, element_size=4)
        b8 = simulate_kernel(kernel, g8, lv(512)).bytes_per_it
        b4 = simulate_kernel(kernel, g4, lv(512)).bytes_per_it
        assert b4 == pytest.approx(b8 / 2)


def row_lines(grid) -> int:
    """Whole cache lines of one allocated grid row, rounded up."""
    return -(-grid.row_stride * grid.element_size // LINE)


def lc_hold(kernel, grid):
    """Twice every (array, row) the kernel touches: the layer condition holds."""
    rows = len({(a.array.name, a.dk) for a in kernel.accesses})
    return lv(2 * rows * row_lines(grid))


def below_one_row(kernel, grid):
    return lv(row_lines(grid) - 2)


def lc_broken(kernel, grid):
    """Half of every (array, row) the kernel touches, but at least one row:
    the layer condition fails."""
    rows = len({(a.array.name, a.dk) for a in kernel.accesses})
    return lv(max(1, rows // 2) * row_lines(grid))


FF_POLICIES = {"always": AlwaysAllocate(), "claim": AutoClaim(), "nt": NtBypass()}
FF_CACHES = {"lc-hold": lc_hold, "below-one-row": below_one_row, "lc-broken": lc_broken}
# every policy, with WC buffers and claim tables of one and of many lines
ALL_POLICIES = {"always": AlwaysAllocate(), "claim": AutoClaim(), "claim-1": AutoClaim(1),
                "claim-80": AutoClaim(80), "nt": NtBypass(), "nt-1": NtBypass(1),
                "nt-11": NtBypass(11)}


@pytest.fixture
def cuts(monkeypatch):
    """Record the runs each engine replays: per engine, one list per block
    of runs (a period, a block fed, or the run held back at the end) of
    (line, first event writes, last event writes, coverage), on whichever
    path the block takes. The write flags that the per-line replay reads
    must be the last writes that the run loop reads."""
    block, loop = _Hierarchy._replay, _Hierarchy._replay_runs
    calls, inside = {}, set()

    def replay(sim, runs, moved=0):
        lines, last_w, lists, _ = runs
        if lines.size:
            first_w, any_w, cov = lists()
            assert last_w.tolist() == any_w
            calls.setdefault(sim, []).append(
                list(zip((lines + np.uint64(moved)).tolist(), first_w, any_w, cov)))
        inside.add(sim)
        block(sim, runs, moved)
        inside.discard(sim)

    def replay_runs(sim, *runs):
        if sim not in inside:   # the held-back run, replayed on its own
            calls.setdefault(sim, []).append(list(zip(*runs)))
        loop(sim, *runs)

    monkeypatch.setattr(_Hierarchy, "_replay", replay)
    monkeypatch.setattr(_Hierarchy, "_replay_runs", replay_runs)
    return calls


def run_loop_lines(sim, lines, any_w):
    """Replay in the run loop what ``_feed_lines`` is sent: under
    always-allocate, the one policy that reaches it, the run loop reads
    neither a run's first write nor its coverage."""
    sim._replay_runs(lines.tolist(), repeat(False), any_w.tolist(), repeat(0))


def squeezes(kernel, levels, policy) -> bool:
    """Whether ``_replay_kernel`` squeezes a sweep's rows by visit: on a
    level of more than twice as many lines as the kernel has accesses and,
    under NT, with at least twice as many WC buffers as written arrays."""
    buffers = policy.combine_buffers if isinstance(policy, NtBypass) else math.inf
    return levels[-1].lines > 2 * len(kernel.accesses) and 2 * len(kernel.writes()) <= buffers


def fed_rows(kernel, grid, rows, squeeze, policy):
    """The events fed of the first `rows` rows of the whole sweep's trace,
    squeezed by visit if `squeeze`, and their write masks if `policy`
    evades."""
    j0, j1, _, _ = _loop_bounds(kernel, grid)
    addrs, writes = next(gen_trace_blocks(kernel, grid, rows))
    keep, masks = _squeeze(kernel, j1 - j0 + 1, grid.element_size, addrs, squeeze,
                           evades(policy))
    return addrs[keep], writes[keep], masks, keep


def kept_lines(kernel, grid, policy) -> int:
    """Distinct lines the sweep leaves in the cache (NT stores keep none)."""
    nt = isinstance(policy, NtBypass)
    lines = [addrs[~writes] if nt else addrs for addrs, writes in gen_trace_blocks(kernel, grid)]
    return np.unique(np.concatenate(lines) // LINE).size


def beyond_footprint(lines):
    return lv(lines + 8)


def fills_mid_sweep(lines):
    return lv(lines * 3 // 4)


def fills_early(lines):
    return lv(lines // 4)


FILL_CACHES = {"beyond-footprint": beyond_footprint, "fills": fills_mid_sweep,
               "fills-early": fills_early}


def trace_reuse_rows(kernel, grid) -> int:
    """The most iteration rows between two touches of one line in the trace."""
    j0, j1, _, _ = _loop_bounds(kernel, grid)
    lines = np.concatenate([addrs for addrs, _ in gen_trace_blocks(kernel, grid)]) // LINE
    rows = np.arange(lines.size) // ((j1 - j0 + 1) * len(kernel.accesses))
    order = np.lexsort((rows, lines))
    lines, rows = lines[order], rows[order]
    same = lines[1:] == lines[:-1]
    return max(1, int((rows[1:] - rows[:-1])[same].max(initial=0)))


def random_kernel(rng) -> tuple[KernelSpec, GridSpec]:
    """A small kernel of 1-3 arrays (any base alignment, so some share a
    line) with 1-6 accesses inside halos of 0-5, 4- or 8-byte elements and,
    half of the time, loop ranges."""
    esize = int(rng.choice([4, 8]))
    lo, hi = (int(h) for h in rng.integers(0, 6, 2))
    grid = GridSpec(int(rng.integers(1, 25)), int(rng.integers(1, 30)),
                    halo_lo=lo, halo_hi=hi, element_size=esize)
    arrays = [ArrayDecl(f"a{i}", grid, esize << int(rng.integers(0, 6)))
              for i in range(int(rng.integers(1, 4)))]
    accesses, seen, written = [], set(), set()
    for _ in range(int(rng.integers(1, 7))):
        arr = arrays[int(rng.integers(len(arrays)))]
        dj, dk = (int(d) for d in rng.integers(-lo, hi + 1, 2))
        mode = WRITE if arr.name not in written and rng.random() < 0.3 else READ
        if (arr.name, dj, dk, mode) not in seen:
            seen.add((arr.name, dj, dk, mode))
            if mode == WRITE:
                written.add(arr.name)
            accesses.append(Access(arr, dj, dk, mode))
    ranges = {}
    if rng.random() < 0.5:
        for key, extent in (("loop_j_range", grid.inner_extent),
                            ("loop_k_range", grid.outer_extent)):
            a, b = sorted(int(v) for v in rng.integers(0, extent, 2))
            ranges[key] = (a, b)
    return KernelSpec("random", tuple(accesses), **ranges), grid


class TestFastForward:
    """simulate_kernel charges the steady state of a sweep in bulk; the
    reference is the full replay of the same trace through ``simulate``."""

    @staticmethod
    def replay(kernel, grid, levels, policy):
        """Assert that simulate_kernel matches the full replay bit for bit;
        return the fast-forward engine, which records its rows."""
        got = simulate_kernel(kernel, grid, levels, policy)
        want = simulate(gen_trace(kernel, grid), levels, policy, grid.element_size)
        assert ((got.read_bytes, got.write_bytes, got.wa_avoided_bytes)
                == (want.read_bytes, want.write_bytes, want.wa_avoided_bytes)), kernel.name
        sim = _replay_kernel(kernel, grid, levels, policy)
        assert sim.traffic(got.iterations) == got
        k0, k1 = kernel.loop_k_range or (0, grid.outer_extent - 1)
        assert sim.replayed_rows + sim.bulk_rows == k1 - k0 + 1
        return sim

    @staticmethod
    def fills(kernel, grid, levels) -> bool:
        """Whether the sweep touches more distinct lines than the level holds."""
        lines = np.concatenate([addrs // LINE for addrs, _ in gen_trace_blocks(kernel, grid)])
        return np.unique(lines).size > levels[-1].lines

    @pytest.mark.parametrize("cache", FF_CACHES)
    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_suite_at_256_wide(self, suite, cache, policy):
        for kernel in suite:
            grid = kernel.grid.resized(256, 32)
            levels = FF_CACHES[cache](kernel, grid)
            sim = self.replay(kernel, grid, levels, FF_POLICIES[policy])
            # the identity above holds trivially if nothing is skipped
            assert self.fills(kernel, grid, levels), kernel.name
            assert sim.bulk_rows > 0, kernel.name

    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_four_byte_elements(self, suite, policy):
        # 260 floats a row are 16.25 lines: a period of 4 rows
        for kernel in suite:
            grid = GridSpec(256, 40, halo_lo=2, halo_hi=2, element_size=4)
            sim = self.replay(kernel, grid, lc_hold(kernel, grid), FF_POLICIES[policy])
            assert sim.bulk_rows > 0 and sim.bulk_rows % 4 == 0, kernel.name

    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_loop_k_range(self, suite, policy):
        am04 = suite.kernels["am04"]
        kernel = KernelSpec(name="band", accesses=am04.accesses,
                            loop_j_range=(1, 250), loop_k_range=(3, 36))
        grid = am04.grid.resized(256, 40)
        sim = self.replay(kernel, grid, lc_hold(kernel, grid), FF_POLICIES[policy])
        assert sim.bulk_rows > 0

    @pytest.mark.parametrize("rows", [1, 6, 7])
    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_fewer_rows_than_the_warm_up(self, suite, policy, rows):
        for name in ("am04", "pdv01"):
            kernel = suite.kernels[name]
            grid = kernel.grid.resized(256, rows)
            sim = self.replay(kernel, grid, lc_hold(kernel, grid), FF_POLICIES[policy])
            # the lines the sweep has left are retired after each period,
            # full level or not, so both kernels repeat after their fourth
            # row and 6 or 7 rows leave two to charge
            assert sim.bulk_rows == (2 if rows > 1 else 0)

    @pytest.mark.parametrize("policy", [AutoClaim(buffer_lines=1), AutoClaim()])
    def test_run_of_writes_across_a_period_cut(self, policy):
        # one write stream over rows of 12 + 2 halo doubles, a period of 4
        # rows: the last store before a period cut and the first after it
        # hit one line, which the full replay splits only every 16 rows
        kernel = make_kernel([("a", 0, 0, WRITE)])
        sim = self.replay(kernel, GridSpec(12, 64, halo_lo=1, halo_hi=1), lv(4), policy)
        assert sim.bulk_rows > 0

    @pytest.mark.parametrize("cache", FILL_CACHES)
    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_suite_before_the_level_fills(self, suite, cache, policy):
        # 192 rows of 16: the claim table of 64 lines takes a few dozen rows
        # to repeat, and the two smaller levels fill at about 3/4 of the sweep
        for kernel in suite:
            grid = kernel.grid.resized(16, 192)
            lines = kept_lines(kernel, grid, FF_POLICIES[policy])
            levels = FILL_CACHES[cache](lines)
            sim = self.replay(kernel, grid, levels, FF_POLICIES[policy])
            # the left lines are retired, so the bulk runs to the end of the
            # sweep, also on the two levels that the full replay fills
            assert sim.fill_rows > 0, kernel.name
            assert sim.replayed_rows + sim.fill_rows == grid.outer_extent, kernel.name
            if cache == "beyond-footprint":
                assert len(sim.lru) < lines, kernel.name
            else:
                assert lines > levels[-1].lines, kernel.name

    @pytest.mark.parametrize("halo", range(18))
    def test_halo_copy_against_full_replay(self, halo):
        # the store-copy benchmark's sizes: 75 rows, and 13 of the 18 levels
        # fill only in the last rows
        kernel, grid = halo_copy_kernel(216, halo, 128 * 1024 // (216 * 8))
        for policy in FF_POLICIES.values():
            sim = self.replay(kernel, grid, DEFAULT_BENCH_CACHE, policy)
            assert sim.fill_rows > 0
        want = simulate(gen_trace(kernel, grid), DEFAULT_BENCH_CACHE, AutoClaim())
        assert (halo_copy_experiment(216, halo, 128 * 1024, AutoClaim())
                == want.read_bytes / want.write_bytes)

    @pytest.mark.parametrize("case", ["am04", "halo-copy"])
    def test_every_replayed_row_comes_from_gen_trace_blocks(self, suite, monkeypatch, cuts,
                                                            case):
        # the benchmark counts the events of a sweep by replacing the module's
        # gen_trace_blocks: every event that simulate_kernel replays must come
        # through it, from one call of one period a block, of which it pulls
        # the first block alone. Every later period and the tail are that
        # period moved by whole lines, so the runs replayed are those that
        # ``feed`` cuts from the squeezed rows of the whole sweep's trace, at
        # the same rows
        if case == "halo-copy":
            kernel, grid = halo_copy_kernel(216, 3, 75)
        else:
            kernel = suite.kernels[case]
            grid = kernel.grid.resized(16, 192)
        policy = AutoClaim()
        levels = fills_mid_sweep(kept_lines(kernel, grid, policy))
        calls, drawn = [], []
        gen = cachesim.gen_trace_blocks

        def counting(*args):
            calls.append(args)
            for block in gen(*args):
                drawn.append(block[0])
                yield block

        monkeypatch.setattr(cachesim, "gen_trace_blocks", counting)
        sim = _replay_kernel(kernel, grid, levels, policy)
        period = LINE // math.gcd(grid.row_stride * grid.element_size, LINE)
        assert calls == [(kernel, grid, period)]
        j0, j1, _, _ = _loop_bounds(kernel, grid)
        assert [addrs.size for addrs in drawn] == [period * (j1 - j0 + 1) * len(kernel.accesses)]
        assert sim.bulk_rows > 0 and sim.replayed_rows > period
        # each level holds more than twice as many lines as the kernel has
        # accesses, so rows are fed by visit
        addrs, writes, masks, keep = fed_rows(kernel, grid, sim.replayed_rows, True, policy)
        assert keep.size < sim.replayed_rows * (j1 - j0 + 1) * len(kernel.accesses)
        ref = _Hierarchy(levels, policy)
        ref.feed(addrs, writes, masks)
        ref._replay_held()
        assert sum(cuts[sim], []) == sum(cuts[ref], [])

    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_stencil_sweep_draws_and_squeezes_only_what_it_feeds(self, suite, monkeypatch,
                                                               policy):
        # the cost of a sweep outside its replay, counted: the four
        # configurations of the benchmark's stencil-sweep at 128 x 128 (the
        # layer condition holding at twice the rows touched under each
        # policy, and always-allocate on a level short of one row) draw at
        # most one period of rows beyond the rows they replay, and under
        # always-allocate no write masks are built, as none is read
        drawn, masks = [], []
        gen, squeeze = cachesim.gen_trace_blocks, cachesim._squeeze

        def counting(kernel, grid, rows):
            for addrs, writes in gen(kernel, grid, rows):
                drawn.append(addrs.size)
                yield addrs, writes

        def recording(*args):
            keep, m = squeeze(*args)
            masks.append(m)
            return keep, m

        monkeypatch.setattr(cachesim, "gen_trace_blocks", counting)
        monkeypatch.setattr(cachesim, "_squeeze", recording)
        policy = FF_POLICIES[policy]
        for kernel in suite:
            grid = kernel.grid.resized(128, 128)
            row_bytes = grid.row_stride * grid.element_size
            rows = len({(a.array.name, a.dk) for a in kernel.accesses})
            configs = [lv(-(-2 * rows * row_bytes // LINE))]
            if isinstance(policy, AlwaysAllocate):
                configs.append(lv((row_bytes - 1) // LINE))
            for levels in configs:
                drawn.clear()
                masks.clear()
                sim = _replay_kernel(kernel, grid, levels, policy)
                period = LINE // math.gcd(row_bytes, LINE)
                row_events = 128 * len(kernel.accesses)
                assert sum(drawn) <= (sim.replayed_rows + period) * row_events, kernel.name
                assert sim.bulk_rows > 0, kernel.name
                (m,) = masks
                assert (m is None) == isinstance(policy, AlwaysAllocate), kernel.name

    @pytest.mark.parametrize("streams", range(1, 9))
    @pytest.mark.parametrize("policy", [AlwaysAllocate(), NtBypass(), AutoClaim()],
                             ids=["always", "nt", "claim"])
    def test_store_ratio_against_full_replay(self, streams, policy):
        volume = 256 * 1024
        lines = volume // (streams * LINE)
        kernel, grid = store_stream_kernel(streams, lines * 8)
        rows = grid.resized(8, lines)
        # rows of one line each hold the same trace, byte for byte
        assert np.array_equal(np.concatenate(list(gen_trace(kernel, grid))),
                              np.concatenate(list(gen_trace(kernel, rows))))
        want = simulate(gen_trace(kernel, grid), DEFAULT_BENCH_CACHE, policy)
        assert store_ratio(streams, volume, policy) == want.total_bytes / (lines * streams * LINE)
        sim = self.replay(kernel, rows, DEFAULT_BENCH_CACHE, policy)
        assert sim.fill_rows > 0

    @pytest.mark.parametrize("lines", [16, 128])
    @pytest.mark.parametrize("policy", [AlwaysAllocate(), AutoClaim()],
                             ids=["always", "claim"])
    def test_bulk_runs_past_the_first_overflow(self, policy, lines):
        # two store streams 100 lines apart, one line each a row: a level of
        # 16 lines fills after 8 rows, one of 128 after 64. From the third
        # row on, the lines of all but the last two rows are retired, so the
        # level repeats after the third row and the other 97 are charged in
        # bulk to the end.
        kernel, grid = store_stream_kernel(2, 100 * 8)
        sim = self.replay(kernel, grid.resized(8, 100), lv(lines), policy)
        assert (sim.replayed_rows, sim.fill_rows, sim.bulk_rows) == (3, 97, 97)

    @pytest.mark.parametrize("policy", [AlwaysAllocate(), AutoClaim()],
                             ids=["always", "claim"])
    def test_retire_frees_room_on_a_full_level(self, monkeypatch, policy):
        # rows of one line, each read two rows after it is written: every
        # row brings one new line into a level of seven, which is full after
        # five rows. From then on each retire drops one line that the sweep
        # has left from the full level, and the next period's miss takes
        # that room instead of evicting, so the level is full again at the
        # next retire: the run loop must read the room at each call
        retire, sizes = _Hierarchy.retire, []

        def recording(sim, live, moved):
            before = len(sim.lru)
            retire(sim, live, moved)
            sizes.append((before, len(sim.lru)))

        monkeypatch.setattr(_Hierarchy, "retire", recording)
        kernel = make_kernel([("a", 0, -2, READ), ("a", 0, 0, WRITE)])
        grid = GridSpec(4, 40, halo_lo=2, halo_hi=2)
        sim = _replay_kernel(kernel, grid, lv(7), policy)
        assert sizes == [(7, 6)] * 3
        assert (sim.replayed_rows, sim.bulk_rows, sim.fill_rows) == (7, 33, 0)
        self.replay(kernel, grid, lv(7), policy)

    @pytest.mark.parametrize("case, policy", [
        (case, policy) for case in ("am04", "pdv01", "halo-copy", "held-line")
        for policy in FF_POLICIES])
    def test_full_replay_evicts_only_left_lines(self, suite, case, policy):
        # the bulk runs to the end on a level that the sweep fills, which is
        # right because LRU then evicts no line that the sweep touches again:
        # row by row, the full replay evicts each line after its last touch.
        # In "halo-copy" the claim table fills during the bulk. In
        # "held-line" rows are two lines, and the last run of each row, held
        # back, writes a line that a read touched five rows earlier.
        if case == "halo-copy":
            kernel, grid = halo_copy_kernel(216, 3, 75)
        elif case == "held-line":
            kernel = make_kernel([("a", 0, 5, READ), ("a", 0, 0, WRITE)])
            grid = GridSpec(4, 100, halo_lo=5, halo_hi=7)
        else:
            kernel = suite.kernels[case]
            grid = kernel.grid.resized(16, 192)
        policy = FF_POLICIES[policy]
        levels = fills_mid_sweep(kept_lines(kernel, grid, policy))
        sim = self.replay(kernel, grid, levels, policy)
        _, _, k0, k1 = _loop_bounds(kernel, grid)
        assert sim.fill_rows > 0 and sim.replayed_rows + sim.fill_rows == k1 - k0 + 1
        addrs, writes = (np.concatenate(a) for a in zip(*gen_trace_blocks(kernel, grid)))
        rows = np.split(np.arange(addrs.size), k1 - k0 + 1)
        last_touch = {line: k for k, row in enumerate(rows)
                      for line in (addrs[row] // LINE).tolist()}
        ref = _Hierarchy(levels, policy)
        cached, evicted = set(), 0
        for k, row in enumerate(rows):
            feed(ref, addrs[row], writes[row])
            now = set(ref.lru)
            # a run held back from row k - 1 may evict in row k
            assert all(last_touch[line] <= k for line in cached - now)
            evicted += len(cached - now)
            cached = now
        assert evicted > 0

    @pytest.mark.parametrize("cache", FILL_CACHES)
    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_line_reused_five_rows_later(self, cache, policy):
        # a row of `a` is written 3 rows ahead and read 2 rows behind: five
        # rows apart, and rows of 16 doubles are two whole lines, a period of
        # one row, so the live lines must reach five rows back
        kernel = make_kernel([("a", 0, -2, READ), ("b", 0, 0, READ), ("a", 0, 3, WRITE)])
        grid = GridSpec(10, 160, halo_lo=3, halo_hi=3)
        assert _window_rows(kernel, grid) >= trace_reuse_rows(kernel, grid) == 5
        levels = FILL_CACHES[cache](kept_lines(kernel, grid, FF_POLICIES[policy]))
        sim = self.replay(kernel, grid, levels, FF_POLICIES[policy])
        assert sim.fill_rows > 0

    @pytest.mark.parametrize("cache", FILL_CACHES)
    @pytest.mark.parametrize("policy", FF_POLICIES)
    def test_line_across_two_rows_reused_a_span_later(self, cache, policy):
        # rows of 12 doubles are 1.5 lines, so every other line holds the
        # last element of one row and the first of the next; `a` is read 2
        # rows ahead at the one and in the row at the other, so the line is
        # touched again 3 rows later, and nothing touches it in between: the
        # row span bound is exact here
        grid = GridSpec(8, 160, halo_lo=0, halo_hi=4)
        a, b = ArrayDecl("a", grid), ArrayDecl("b", grid)
        kernel = KernelSpec("straddle", (Access(a, 8, 2, READ), Access(a, -3, 0, READ),
                                         Access(b, 0, 0, WRITE)), loop_j_range=(3, 3))
        assert _window_rows(kernel, grid) == trace_reuse_rows(kernel, grid) == 3
        levels = FILL_CACHES[cache](kept_lines(kernel, grid, FF_POLICIES[policy]))
        sim = self.replay(kernel, grid, levels, FF_POLICIES[policy])
        assert sim.fill_rows > 0

    def test_window_covers_the_reuse_in_the_trace(self, suite):
        # the row bound may be no shorter than the longest gap in the trace
        for kernel in suite:
            for grid in (kernel.grid.resized(20, 16), kernel.grid.resized(3, 16),
                         kernel.grid.resized(70, 12),
                         GridSpec(13, 16, halo_lo=2, halo_hi=2, element_size=4)):
                assert _window_rows(kernel, grid) >= trace_reuse_rows(kernel, grid), kernel.name
        # arrays that share a line: a line may come back a whole sweep later
        grid = GridSpec(3, 4)       # 96 bytes an array
        shared = KernelSpec("shared", (Access(ArrayDecl("a", grid), 0, 0, READ),
                                       Access(ArrayDecl("b", grid, 8), 0, 0, WRITE)))
        assert _window_rows(shared, grid) == 0

    def test_window_covers_the_reuse_of_random_kernels(self):
        rng = np.random.default_rng(13)
        aligned = 0
        for _ in range(500):
            kernel, grid = random_kernel(rng)
            width = _window_rows(kernel, grid)
            # arrays a whole number of lines apart share no line
            if len({a % LINE for a in array_layout(kernel, grid).values()}) > 1:
                assert width == 0
            else:
                aligned += 1
                assert width >= trace_reuse_rows(kernel, grid)
        assert aligned > 200

    def test_live_lines_of_random_kernels(self):
        # the live set built from period 1 alone is the set of lines that
        # the events fed by visit in the first `history` periods touch
        rng = np.random.default_rng(17)
        for _ in range(300):
            kernel, grid = random_kernel(rng)
            row_bytes = grid.row_stride * grid.element_size
            period = LINE // math.gcd(row_bytes, LINE)
            history = int(rng.integers(1, 5))
            grid = grid.resized(grid.inner_extent, max(grid.outer_extent, period * history))
            kernel = KernelSpec(kernel.name, kernel.accesses)
            j0, j1, _, _ = _loop_bounds(kernel, grid)
            addrs = np.concatenate([a for a, _ in gen_trace_blocks(kernel, grid, period)])
            first = addrs[:period * (j1 - j0 + 1) * len(kernel.accesses)]
            live = _live_lines(first, len(kernel.accesses), history, period * row_bytes // LINE)
            keep, _ = _squeeze(kernel, j1 - j0 + 1, grid.element_size, first, True)
            fed = addrs[:first.size * history].reshape(history, -1)[:, keep]
            assert live == set((fed // LINE).ravel().tolist()), kernel

    def test_random_kernels_caches_and_policies(self, monkeypatch):
        # random kernels, stretched to 30-119 rows unless they have loop
        # ranges, through levels of 0.1-2x the lines the sweep keeps, under
        # each policy with random buffer sizes; the sweeps squeezed by
        # visit are counted
        by_visit = []
        squeeze = cachesim._squeeze

        def recording(kernel, row_iters, esize, addrs, visits, masks):
            by_visit.append(visits)
            return squeeze(kernel, row_iters, esize, addrs, visits, masks)

        monkeypatch.setattr(cachesim, "_squeeze", recording)
        rng = np.random.default_rng(16)
        charged = past_fill = full_level = 0
        rows = np.zeros(3, dtype=int)
        for _ in range(1300):
            kernel, grid = random_kernel(rng)
            if kernel.loop_k_range is None:
                grid = grid.resized(grid.inner_extent, int(rng.integers(30, 120)))
            policy = (AlwaysAllocate(), NtBypass(int(rng.integers(1, 12))),
                      AutoClaim(int(rng.integers(1, 80))))[int(rng.integers(3))]
            kept = kept_lines(kernel, grid, policy)
            levels = lv(max(1, round(kept * rng.uniform(0.1, 2))))
            sim = self.replay(kernel, grid, levels, policy)
            # ``replay`` squeezes the sweep twice, by visit where the guard
            # holds
            assert by_visit[-2:] == 2 * [squeezes(kernel, levels, policy)]
            charged += sim.fill_rows > 0
            past_fill += sim.fill_rows > 0 and levels[-1].lines < kept
            full_level += sim.bulk_rows > sim.fill_rows
            rows += (sim.replayed_rows, sim.bulk_rows, sim.fill_rows)
        # the bulk of a level that retires runs past the fill of the full
        # replay's level in some sweeps, and a full level charges others
        assert charged > 200 and past_fill > 50 and full_level > 80
        # which sweeps take the bulk, and where: the rows replayed, charged
        # in bulk and charged while the level fills, over all 1 300 sweeps
        assert rows.tolist() == [24004, 28901, 26456]
        # most sweeps are squeezed by visit (1 030), the others fed whole
        # rows (270)
        taken = by_visit[::2]
        assert taken.count(True) > 1000 and taken.count(False) > 200

    def test_live_lines_one_over_the_ways(self):
        # NT stores to row k of `a`, read three rows later: the stored lines
        # are live but not yet cached, so the level holds fewer lines than
        # the live ones when the state repeats, and a level one line short
        # of them repeats just as soon
        kernel = make_kernel([("a", 0, -3, READ), ("a", 0, 0, WRITE)])
        grid = GridSpec(8, 60, halo_lo=8, halo_hi=0)
        policy = NtBypass()
        # rows of two whole lines, a period of one row
        rows = _window_rows(kernel, grid) + 1
        lines = np.concatenate([addrs // LINE for addrs, _ in gen_trace_blocks(kernel, grid)])
        live = np.unique(lines.reshape(grid.outer_extent, -1)[30 - rows:30]).size
        fit = self.replay(kernel, grid, lv(live), policy)
        assert fit.fill_rows > 0 and fit.replayed_rows + fit.fill_rows == grid.outer_extent
        # the bulk leaves the level as it was at the match, with fewer lines
        # than the level one line short holds, which is not full
        assert len(fit.lru) < live - 1
        short = self.replay(kernel, grid, lv(live - 1), policy)
        assert (short.replayed_rows, short.fill_rows) == (fit.replayed_rows, fit.fill_rows) == (5, 55)

    def test_claims_left_behind_age_out_during_the_bulk(self):
        # halo-copy rows of 216 + 3 doubles leave a claim on a partly
        # written line at each row edge; the bulk runs over the fill of the
        # level, and in the full replay the claims left behind outgrow the
        # table of 64
        kernel, grid = halo_copy_kernel(216, 3, 400)
        policy = AutoClaim()
        assert kept_lines(kernel, grid, policy) > DEFAULT_BENCH_CACHE[-1].lines
        full = _Hierarchy(DEFAULT_BENCH_CACHE, policy)
        feed(full, *(np.concatenate(blocks) for blocks in zip(*gen_trace_blocks(kernel, grid))))
        assert full.counts[3] > 0     # claims aged out
        sim = self.replay(kernel, grid, DEFAULT_BENCH_CACHE, policy)
        assert sim.fill_rows > 0 and sim.replayed_rows + sim.fill_rows == grid.outer_extent

    def test_nt_buffers_held_for_good_are_retired(self):
        # the first five rows of `a` are NT-written before any read and
        # would stay in the write-combine buffers for good; the sweep has
        # left them, so they are retired and the state repeats
        kernel = make_kernel([("a", 0, 5, READ), ("a", 0, 0, WRITE)])
        grid = GridSpec(4, 100, halo_lo=5, halo_hi=7)
        policy = NtBypass()
        levels = fills_mid_sweep(kept_lines(kernel, grid, policy))
        sim = self.replay(kernel, grid, levels, policy)
        assert (sim.replayed_rows, sim.fill_rows) == (12, 88)

    @pytest.mark.parametrize("case", ["always", "nt", "claim"])
    def test_live_lines_span_whole_periods(self, case):
        # three sweeps of the random fuzz that touch a line again more than
        # a period short of their row span later: the live lines come from
        # the periods that cover the span, and with one period fewer the
        # replay retires such a line and reads it twice
        if case == "always":
            grid = GridSpec(20, 19, halo_lo=1, halo_hi=5)
            a = ArrayDecl("a", grid)
            kernel = KernelSpec("span", (Access(a, 1, 5, READ), Access(a, 3, 0, READ),
                                         Access(a, 0, -1, WRITE), Access(a, 5, 2, READ)),
                                loop_j_range=(3, 13), loop_k_range=(4, 17))
            levels, policy, rows = lv(43), AlwaysAllocate(), (14, 0)
        elif case == "nt":
            grid = GridSpec(14, 60, halo_lo=3, halo_hi=3)
            a = ArrayDecl("a", grid)
            kernel = KernelSpec("span", (Access(a, -1, 2, READ), Access(a, -2, -3, READ),
                                         Access(a, -1, 2, WRITE)))
            levels, policy, rows = lv(221), NtBypass(8), (14, 46)
        else:
            grid = GridSpec(13, 100, halo_lo=2, halo_hi=5)
            a = ArrayDecl("a", grid)
            kernel = KernelSpec("span", (Access(a, -1, 3, READ), Access(a, 3, 0, WRITE)))
            levels, policy, rows = lv(331), AutoClaim(17), (10, 90)
        period = LINE // math.gcd(grid.row_stride * grid.element_size, LINE)
        short = (-(-_window_rows(kernel, grid) // period) - 1) * period
        assert trace_reuse_rows(kernel, grid) > short
        sim = self.replay(kernel, grid, levels, policy)
        assert (sim.replayed_rows, sim.fill_rows) == rows

    @staticmethod
    def level_key(base, lru, pending, wc):
        """The key at `base` of a claim level that holds `lru`, (line,
        dirty) pairs from the least to the most recently used, the claim
        table `pending` and the WC buffers `wc`."""
        sim = _Hierarchy(lv(16), AutoClaim())
        sim.lru.update(lru)
        sim.pending.update(pending)
        sim.wc.update(wc)
        return sim.window(base)

    def test_window_repeats_only_when_moved(self):
        # the whole state moved by 4 lines repeats; no other change to the
        # level, the claim table or the WC buffers does
        before = self.level_key(0, [(7, True), (9, False), (8, True), (13, True)],
                                [(7, 3), (13, 5)], [(6, 1)])
        lru = [(11, True), (13, False), (12, True), (17, True)]
        pending, wc = [(11, 3), (17, 5)], [(10, 1)]

        def key(lru, pending, wc):
            return self.level_key(4, lru, pending, wc)

        assert key(lru, pending, wc) == before
        for other in (key([(11, True), (13, True), (12, False), (17, True)], pending, wc),
                      key([(11, True), (12, True), (13, False), (17, True)], pending, wc),
                      key([(line + 1, d) for line, d in lru], pending, wc),
                      key(lru[1:], pending, wc),
                      # a line or a claim that the sweep has left
                      key([(3, False)] + lru, pending, wc),
                      key(lru, [(3, 1)] + pending, wc),
                      key(lru, [(11, 3), (17, 6)], wc),
                      key(lru, pending[::-1], wc),
                      key(lru, pending, [(10, 2)]),
                      key(lru, pending, [])):
            assert other != before

    @pytest.fixture
    def held_at_keys(self, monkeypatch):
        """Record, per engine, the held-back run at each key ``window``
        takes, counted from the key's base: its addresses less the base's,
        its write flags and its masks."""
        window = _Hierarchy.window
        held = {}

        def recording(sim, base):
            addrs, writes, masks = sim.held
            held.setdefault(sim, []).append(
                ((addrs.astype(np.int64) - base * LINE).tolist(), writes.tolist(),
                 None if masks is None else masks.tolist()))
            return window(sim, base)

        monkeypatch.setattr(_Hierarchy, "window", recording)
        return held

    def test_held_run_is_the_same_at_every_key(self, suite, held_at_keys):
        # the key leaves out the held-back run: counted from the key's base
        # it is the same at every key of a sweep, so it cannot decide a
        # match. The suite at 128 x 128 on both stencil-sweep levels under
        # every policy, random kernels, and a store stream whose held-back
        # run joins the first run of every later period
        # (``TestPlannedRuns.test_held_run_joins_the_next_period``)
        def keys(kernel, grid, levels, policy) -> int:
            held = held_at_keys.pop(_replay_kernel(kernel, grid, levels, policy))
            assert held[0][0] and held.count(held[0]) == len(held), kernel.name
            return len(held)

        compared = 0
        for policy in ALL_POLICIES.values():
            for kernel in suite:
                grid = kernel.grid.resized(128, 128)
                row_bytes = grid.row_stride * grid.element_size
                rows = len({(a.array.name, a.dk) for a in kernel.accesses})
                for levels in (lv(-(-2 * rows * row_bytes // LINE)),
                               lv((row_bytes - 1) // LINE)):
                    compared += keys(kernel, grid, levels, policy) > 1
        assert compared == 2 * len(suite.kernels) * len(ALL_POLICIES)
        rng = np.random.default_rng(35)
        cases = [(make_kernel([("a", 0, 0, WRITE)]), GridSpec(12, 64, halo_lo=1, halo_hi=1),
                  lv(4), policy) for policy in (AutoClaim(1), AutoClaim(), AlwaysAllocate())]
        for _ in range(400):
            kernel, grid = random_kernel(rng)
            if kernel.loop_k_range is None:
                grid = grid.resized(grid.inner_extent, int(rng.integers(30, 120)))
            policy = (AlwaysAllocate(), NtBypass(int(rng.integers(1, 12))),
                      AutoClaim(int(rng.integers(1, 80))))[int(rng.integers(3))]
            levels = lv(max(1, round(kept_lines(kernel, grid, policy) * rng.uniform(0.1, 2))))
            cases.append((kernel, grid, levels, policy))
        # 250 random sweeps take more than one key
        compared = [keys(*case) > 1 for case in cases]
        assert all(compared[:3]) and sum(compared) > 200, sum(compared)

    def test_whole_level_repeats_only_in_lru_order(self):
        # levels of four lines that lines 0-3, 4-7 and 5, 4, 6, 7 were read
        # or written into in that order: the key lists every line with its
        # dirty bit in LRU order, so it tells apart two orders of lines that
        # the sweep has left
        def level(*lines):
            sim = _Hierarchy(lv(4), AlwaysAllocate())
            lines = np.array(lines, dtype=np.uint64)
            sim.feed(lines * np.uint64(LINE), lines % 2 == 1)
            sim._replay_held()
            return sim

        before, now, swapped = level(0, 1, 2, 3), level(4, 5, 6, 7), level(5, 4, 6, 7)
        assert list(before.lru.items()) == [(0, False), (1, True), (2, False), (3, True)]
        assert now.window(4) == before.window(0)
        assert swapped.window(4) != before.window(0)

    def test_claims_aging_out_each_period_take_the_bulk(self):
        # copies of `b` into `a` and `c`: each iteration opens a claim on a
        # line of `a` and one on a line of `c`, so a table of one line ages
        # one claim out per row. The whole state repeats all the same, with
        # the age-outs in the charge of each period, so the table of one
        # line takes the bulk as soon as a table of two
        kernel = make_kernel([("b", 0, 0, READ), ("a", 0, 0, WRITE), ("c", 0, 0, WRITE)])
        grid = GridSpec(8, 60)
        levels = beyond_footprint(kept_lines(kernel, grid, AutoClaim()))
        full = _Hierarchy(levels, AutoClaim(1))
        feed(full, *(np.concatenate(blocks) for blocks in zip(*gen_trace_blocks(kernel, grid))))
        assert full.counts[3] == grid.outer_extent    # claims aged out
        for policy in (AutoClaim(1), AutoClaim(2)):
            sim = self.replay(kernel, grid, levels, policy)
            assert (sim.replayed_rows, sim.fill_rows) == (3, 57)


class TestPlannedRuns:
    """``_replay_kernel`` feeds period 1 and cuts period 2 into runs once,
    with ``feed``'s cutter (``_cut``), from the run held back after period
    1 and period 1's fed events moved by whole lines. Every later period
    replays period 2's runs moved by whole lines; the tail and a last
    period cut short go through ``feed``. The reference is ``feed``'s cut
    of the same rows of the whole sweep's trace, fed one period a block:
    each block must replay the same runs."""

    @staticmethod
    def check(kernel, grid, levels, policy, cuts):
        """Assert that every block of runs the sweep replays is the one
        ``feed`` cuts from the same rows; return the sweep's engine."""
        sim = _replay_kernel(kernel, grid, levels, policy)
        addrs, writes, masks, keep = fed_rows(kernel, grid, sim.replayed_rows,
                                              squeezes(kernel, levels, policy), policy)
        j0, j1, _, _ = _loop_bounds(kernel, grid)
        period = LINE // math.gcd(grid.row_stride * grid.element_size, LINE)
        row_events = (j1 - j0 + 1) * len(kernel.accesses)
        cut = np.searchsorted(keep, np.arange(period, sim.replayed_rows, period) * row_events)
        ref = _Hierarchy(levels, policy)
        for block in zip(np.split(addrs, cut), np.split(writes, cut),
                         [None] * (cut.size + 1) if masks is None else np.split(masks, cut)):
            ref.feed(*block)
        ref.finish()
        # a block that only goes on with the held-back run replays no run
        assert [c for c in cuts[sim] if c] == [c for c in cuts[ref] if c], kernel.name
        return sim

    @pytest.mark.parametrize("policy", ALL_POLICIES.values(), ids=ALL_POLICIES)
    def test_suite_at_128(self, suite, cuts, policy):
        # the benchmark's stencil-sweep levels: twice every row the kernel
        # touches, where the layer condition holds, and one line short of a
        # row, where it breaks. Rows of 132 doubles make a period of two
        # rows, and every sweep replays a later period
        later = 0
        for kernel in suite:
            grid = kernel.grid.resized(128, 128)
            row_bytes = grid.row_stride * grid.element_size
            rows = len({(a.array.name, a.dk) for a in kernel.accesses})
            for levels in (lv(-(-2 * rows * row_bytes // LINE)), lv((row_bytes - 1) // LINE)):
                sim = self.check(kernel, grid, levels, policy, cuts)
                later += sim.replayed_rows > 2
        assert later == 44

    def test_random_kernels(self, cuts):
        # random kernels, stretched to 30-119 rows unless they have loop
        # ranges, through levels of 0.1-2x the lines the sweep keeps, under
        # each policy with random buffer sizes
        rng = np.random.default_rng(19)
        later = tails = 0
        for _ in range(400):
            kernel, grid = random_kernel(rng)
            if kernel.loop_k_range is None:
                grid = grid.resized(grid.inner_extent, int(rng.integers(30, 120)))
            policy = (AlwaysAllocate(), NtBypass(int(rng.integers(1, 12))),
                      AutoClaim(int(rng.integers(1, 80))))[int(rng.integers(3))]
            levels = lv(max(1, round(kept_lines(kernel, grid, policy) * rng.uniform(0.1, 2))))
            sim = self.check(kernel, grid, levels, policy, cuts)
            period = LINE // math.gcd(grid.row_stride * grid.element_size, LINE)
            later += sim.replayed_rows > period
            tails += sim.replayed_rows % period > 0
        # 259 sweeps replay later periods and 319 a tail or a short period
        assert later > 200 and tails > 200

    @pytest.mark.parametrize("policy", [AutoClaim(buffer_lines=1), AutoClaim()])
    def test_held_run_joins_the_next_period(self, cuts, policy):
        # one write stream over rows of 12 + 2 halo doubles, a period of 4
        # rows (``test_run_of_writes_across_a_period_cut``): the last store
        # fed in a period and the first fed in the next hit one line, so
        # the run held back goes on at the front of every later period
        kernel = make_kernel([("a", 0, 0, WRITE)])
        grid = GridSpec(12, 64, halo_lo=1, halo_hi=1)
        sim = self.check(kernel, grid, lv(4), policy, cuts)
        assert sim.replayed_rows > 4 and sim.bulk_rows > 0
        addrs, _, _, keep = fed_rows(kernel, grid, 8, True, policy)
        cut = np.searchsorted(keep, 4 * 12)
        assert addrs[cut - 1] // LINE == addrs[cut] // LINE

    @pytest.mark.parametrize("policy", FF_POLICIES.values(), ids=FF_POLICIES)
    def test_period_of_one_run(self, cuts, policy):
        # one store stream over rows of exactly one line, as
        # store_ratio(1, ...) replays it: a period of one row, whose events
        # fed, the first and the last store, are one run. Period 1 replays
        # no run and holds that one back; period 2 is cut from it and period
        # 1 moved by one line, and replays it alone
        kernel, grid = store_stream_kernel(1, 16 * 8)
        grid = grid.resized(8, 16)
        sim = self.check(kernel, grid, DEFAULT_BENCH_CACHE, policy, cuts)
        assert sim.replayed_rows > 1 and sim.bulk_rows > 0
        assert cuts[sim][0] == [(array_layout(kernel, grid)["s0"] // LINE, True, True,
                                 (1 << LINE) - 1 if evades(policy) else 0)]

    @pytest.mark.parametrize("policy", FF_POLICIES.values(), ids=FF_POLICIES)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_sweep_shorter_than_one_period(self, cuts, policy, rows):
        # rows of 12 + 2 halo doubles, a period of 4 rows: the one block
        # drawn is the whole sweep
        kernel = make_kernel([("a", 0, -1, READ), ("a", 0, 0, WRITE)])
        grid = GridSpec(12, rows, halo_lo=1, halo_hi=1)
        sim = self.check(kernel, grid, lv(4), policy, cuts)
        assert (sim.replayed_rows, sim.bulk_rows) == (rows, 0)


class TestRetire:
    """``_Hierarchy.retire`` drops the entries of the lines a sweep has left
    and charges now what they would cost later: given that no later event
    touches a dropped line, the traffic is the one with no retire."""

    @staticmethod
    def writes(*line_elements):
        """8-byte writes to (line, element) pairs."""
        addrs = np.array([line * LINE + 8 * e for line, e in line_elements], dtype=np.uint64)
        return addrs, np.ones(addrs.size, dtype=bool)

    @pytest.mark.parametrize("retire", [False, True])
    def test_claims_behind_a_live_claim_stay(self, retire):
        # lines 10 and 20 open claims and 10 is written again: its claim
        # stays first in the table, while 20 is the oldest cached line. With
        # only 10 live, neither the claim on 20 nor line 20, which holds it,
        # may go, so the claim on 10 still ages out when 30 opens one, and
        # 10, written in full later, is never claimed. Dropping either gives
        # [2, 3, 1, 0]
        sim = _Hierarchy(lv(8), AutoClaim(2))
        feed(sim, *self.writes((10, 0), (20, 0), (10, 1)), last=True)
        if retire:
            sim.retire({10}, 0)
            assert (list(sim.pending), list(sim.lru)) == ([10, 20], [20, 10])
        feed(sim, *self.writes((30, 0), *((10, e) for e in range(2, 8))), last=True)
        sim.finish()
        assert sim.counts.tolist() == [3, 3, 0, 1]

    def test_random_states_retire_to_the_same_traffic(self):
        # random 8-byte events on lines 0-23; a retire whose live lines are
        # some of those and the held-back run's, moved by 0-3 lines; then
        # events on the live lines and new ones only. The traffic is that
        # of an engine fed the same events with no retire
        rng = np.random.default_rng(25)
        dropped = np.zeros(3, dtype=int)   # states with claims, dirty lines, WC buffers dropped

        def events(lines):
            addrs = lines * LINE + 8 * rng.integers(0, 8, lines.size)
            return addrs.astype(np.uint64), rng.random(lines.size) < 0.5

        for _ in range(2000):
            policy = (AlwaysAllocate(), NtBypass(int(rng.integers(1, 6))),
                      AutoClaim(int(rng.integers(1, 8))))[int(rng.integers(3))]
            levels = lv(int(rng.integers(1, 16)))
            sim, ref = _Hierarchy(levels, policy), _Hierarchy(levels, policy)
            first = events(rng.integers(0, 24, int(rng.integers(1, 60))))
            feed(sim, *first)
            feed(ref, *first)
            moved = int(rng.integers(0, 4))
            live = {int(x) for x in np.unique(first[0] // LINE) if rng.random() < 0.5}
            live.update((sim.held[0] // LINE).tolist())
            tables = (len(sim.pending), sum(sim.lru.values()), len(sim.wc))
            sim.retire({line - moved for line in live}, moved)
            dropped += np.subtract(tables, (len(sim.pending), sum(sim.lru.values()),
                                            len(sim.wc))) > 0
            later = np.array(sorted(live) + list(range(30, 40)))
            second = events(later[rng.integers(0, later.size, int(rng.integers(1, 60)))])
            for engine in (sim, ref):
                feed(engine, *second)
                engine.finish()
            assert sim.counts[:3].tolist() == ref.counts[:3].tolist()
        assert (dropped > 100).all(), dropped


def hierarchy_state(sim: _Hierarchy):
    """All that a later block, ``window`` or a bulk reads."""
    assert sim.counts.dtype == np.int64 and sim.counts.shape == (4,)
    return (list(sim.lru.items()), list(sim.pending.items()),
            list(sim.wc.items()), sim.held[0].tolist(), sim.held[1].tolist(),
            None if sim.held[2] is None else sim.held[2].tolist(), sim.counts.tolist())


class TestLineReplay:
    """Under a policy that does not evade, a block with no more runs than
    the level has free lines is replayed line by line
    (``_Hierarchy._feed_lines``); every other block, and every block of
    claims and NT, takes the run loop. An engine that replays every block
    in the run loop is the reference."""

    @pytest.fixture
    def paths(self, monkeypatch):
        """Count the blocks that the per-line replay takes (True) and that
        the run loop takes (False), and of the first, the ones that evict a
        line ("evicting"). A hierarchy in ``paths["loop"]`` replays every
        block in the run loop and is counted in neither. No block of a
        policy that evades may reach the per-line replay."""
        line_replay, block = _Hierarchy._feed_lines, _Hierarchy._replay
        paths = {True: 0, False: 0, "loop": (), "evicting": 0}

        def feed_lines(sim, lines, any_w):
            assert not evades(sim.policy)
            if sim in paths["loop"]:
                return run_loop_lines(sim, lines, any_w)
            cached = set(sim.lru)
            line_replay(sim, lines, any_w)
            paths[True] += 1
            paths["evicting"] += not cached <= sim.lru.keys()

        def replay(sim, runs, moved=0):
            taken = paths[True]
            block(sim, runs, moved)
            if sim not in paths["loop"] and runs[0].size and paths[True] == taken:
                paths[False] += 1

        monkeypatch.setattr(_Hierarchy, "_feed_lines", feed_lines)
        monkeypatch.setattr(_Hierarchy, "_replay", replay)
        return paths

    @staticmethod
    def both(paths, levels, policy, access_bytes):
        sim, loop = (_Hierarchy(levels, policy) for _ in range(2))
        paths["loop"] = (loop,)
        return sim, loop

    @staticmethod
    def random_events(rng, lines, access_bytes, size):
        """Scattered accesses mixed with partial and whole-line write runs."""
        addrs, writes = [], []
        while len(addrs) < size:
            line = int(rng.integers(lines)) * LINE
            slots = LINE // access_bytes
            if rng.random() < 0.4:
                addrs.append(line + int(rng.integers(slots)) * access_bytes)
                writes.append(bool(rng.random() < 0.5))
            else:
                first = int(rng.integers(slots))
                count = int(rng.integers(1, slots - first + 1))
                addrs += [line + (first + i) * access_bytes for i in range(count)]
                writes += [True] * count
        return (np.array(addrs[:size], dtype=np.uint64) + (1 << 30),
                np.array(writes[:size], dtype=bool))

    def test_random_blocks_leave_the_run_loops_state(self, paths):
        # random traces cut into one to six blocks, through levels of 1-64
        # lines, under always-allocate, the one policy that reaches the
        # per-line replay (claims and NT always take the run loop)
        rng = np.random.default_rng(17)
        for case in range(1000):
            access_bytes = int(rng.choice([1, 2, 4, 8]))
            ways = int(rng.integers(1, 65))
            addrs, writes = self.random_events(rng, int(rng.integers(1, 3 * ways + 3)),
                                               access_bytes, int(rng.integers(0, 301)))
            cuts = np.sort(rng.integers(0, addrs.size + 1, size=rng.integers(0, 6)))
            sim, loop = self.both(paths, lv(ways), AlwaysAllocate(), access_bytes)
            for block in zip(np.split(addrs, cuts), np.split(writes, cuts)):
                feed(sim, *block, access_bytes)
                feed(loop, *block, access_bytes)
                assert hierarchy_state(sim) == hierarchy_state(loop), case
            sim.finish()
            loop.finish()
            assert hierarchy_state(sim) == hierarchy_state(loop), case
        assert paths[True] >= 500 and paths[False] >= 500
        assert paths["evicting"] == 0

    def test_blocks_one_run_short_of_fitting(self, paths):
        # one block of r runs, the held-back last run on a line the block
        # already touched, into an empty level of r lines (a free line for
        # each run: the per-line replay takes it) or of r - 1 (the run loop
        # takes it, though it may add fewer lines), under always-allocate,
        # the one policy that reaches the per-line replay
        rng = np.random.default_rng(18)
        fits = {True: 0, False: 0}
        for case in range(300):
            access_bytes = int(rng.choice([4, 8]))
            addrs, writes = self.random_events(rng, int(rng.integers(2, 40)), access_bytes,
                                               int(rng.integers(2, 200)))
            addrs, writes = np.append(addrs, addrs[0]), np.append(writes, False)
            runs = _cut(addrs, writes, None)[0].size
            if not runs:
                continue
            short = runs > 1 and bool(rng.random() < 0.5)
            sim, loop = self.both(paths, lv(runs - short), AlwaysAllocate(), access_bytes)
            took = paths[True]
            feed(sim, addrs, writes, access_bytes)
            feed(loop, addrs, writes, access_bytes)
            assert hierarchy_state(sim) == hierarchy_state(loop), case
            assert (paths[True] > took) is not short, case
            fits[not short] += 1
            sim.finish()
            loop.finish()
            assert hierarchy_state(sim) == hierarchy_state(loop), case
        assert fits[True] >= 100 and fits[False] >= 100

    @staticmethod
    def store_streams(streams, lines):
        """`streams` interleaved 8-byte store streams of `lines` lines each:
        every stream holds one open claim until its line is complete."""
        j = np.arange(streams * lines * 8)
        addrs = ((j % streams) * (1 << 20) + (j // streams) * 8).astype(np.uint64)
        return addrs, np.ones(addrs.size, dtype=bool)

    def test_claims_at_the_table_size_age_none_out(self, paths):
        # three streams hold at most three open claims, one each: a table
        # of three never overflows; the block takes the run loop all the
        # same, as every block of claims does
        policy = AutoClaim(buffer_lines=3)
        sim, loop = self.both(paths, lv(64), policy, 8)
        block = self.store_streams(3, 12)
        feed(sim, *block)
        feed(loop, *block)
        assert (paths[True], paths[False]) == (0, 1)
        assert sim.counts[3] == loop.counts[3] == 0     # claims aged out
        assert hierarchy_state(sim) == hierarchy_state(loop)

    @pytest.mark.parametrize("lines", [1, 5, 12])
    def test_claims_over_the_table_size_age_out_one_per_line(self, paths, lines):
        # four streams of `lines` lines into a table of three: each round of
        # first stores opens four claims, and the fourth ages out the first
        # stream's, whose line is then an ordinary hit; the other three
        # complete in the round's eighth store, before the next round opens
        # claims. So exactly `lines` claims age out, in the run loop, which
        # takes every block of claims
        policy = AutoClaim(buffer_lines=3)
        sim, loop = self.both(paths, lv(64), policy, 8)
        block = self.store_streams(4, lines)
        feed(sim, *block)
        feed(loop, *block)
        assert (paths[True], paths[False]) == (0, 1)
        assert sim.counts[3] == loop.counts[3] == lines     # claims aged out
        assert hierarchy_state(sim) == hierarchy_state(loop)

    @staticmethod
    def runs(spec):
        """One event per run: a read of each listed line, or with a "w"
        suffix an 8-byte write to it."""
        lines = spec.split()
        return (np.array([int(x.rstrip("w")) * LINE for x in lines], dtype=np.uint64),
                np.array([x.endswith("w") for x in lines], dtype=bool))

    def replay_block(self, paths, ways, policy, before, block):
        """Feed `before`, then `block`, into a level of `ways` lines on both
        paths: the same state after each. Return whether the per-line replay
        took `block`, and the lines `block` evicted."""
        sim, loop = self.both(paths, lv(ways), policy, 8)
        for spec in (before, block):
            cached, took = set(loop.lru), paths[True]
            for h in (sim, loop):
                feed(h, *self.runs(spec), last=True)
            assert hierarchy_state(sim) == hierarchy_state(loop), spec
        return paths[True] > took, cached - set(loop.lru)

    def test_full_level_evicting_untouched_lines(self, paths):
        # new lines 10 and 11 evict 0 and 1 (dirty), which the block never
        # touches; 2 and 3 are hits. A block that evicts takes the run loop
        took, evicted = self.replay_block(paths, 4, AlwaysAllocate(), "0 1w 2 3",
                                          "2 10 2w 3 11 10")
        assert not took and evicted == {0, 1}
        # a block that only hits the full level evicts nothing, but with no
        # free line for its runs it takes the run loop
        took, evicted = self.replay_block(paths, 4, AlwaysAllocate(), "0 1w 2 3",
                                          "3 1w 0 1 2w")
        assert not took and not evicted
        # under claims the run loop takes it; the read of 1 fills its open
        # claim
        took, evicted = self.replay_block(paths, 4, AutoClaim(2), "0 1w 2 3", "3 1w 0 1 2w")
        assert not took and not evicted

    def test_victim_touched_after_its_evicting_miss(self, paths):
        # 10 evicts 1 (0 was touched), 11 evicts 2; then 1 misses again
        # and evicts 3
        took, evicted = self.replay_block(paths, 4, AlwaysAllocate(), "0 1 2 3",
                                          "0 10 11 1")
        assert not took and evicted == {2, 3}

    @pytest.mark.parametrize("block", ["2 0 10 3", "2 3 10 0"],
                             ids=["one-run-before", "one-run-after"])
    def test_older_line_first_touched_next_to_the_miss(self, paths, block):
        # the miss on 10 at run 2 evicts the oldest line not touched yet:
        # 1 if 0 was touched at run 1, but 0 itself if it is touched at run
        # 3, where it misses and evicts 1
        took, evicted = self.replay_block(paths, 4, AlwaysAllocate(), "0 1 2 3", block)
        assert not took and evicted == {1}

    @pytest.mark.parametrize("block, evicted", [("10w 2 3", {0}), ("10w 11w 2 3", {0, 1})],
                             ids=["table-full", "one-claim-more"])
    def test_claimed_victim_leaves_before_a_claim_opens(self, paths, block, evicted):
        # a table of two holds claims on 0 and 2; the write miss on 10
        # evicts 0, whose claim costs a fill and leaves before 10's opens,
        # so the table stays at two; a second write miss on 11 evicts 1,
        # which holds no claim, and the third claim ages out the oldest
        took, gone = self.replay_block(paths, 4, AutoClaim(2), "0w 1 2w 3", block)
        assert not took and gone == evicted

    @staticmethod
    def sweep_suite(suite, monkeypatch, levels_of, policy):
        """Replay each kernel's sweep at 128 x 64 on ``levels_of(kernel,
        grid)`` and match its traffic bit for bit with the run loop over the
        whole trace. Return the sweeps' engines, per kernel whether the
        per-line replay took each period after the first, in order, and the
        number of blocks it took. None of them may evict a line."""
        line_replay, block = _Hierarchy._feed_lines, _Hierarchy._replay
        reference, taken, later = [], [0], {}

        def feed_lines(sim, lines, any_w):
            if reference:
                return run_loop_lines(sim, lines, any_w)
            cached = set(sim.lru)
            line_replay(sim, lines, any_w)
            assert cached <= sim.lru.keys(), kernel.name
            taken[0] += 1

        def replay(sim, runs, *moved):
            before = taken[0]
            block(sim, runs, *moved)
            if moved:   # a later period, moved by whole lines
                later.setdefault(kernel.name, []).append(taken[0] > before)

        monkeypatch.setattr(_Hierarchy, "_feed_lines", feed_lines)
        monkeypatch.setattr(_Hierarchy, "_replay", replay)
        sims = {}
        for kernel in suite:
            grid = kernel.grid.resized(128, 64)
            levels = levels_of(kernel, grid)
            sims[kernel.name] = sim = _replay_kernel(kernel, grid, levels, policy)
            got = sim.traffic(0)
            reference.append(kernel)
            want = simulate(gen_trace(kernel, grid), levels, policy, grid.element_size)
            reference.clear()
            assert ((got.read_bytes, got.write_bytes, got.wa_avoided_bytes)
                    == (want.read_bytes, want.write_bytes, want.wa_avoided_bytes)), kernel.name
        return sims, later, taken[0]

    @pytest.mark.parametrize("policy", [AlwaysAllocate(), AutoClaim()], ids=["always", "claim"])
    def test_suite_on_a_level_of_twice_its_rows(self, suite, monkeypatch, policy):
        # a level of twice the rows a kernel touches fills. Every period,
        # the first too, has more runs than the level has free lines, so
        # under always-allocate the run loop takes it, as it takes every
        # block of claims
        sims, later, taken = self.sweep_suite(suite, monkeypatch, lc_hold, policy)
        assert set(later) == set(suite.kernels) and taken == 0
        # am10 and ac06 replay six rows, every other kernel four
        assert sum(sim.replayed_rows for sim in sims.values()) == 92

    def test_suite_on_a_level_with_room_for_a_period(self, suite, monkeypatch):
        # a level of five times the LC-holding one has a free line for each
        # run of every later period, once the lines the sweep has left are
        # retired: under always-allocate the per-line replay takes each of
        # them and none evicts. The sweep touches more lines than the level
        # holds, yet it is charged in bulk on a level that is not full
        def room(kernel, grid):
            return lv(5 * lc_hold(kernel, grid)[0].lines)

        sims, later, _ = self.sweep_suite(suite, monkeypatch, room, AlwaysAllocate())
        assert set(later) == set(suite.kernels)
        assert all(sum(later.values(), []))
        for kernel in suite:
            grid = kernel.grid.resized(128, 64)
            touched = np.unique(np.concatenate([r["address"] for r in gen_trace(kernel, grid)])
                                // LINE).size
            sim = sims[kernel.name]
            assert touched > sim.ways, kernel.name
            assert sim.fill_rows == sim.bulk_rows > 0, kernel.name

    @pytest.mark.parametrize("lines", [4, 5])
    def test_more_runs_than_free_lines_reach_no_sort(self, paths, monkeypatch, lines):
        # eight rounds over `lines` lines into an empty level of four: four
        # lines fit and five do not, but either way the block has more runs
        # than the level has free lines, so the run loop takes it and no
        # numpy sort is called
        addrs = np.tile(np.arange(lines, dtype=np.uint64) * np.uint64(LINE), 8)
        writes = np.zeros(addrs.size, dtype=bool)
        sim, loop = self.both(paths, lv(4), AlwaysAllocate(), 8)
        monkeypatch.setattr(np, "argsort", None)
        feed(sim, addrs, writes, last=True)
        feed(loop, addrs, writes, last=True)
        assert (paths[True], paths[False]) == (0, 1)
        assert hierarchy_state(sim) == hierarchy_state(loop)


class TestSqueeze:
    """``_replay_kernel`` feeds each period squeezed by visit (``_squeeze``)
    where the guard holds, and whole rows elsewhere; the same rows fed
    whole into a second engine are the reference, row by row."""

    @staticmethod
    def applied(sim):
        """``hierarchy_state`` once every event fed is applied: a copy of
        the engine with its held-back run replayed."""
        sim = copy.deepcopy(sim)
        sim._replay_held()
        return hierarchy_state(sim)

    def replay_rows(self, kernel, grid, levels, policy):
        """Feed a sweep row by row, whole into one engine and squeezed by
        visit into another, and compare their states after every row.
        Return the first row after which they differ (None if none) and the
        traffic of both engines after ``finish``."""
        j0, j1, k0, k1 = _loop_bounds(kernel, grid)
        addrs, writes = (np.concatenate(a) for a in zip(*gen_trace_blocks(kernel, grid)))
        addrs, writes = addrs.reshape(k1 - k0 + 1, -1), writes.reshape(k1 - k0 + 1, -1)
        row_events = addrs.shape[1]
        period = LINE // math.gcd(grid.row_stride * grid.element_size, LINE)
        keep, masks = _squeeze(kernel, j1 - j0 + 1, grid.element_size, addrs[:period].ravel(),
                               True)
        rows = np.searchsorted(keep, np.arange(period + 1) * row_events)
        whole, squeezed = _Hierarchy(levels, policy), _Hierarchy(levels, policy)
        differ = None
        for k in range(addrs.shape[0]):
            r = k % period
            fed = keep[rows[r]:rows[r + 1]] - r * row_events
            feed(whole, addrs[k], writes[k], grid.element_size)
            squeezed.feed(addrs[k][fed], writes[k][fed], masks[rows[r]:rows[r + 1]])
            if differ is None and self.applied(whole) != self.applied(squeezed):
                differ = k
        whole.finish()
        squeezed.finish()
        return differ, whole.traffic(0), squeezed.traffic(0)

    @pytest.mark.parametrize("policy", ALL_POLICIES.values(), ids=ALL_POLICIES)
    def test_suite_rows_leave_the_whole_rows_state(self, suite, policy):
        # rows of 22 + 4 halo doubles, 3.25 lines, a period of 4 rows; a
        # level where the layer condition holds and one of exactly 2A + 1
        # lines for A accesses, the fewest the visit rule takes (a level
        # where the layer condition breaks holds fewer). Each level the
        # guard takes is checked
        tested = 0
        for kernel in suite:
            grid = kernel.grid.resized(22, 12)
            for levels in (lc_hold(kernel, grid), lv(2 * len(kernel.accesses) + 1)):
                if squeezes(kernel, levels, policy):
                    tested += 1
                    differ, whole, squeezed = self.replay_rows(kernel, grid, levels, policy)
                    assert differ is None and whole == squeezed, kernel.name
        # one WC buffer takes no kernel, as each writes at least one array
        assert tested == (0 if policy == NtBypass(1) else 44)

    def test_random_kernels_rows_leave_the_whole_rows_state(self):
        # random kernels (some with arrays that share a line) through levels
        # of 0.05-2x the lines the sweep keeps, claim tables of 1-80 lines
        # and 1-11 NT buffers, where the guard takes them
        rng = np.random.default_rng(23)
        tested = 0
        for case in range(400):
            kernel, grid = random_kernel(rng)
            if kernel.loop_k_range is None:
                grid = grid.resized(grid.inner_extent, int(rng.integers(8, 24)))
            policy = (AlwaysAllocate(), NtBypass(int(rng.integers(1, 12))),
                      AutoClaim(int(rng.integers(1, 81))))[int(rng.integers(3))]
            levels = lv(max(1, round(kept_lines(kernel, grid, policy) * rng.uniform(0.05, 2))))
            if squeezes(kernel, levels, policy):
                tested += 1
                differ, whole, squeezed = self.replay_rows(kernel, grid, levels, policy)
                assert differ is None and whole == squeezed, case
        assert tested >= 250

    @pytest.mark.parametrize("policy", [AlwaysAllocate(), AutoClaim()], ids=["always", "claim"])
    def test_fewer_lines_than_accesses_keep_whole_rows(self, policy):
        # three reads and a write on four arrays thrash a level of three
        # lines: every access misses, and simulate_kernel feeds the rows
        # whole
        kernel = make_kernel([("a", 0, 0, READ), ("b", 0, 0, READ), ("c", 0, 0, READ),
                              ("d", 0, 0, WRITE)])
        grid, levels = GridSpec(16, 8), lv(3)
        assert not squeezes(kernel, levels, policy)
        got = simulate_kernel(kernel, grid, levels, policy)
        assert (got.read_bytes, got.write_bytes, got.wa_avoided_bytes) == (32768, 8192, 0)

    def test_more_written_arrays_than_nt_buffers_keep_whole_rows(self):
        # the 354th sweep of test_random_kernels_caches_and_policies: two
        # written arrays through one WC buffer, so each store flushes the
        # other array's partial line, and simulate_kernel feeds the rows
        # whole
        grid = GridSpec(21, 54, halo_lo=4, halo_hi=5)
        a0, a1 = ArrayDecl("a0", grid, 64), ArrayDecl("a1", grid, 256)
        kernel = KernelSpec("fuzz16-354", (
            Access(a1, 1, 5, WRITE), Access(a0, 1, 0, WRITE), Access(a1, -3, -1, READ),
            Access(a0, 2, -2, READ), Access(a1, 1, -4, READ), Access(a1, 0, -1, READ)))
        levels, policy = lv(662), NtBypass(1)
        assert not squeezes(kernel, levels, policy)
        got = simulate_kernel(kernel, grid, levels, policy)
        want = simulate(gen_trace(kernel, grid), levels, policy, grid.element_size)
        assert got.read_bytes == 170816
        assert (got.read_bytes, got.write_bytes, got.wa_avoided_bytes) == (
            want.read_bytes, want.write_bytes, want.wa_avoided_bytes)

    def assert_whole_rows_fed(self, kernel, grid, levels, policy, reads):
        """Rows squeezed by visit leave another state after the first row
        and other traffic (`reads`: lines read by whole rows and by the
        visit rule), so the guard turns the visit rule down, and
        ``simulate_kernel``, fed whole rows, gives the traffic of the full
        replay."""
        assert not squeezes(kernel, levels, policy)
        differ, whole, got = self.replay_rows(kernel, grid, levels, policy)
        assert differ == 0 and (whole.read_bytes // LINE, got.read_bytes // LINE) == reads
        got = simulate_kernel(kernel, grid, levels, policy)
        want = simulate(gen_trace(kernel, grid), levels, policy, grid.element_size)
        assert (got.read_bytes, got.write_bytes, got.wa_avoided_bytes) == (
            want.read_bytes, want.write_bytes, want.wa_avoided_bytes) == (
            whole.read_bytes, whole.write_bytes, whole.wa_avoided_bytes)

    def test_level_of_up_to_twice_the_accesses_keeps_whole_rows(self):
        # a random sweep of the fuzz: two writes and a read on a level of
        # four lines, A + 1 for its A = 3 accesses. Between a visit's fed
        # start and its fed end its line's recorded last touch is stale,
        # and four lines hold less than the two lines each access can
        # touch in one visit window, so the LRU victim of a miss can be a
        # line that the sweep is still on
        grid = GridSpec(13, 15, halo_lo=2, halo_hi=2, element_size=4)
        a1, a2 = ArrayDecl("a1", grid, 128), ArrayDecl("a2", grid, 128)
        kernel = KernelSpec("fuzz-level", (Access(a2, -1, 2, WRITE), Access(a1, -1, 2, WRITE),
                                           Access(a1, -2, 0, READ)))
        self.assert_whole_rows_fed(kernel, grid, lv(4), AlwaysAllocate(), (48, 59))

    def test_fewer_nt_buffers_than_twice_the_written_arrays_keep_whole_rows(self):
        # two store streams half a line apart (arrays of 1 120 bytes)
        # through two WC buffers: as many as written arrays, fewer than
        # twice as many. In one visit window each stream has a line in
        # flight and may leave a partial one, four buffers' worth, so an
        # overflow of the fed stores can flush a line that is still being
        # written, which then costs a merge read twice
        grid = GridSpec(8, 12, halo_lo=1, halo_hi=1)
        a, b = ArrayDecl("a", grid), ArrayDecl("b", grid, 8)
        kernel = KernelSpec("halves", (Access(a, 0, 0, WRITE), Access(b, 0, 0, WRITE)))
        layout = array_layout(kernel, grid)
        assert (layout["b"] - layout["a"]) % LINE == LINE // 2
        self.assert_whole_rows_fed(kernel, grid, lv(64), NtBypass(2), (32, 50))

    @pytest.mark.parametrize("policy", [AutoClaim(1), NtBypass(2)], ids=["claim", "nt"])
    def test_start_and_end_write_of_a_visit_share_a_run(self, policy):
        # a copy whose written array runs half a line ahead of the read one
        # (arrays of 4 576 bytes): in every fourth row the write's first
        # visit is shorter than the read's, so no event is fed between its
        # start and its end write, and the two fall into one run. That run
        # misses and opens its claim or WC buffer with the bytes of both,
        # but it cannot complete the line, so the rows still leave the
        # state of whole rows (``_replay_kernel``)
        grid = GridSpec(24, 20, halo_lo=1, halo_hi=1)
        b, a = ArrayDecl("b", grid), ArrayDecl("a", grid, 8)
        kernel = KernelSpec("copy", (Access(b, 0, 0, READ), Access(a, 0, 0, WRITE)))
        assert (array_layout(kernel, grid)["a"] - array_layout(kernel, grid)["b"]) % LINE == 32
        addrs, writes, _, keep = fed_rows(kernel, grid, 20, True, policy)
        # fed writes of `a` next to each other, of two iterations, on one line
        joined = (writes[1:] & writes[:-1] & (addrs[1:] // LINE == addrs[:-1] // LINE)
                  & (keep[1:] // 2 != keep[:-1] // 2))
        assert np.count_nonzero(joined) == 5
        differ, whole, got = self.replay_rows(kernel, grid, lv(64), policy)
        assert differ is None and whole == got
