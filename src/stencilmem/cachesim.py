"""Trace-driven cache-hierarchy simulator with write-allocate evasion.

The simulator is the brute-force counterpart of the analytic balance model:
it replays a kernel's element-granular access stream through an inclusive
write-back LRU hierarchy and counts the line transfers crossing the memory
interface. Three write policies are modelled:

* ``AlwaysAllocate`` - every write miss fetches the line first.
* ``NtBypass`` - writes bypass the hierarchy via write-combine buffers;
  fully written lines are flushed without a read, partially written lines
  pay one line of merge-read traffic on flush. A streaming store to a line
  that is already cached updates it in place like a plain store.
* ``AutoClaim`` - a hardware detector watches the last ``buffer_lines``
  write-missed lines; a line whose bytes are completely written while under
  watch is claimed without a fill, anything aged out incomplete falls back
  to a regular allocate. ``active=False`` degrades to ``AlwaysAllocate``.

A trace is an iterable of ``TRACE_DTYPE`` record blocks (u64 byte address,
u8 mode: 0 read, 1 write); a trace file holds the same 9-byte records back
to back. A file size that is no whole number of records, or a mode byte
above 1, raises ValueError. Trace generation is vectorized and the replay
works on runs of consecutive same-line events, which keeps the 22
desk-scale oracle runs within a few minutes of CPU time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import READ, WRITE, Access, ArrayDecl, GridSpec, KernelError, KernelSpec

TRACE_DTYPE = np.dtype([("address", "<u8"), ("mode", "u1")])
TRACE_BLOCK = 1 << 16   # records per block that load_trace yields


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level; ``associativity=None`` means fully associative LRU."""

    capacity: int
    line_size: int = 64
    associativity: int | None = None

    def __post_init__(self):
        if self.capacity <= 0 or self.capacity % self.line_size:
            raise ValueError("capacity must be a positive multiple of line_size")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a power of two")
        if self.associativity is not None:
            lines = self.capacity // self.line_size
            if self.associativity < 1 or lines % self.associativity:
                raise ValueError("associativity must divide the line count")

    @property
    def lines(self) -> int:
        return self.capacity // self.line_size


@dataclass(frozen=True)
class AlwaysAllocate:
    pass


@dataclass(frozen=True)
class NtBypass:
    combine_buffers: int = 10

    def __post_init__(self):
        if self.combine_buffers < 1:
            raise ValueError("combine_buffers must be >= 1")


@dataclass(frozen=True)
class AutoClaim:
    buffer_lines: int = 64
    active: bool = True

    def __post_init__(self):
        if self.buffer_lines < 1:
            raise ValueError("buffer_lines must be >= 1")


WritePolicySim = AlwaysAllocate | NtBypass | AutoClaim


@dataclass(frozen=True)
class MemTraffic:
    """Line-granular traffic at the memory interface."""

    read_bytes: int
    write_bytes: int
    wa_avoided_bytes: int
    iterations: int

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def bytes_per_it(self) -> float:
        if self.iterations < 1:
            raise ValueError("traffic has no iteration count")
        return self.total_bytes / self.iterations


def array_layout(kernel: KernelSpec, grid: GridSpec) -> dict[str, int]:
    """Byte address of each array's interior origin, packed back to back.

    Allocation starts are aligned to each array's base_alignment; the
    interior origin sits past the halo ring, so offsets (dj, dk) down to
    -halo_lo stay inside the allocation.
    """
    alloc_bytes = grid.alloc_rows * grid.row_stride * grid.element_size
    origin_off = (grid.halo_lo * grid.row_stride + grid.halo_lo) * grid.element_size
    base = 0
    out = {}
    for arr in kernel.arrays:
        base = -(-base // arr.base_alignment) * arr.base_alignment
        out[arr.name] = base + origin_off
        base += alloc_bytes
    return out


def _loop_bounds(kernel: KernelSpec, grid: GridSpec) -> tuple[int, int, int, int]:
    j0, j1 = kernel.loop_j_range or (0, grid.inner_extent - 1)
    k0, k1 = kernel.loop_k_range or (0, grid.outer_extent - 1)
    if j0 > j1 or k0 > k1:
        raise KernelError(f"{kernel.name}: empty loop range")
    for acc in kernel.accesses:
        if not (-grid.halo_lo <= j0 + acc.dj and
                j1 + acc.dj <= grid.inner_extent - 1 + grid.halo_hi and
                -grid.halo_lo <= k0 + acc.dk and
                k1 + acc.dk <= grid.outer_extent - 1 + grid.halo_hi):
            raise KernelError(
                f"{kernel.name}: access {acc.array.name}({acc.dj},{acc.dk}) "
                f"leaves the allocated grid (halos {grid.halo_lo}/{grid.halo_hi})")
    return j0, j1, k0, k1


def gen_trace_blocks(kernel: KernelSpec, grid: GridSpec):
    """Yield the access stream as (addresses, write flags) numpy blocks.

    Iteration order is k outer ascending, j inner ascending; within an
    iteration reads come in declaration order, then writes.
    """
    j0, j1, k0, k1 = _loop_bounds(kernel, grid)
    esize = grid.element_size
    stride = grid.row_stride
    layout = array_layout(kernel, grid)
    ordered = kernel.reads() + kernel.writes()
    acc_const = np.array(
        [layout[a.array.name] + (a.dk * stride + a.dj) * esize for a in ordered],
        dtype=np.int64)
    wflags = np.array([a.mode == WRITE for a in ordered], dtype=bool)
    jcol = np.arange(j0, j1 + 1, dtype=np.int64) * esize
    row_bytes = stride * esize
    rows_per_block = 16
    for kb in range(k0, k1 + 1, rows_per_block):
        ks = np.arange(kb, min(kb + rows_per_block, k1 + 1), dtype=np.int64)
        block = (ks[:, None, None] * row_bytes
                 + jcol[None, :, None]
                 + acc_const[None, None, :])
        addrs = block.reshape(-1).astype(np.uint64)
        yield addrs, np.tile(wflags, ks.size * jcol.size)


def gen_trace(kernel: KernelSpec, grid: GridSpec):
    """Yield the access stream as ``TRACE_DTYPE`` record blocks."""
    for addrs, writes in gen_trace_blocks(kernel, grid):
        records = np.empty(addrs.size, dtype=TRACE_DTYPE)
        records["address"] = addrs
        records["mode"] = writes
        yield records


def iteration_count(kernel: KernelSpec, grid: GridSpec) -> int:
    j0, j1, k0, k1 = _loop_bounds(kernel, grid)
    return (j1 - j0 + 1) * (k1 - k0 + 1)


class _Hierarchy:
    """Replay engine; state is one OrderedDict (line -> dirty) per cache set."""

    def __init__(self, levels: list[CacheLevelConfig], policy: WritePolicySim,
                 access_bytes: int):
        if not levels:
            raise ValueError("need at least one cache level")
        if len({cfg.line_size for cfg in levels}) != 1:
            raise ValueError("line_size must be uniform across levels")
        if access_bytes < 1 or access_bytes > levels[0].line_size:
            raise ValueError("access_bytes must be in 1..line_size")
        self.line_size = levels[0].line_size
        self.shift = self.line_size.bit_length() - 1
        self.levels = []
        for cfg in levels:
            if cfg.associativity is None:
                nsets, ways = 1, cfg.lines
            else:
                ways = cfg.associativity
                nsets = cfg.lines // ways
            self.levels.append(([OrderedDict() for _ in range(nsets)], nsets, ways))
        self.nlevels = len(self.levels)
        self.policy = policy
        self.access_bytes = access_bytes
        self.full_mask = (1 << self.line_size) - 1
        self.elem_bits = (1 << access_bytes) - 1
        self.read_lines = 0
        self.write_lines = 0
        self.avoided_lines = 0
        self.pending: dict[int, int] = {}       # claim-watched line -> byte coverage
        self.detector: OrderedDict[int, None] = OrderedDict()
        self.wc: OrderedDict[int, int] = OrderedDict()  # NT write-combine buffers
        self.claim = isinstance(policy, AutoClaim) and policy.active
        self.nt = isinstance(policy, NtBypass)

    # -- structural helpers ------------------------------------------------

    def _set_for(self, level_idx: int, line: int):
        sets, nsets, _ = self.levels[level_idx]
        return sets[line % nsets] if nsets > 1 else sets[0]

    def _evict(self, level_idx: int, line: int, dirty: bool):
        if level_idx == self.nlevels - 1:
            cov = self.pending.pop(line, None)
            if cov is not None:
                # aged out of the cache before the claim completed
                self.read_lines += 1
                self.detector.pop(line, None)
            for li in range(self.nlevels - 1):
                d = self._set_for(li, line).pop(line, None)
                if d:
                    dirty = True
            if dirty:
                self.write_lines += 1
        elif dirty:
            for li in range(level_idx + 1, self.nlevels):
                s = self._set_for(li, line)
                if line in s:
                    s[line] = True
                    return
            self.write_lines += 1

    def _touch(self, line: int, dirty: bool) -> bool:
        """Make `line` resident everywhere; returns True on a last-level miss."""
        missed_last = False
        last = self.nlevels - 1
        for li in range(self.nlevels):
            s = self._set_for(li, line)
            if line in s:
                s.move_to_end(line)
                if dirty:
                    s[line] = True
            else:
                if li == last:
                    missed_last = True
                s[line] = dirty
                if len(s) > self.levels[li][2]:
                    self._evict(li, *s.popitem(last=False))
        return missed_last

    def _resolve_fill(self, line: int):
        self.read_lines += 1
        del self.pending[line]
        self.detector.pop(line, None)

    def _flush_wc(self, line: int, cov: int):
        self.write_lines += 1
        if cov != self.full_mask:
            self.read_lines += 1

    # -- event processing ----------------------------------------------------

    def run(self, line: int, first_is_write: bool, any_write: bool, cov: int):
        """Process one run: consecutive same-line events, reads before writes."""
        if not first_is_write:
            if line in self.pending:
                self._resolve_fill(line)    # the read needs the pre-write bytes
            if self.nt and line in self.wc:
                self._flush_wc(line, self.wc.pop(line))
            if self._touch(line, dirty=False):
                self.read_lines += 1
        if not any_write:
            return

        if self.nt:
            if line in self._set_for(self.nlevels - 1, line):
                # streaming store to resident data degrades to a plain store
                self._touch(line, dirty=True)
                return
            c = self.wc.pop(line, 0) | cov
            if c == self.full_mask:
                self.write_lines += 1
            else:
                self.wc[line] = c
                if len(self.wc) > self.policy.combine_buffers:
                    self._flush_wc(*self.wc.popitem(last=False))
            return

        if not self.claim:
            if self._touch(line, dirty=True):
                self.read_lines += 1    # the write-allocate fill
            return

        present = line in self._set_for(self.nlevels - 1, line)
        self._touch(line, dirty=True)
        if present:
            c = self.pending.get(line)
            if c is not None:
                c |= cov
                if c == self.full_mask:
                    self.avoided_lines += 1
                    del self.pending[line]
                    self.detector.pop(line, None)
                else:
                    self.pending[line] = c
        elif cov == self.full_mask:
            self.avoided_lines += 1     # whole line written in one go
        else:
            self.pending[line] = cov
            self.detector[line] = None
            if len(self.detector) > self.policy.buffer_lines:
                old, _ = self.detector.popitem(last=False)
                if old in self.pending:
                    self.read_lines += 1    # incomplete: regular allocate after all
                    del self.pending[old]

    def finish(self):
        """End of trace: resolve open claims, drain WC buffers, flush dirty lines."""
        while self.pending:
            line, _cov = self.pending.popitem()
            self.read_lines += 1
            self.detector.pop(line, None)
        for line, cov in self.wc.items():
            self._flush_wc(line, cov)
        self.wc.clear()
        for s in self.levels[-1][0]:
            self.write_lines += sum(1 for d in s.values() if d)

    # -- block feeding -------------------------------------------------------

    def feed(self, addrs: np.ndarray, writes: np.ndarray):
        n = addrs.size
        if n == 0:
            return
        lines = addrs >> np.uint64(self.shift)
        w_u8 = writes.view(np.uint8)
        if n == 1:
            starts = np.zeros(1, dtype=np.intp)
        else:
            split = lines[1:] != lines[:-1]
            # a write followed by a read of the same line must start a new
            # run, otherwise the read could not trigger a deferred fill
            np.logical_or(split, writes[:-1] & ~writes[1:], out=split)
            starts = np.flatnonzero(np.concatenate(([True], split)))
        offs = addrs & np.uint64(self.line_size - 1)
        masks = np.where(writes, np.left_shift(np.uint64(self.elem_bits), offs),
                         np.uint64(0))
        run_lines = lines[starts].tolist()
        run_first_w = writes[starts].tolist()
        run_any_w = (np.bitwise_or.reduceat(w_u8, starts) != 0).tolist()
        run_cov = np.bitwise_or.reduceat(masks, starts).tolist()
        run = self.run
        for args in zip(run_lines, run_first_w, run_any_w, run_cov):
            run(*args)

    def feed_fast_always(self, addrs: np.ndarray, writes: np.ndarray):
        """Single fully-associative level under AlwaysAllocate.

        Every miss fills one line regardless of mode, so runs only need the
        line and whether any event in them writes.
        """
        n = addrs.size
        if n == 0:
            return
        lines = addrs >> np.uint64(self.shift)
        if n == 1:
            starts = np.zeros(1, dtype=np.intp)
        else:
            starts = np.flatnonzero(np.concatenate(([True], lines[1:] != lines[:-1])))
        run_lines = lines[starts].tolist()
        run_any_w = (np.bitwise_or.reduceat(writes.view(np.uint8), starts) != 0).tolist()
        od = self.levels[0][0][0]
        ways = self.levels[0][2]
        move = od.move_to_end
        pop = od.popitem
        reads = writes_out = 0
        for line, w in zip(run_lines, run_any_w):
            if line in od:
                move(line)
                if w:
                    od[line] = True
            else:
                reads += 1
                od[line] = w
                if len(od) > ways:
                    if pop(last=False)[1]:
                        writes_out += 1
        self.read_lines += reads
        self.write_lines += writes_out

    @property
    def use_fast_path(self) -> bool:
        plain = (isinstance(self.policy, AlwaysAllocate)
                 or (isinstance(self.policy, AutoClaim) and not self.policy.active))
        return plain and self.nlevels == 1 and self.levels[0][1] == 1

    def traffic(self, iterations: int) -> MemTraffic:
        ls = self.line_size
        return MemTraffic(read_bytes=self.read_lines * ls,
                          write_bytes=self.write_lines * ls,
                          wa_avoided_bytes=self.avoided_lines * ls,
                          iterations=iterations)


def _simulate_blocks(blocks, levels, policy, access_bytes, iterations) -> MemTraffic:
    sim = _Hierarchy(list(levels), policy, access_bytes)
    feed = sim.feed_fast_always if sim.use_fast_path else sim.feed
    for addrs, writes in blocks:
        feed(addrs, writes)
    sim.finish()
    return sim.traffic(iterations)


def _record_fields(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if np.any(records["mode"] > 1):
        raise ValueError("bad trace mode byte: 0 is a read, 1 a write")
    return records["address"], records["mode"].view(np.bool_)


def simulate(trace, levels, policy: WritePolicySim = AlwaysAllocate(),
             access_bytes: int = 8, iterations: int = 0) -> MemTraffic:
    """Replay an iterable of ``TRACE_DTYPE`` record blocks through the hierarchy.

    Every event touches ``access_bytes`` bytes starting at its address (the
    trace format itself carries no size). A mode byte above 1 raises
    ValueError (exit 2 from ``stencilmem replay``). ``iterations`` is
    recorded in the returned MemTraffic for per-iteration figures.
    """
    return _simulate_blocks(map(_record_fields, trace), levels, policy,
                            access_bytes, iterations)


def simulate_kernel(kernel: KernelSpec, grid: GridSpec, levels,
                    policy: WritePolicySim = AlwaysAllocate()) -> MemTraffic:
    """Generate and replay the full sweep of one kernel over a grid."""
    blocks = gen_trace_blocks(kernel, grid)
    return _simulate_blocks(blocks, levels, policy, grid.element_size,
                            iteration_count(kernel, grid))


def measure_balance(kernel: KernelSpec, grid: GridSpec, levels,
                    policy: WritePolicySim = AlwaysAllocate()) -> float:
    """Simulated bytes per iteration (total memory traffic / iterations)."""
    return simulate_kernel(kernel, grid, levels, policy).bytes_per_it


# -- microbenchmark kernels ---------------------------------------------------


def store_stream_kernel(streams: int, elements: int,
                        element_size: int = 8) -> tuple[KernelSpec, GridSpec]:
    """Pure store kernel writing `streams` independent aligned arrays."""
    if streams < 1:
        raise ValueError("streams must be >= 1")
    grid = GridSpec(inner_extent=elements, outer_extent=1,
                    element_size=element_size)
    accesses = tuple(Access(ArrayDecl(f"s{i}", grid), 0, 0, WRITE)
                     for i in range(streams))
    return KernelSpec(name=f"store{streams}", accesses=accesses), grid


DEFAULT_BENCH_CACHE = (CacheLevelConfig(capacity=256 * 1024),)


def store_ratio(streams: int, volume_bytes: int, policy: WritePolicySim,
                levels=DEFAULT_BENCH_CACHE, element_size: int = 8) -> float:
    """Actual memory traffic / explicitly stored volume for n store streams."""
    line_elems = levels[0].line_size // element_size
    per_stream = max(line_elems,
                     volume_bytes // (streams * element_size) // line_elems * line_elems)
    kernel, grid = store_stream_kernel(streams, per_stream, element_size)
    t = simulate_kernel(kernel, grid, levels, policy)
    explicit = per_stream * streams * element_size
    return t.total_bytes / explicit


def halo_copy_kernel(inner: int, halo: int, rows: int,
                     element_size: int = 8) -> tuple[KernelSpec, GridSpec]:
    """Strip-mined copy: rows of `inner` elements, `halo` skipped in between."""
    grid = GridSpec(inner_extent=inner, outer_extent=rows, halo_lo=0,
                    halo_hi=halo, element_size=element_size)
    src = ArrayDecl("b", grid)
    dst = ArrayDecl("a", grid)
    kernel = KernelSpec(name="halo_copy",
                        accesses=(Access(src, 0, 0, READ), Access(dst, 0, 0, WRITE)))
    return kernel, grid


def halo_copy_experiment(inner: int, halo: int, total_bytes: int,
                         policy: WritePolicySim,
                         levels=DEFAULT_BENCH_CACHE,
                         element_size: int = 8) -> float:
    """Read-to-write traffic ratio of the strip-mined copy benchmark."""
    if halo < 0:
        raise ValueError("halo must be non-negative")
    rows = max(1, total_bytes // (inner * element_size))
    kernel, grid = halo_copy_kernel(inner, halo, rows, element_size)
    t = simulate_kernel(kernel, grid, levels, policy)
    return t.read_bytes / t.write_bytes


# -- trace files --------------------------------------------------------------


def dump_trace(trace, path: str | Path):
    """Write an iterable of ``TRACE_DTYPE`` record blocks to a trace file."""
    with open(path, "wb") as fh:
        for records in trace:
            records.tofile(fh)


def load_trace(path: str | Path):
    """Iterate over a trace file in blocks of ``TRACE_BLOCK`` records.

    A file size that is not a whole number of records raises ValueError
    (exit 2 from ``stencilmem replay``).
    """
    if Path(path).stat().st_size % TRACE_DTYPE.itemsize:
        raise ValueError(f"{path}: not a whole number of 9-byte trace records")
    records = np.fromfile(path, dtype=TRACE_DTYPE)
    return (records[i:i + TRACE_BLOCK] for i in range(0, records.size, TRACE_BLOCK))
