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
  to a regular allocate.

Only the last level of a hierarchy is replayed, and a caller may pass it
alone. Every access touches every level and a last-level eviction
invalidates the line in the levels above, so the last level's contents,
LRU order and dirty bits follow from the access sequence alone, and a
dirty line leaving an upper level always finds its copy below. The upper
levels therefore never change the traffic at the memory interface: this
is the inclusion property of LRU (Mattson et al., IBM Systems Journal
1970).

Every level has ``LINE_BYTES`` (64-byte) lines, the unit of the claim and
NT coverage masks: one bit per byte of a line, in one 64-bit word.

A trace is an iterable of ``TRACE_DTYPE`` record blocks (u64 byte address,
u8 mode: 0 read, 1 write); a trace file holds the same 9-byte records back
to back. A file size that is no whole number of records, a mode byte above
1 or an access across a cache line raises ValueError. Trace generation is
vectorized and the replay works on runs of consecutive same-line events,
cut by one function (``_cut``) for every block. A run that goes on past
the end of a block is held back and replayed with the next block, so the
traffic does not depend on where a trace is cut into blocks.

Under always-allocate, a block with no more runs than the level has free
lines is replayed once per distinct line, not once per run. Each line it
adds has a run of its own, so no line leaves the level, each line's
misses follow from its own runs alone, and the LRU order is the lines
the block does not touch, then the touched ones in order of last touch.
The state after the block is the one the run loop leaves; any other
block takes the run loop, so ``simulate`` of a trace that fills the
level takes it for each block once the level is nearly full. Claims and
NT always take the run loop, the one place that holds the claim rule and
the write-combine buffers, whose outcome depends on the order of the
runs.

A kernel sweep is periodic in its rows: row k + P is row k moved by whole
lines, P = 64 / gcd(row_bytes, 64). ``simulate_kernel`` replays period by
period and charges the rest of the sweep in bulk once a period repeats,
bit-identical to ``simulate`` of the whole trace. It draws period 1 alone
and feeds it. It cuts period 2 into runs once, as ``feed`` would: the run
held back after period 1, then period 1 moved by whole lines. Every later
period is period 2's runs moved by whole lines, and the tail a prefix of
period 1's events. After each period it retires the lines that the sweep
has left, which no access touches again, from the front of each table:
an entry there is its table's oldest (the stack property of LRU), so it
is dropped and charged at once for what it would cost later. Then it
takes one key of the state: the level (with dirty bits and order), the
claim table and the WC buffers, every line counted from the sweep's
position. The held-back run is period 1's last run moved with the sweep,
the same at every key, so the key leaves it out. A period repeats when its
key equals the one of the period before, and the bulk scales one counter
vector (lines read, written and avoided). ``simulate`` replays a trace in
full, as it has no rows.

Within a row, a visit is a stretch of iterations in which one access
stays on one line. While a line is in the middle of a visit it only hits,
so by the stack property of LRU its accesses there change nothing but
write coverage. ``simulate_kernel`` feeds each row squeezed: each access
at the first and the last iteration of each of its visits, a start write
with a mask of its own bytes and an end write with one of the rest of its
visit. The state after each row is the one the whole row leaves as long as
the level holds more than twice as many lines as the kernel has accesses
and, under NT, there are at least twice as many WC buffers as written
arrays; otherwise it feeds whole rows (``_replay_kernel`` says why the
rule is exact, and where). The masks are built only under claims and NT,
the policies that read them.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress, repeat
from operator import or_
from pathlib import Path

import numpy as np

from .kernels import (LINE_BYTES, READ, WRITE, Access, ArrayDecl, GridSpec,
                      KernelError, KernelSpec, _loop_bounds, iteration_count)

TRACE_DTYPE = np.dtype([("address", "<u8"), ("mode", "u1")])
TRACE_BLOCK = 1 << 16   # records per block that load_trace yields
LINE_SHIFT = LINE_BYTES.bit_length() - 1
FULL_MASK = (1 << LINE_BYTES) - 1     # coverage of a line written in full
NO_EVENTS = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=bool), None)


@dataclass(frozen=True)
class CacheLevelConfig:
    """One fully associative LRU cache level."""

    capacity: int

    def __post_init__(self):
        c = self.capacity
        if type(c) is not int or c <= 0 or c % LINE_BYTES:
            raise ValueError(f"capacity must be a positive integer multiple of "
                             f"{LINE_BYTES}, not {c!r}")

    @property
    def lines(self) -> int:
        return self.capacity // LINE_BYTES


@dataclass(frozen=True)
class AlwaysAllocate:
    pass


@dataclass(frozen=True)
class NtBypass:
    combine_buffers: int = 10

    def __post_init__(self):
        if type(self.combine_buffers) is not int or self.combine_buffers < 1:
            raise ValueError(f"combine_buffers must be an integer >= 1, "
                             f"not {self.combine_buffers!r}")


@dataclass(frozen=True)
class AutoClaim:
    buffer_lines: int = 64
    # not a field: bench/workloads.policy_tag reads it until ROADMAP item 10
    active = True

    def __post_init__(self):
        if type(self.buffer_lines) is not int or self.buffer_lines < 1:
            raise ValueError(f"buffer_lines must be an integer >= 1, "
                             f"not {self.buffer_lines!r}")


WritePolicySim = AlwaysAllocate | NtBypass | AutoClaim


def evades(policy: WritePolicySim) -> bool:
    """Whether the policy writes lines without fetching them first."""
    return isinstance(policy, (NtBypass, AutoClaim))


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


def gen_trace_blocks(kernel: KernelSpec, grid: GridSpec, rows: int = 16):
    """Yield the access stream as (addresses, write flags) numpy blocks.

    Iteration order is k outer ascending, j inner ascending; within an
    iteration reads come in declaration order, then writes. A block holds
    `rows` iteration rows, the last one the rest; the blocks put back
    together are the same stream for any `rows`. A `rows` below 1 raises
    ValueError.
    """
    if rows < 1:
        raise ValueError(f"a trace block needs at least one row, not {rows}")
    j0, j1, k0, k1 = _loop_bounds(kernel, grid)
    for acc in kernel.accesses:
        if not (-grid.halo_lo <= j0 + acc.dj and
                j1 + acc.dj <= grid.inner_extent - 1 + grid.halo_hi and
                -grid.halo_lo <= k0 + acc.dk and
                k1 + acc.dk <= grid.outer_extent - 1 + grid.halo_hi):
            raise KernelError(
                f"{kernel.name}: access {acc.array.name}({acc.dj},{acc.dk}) "
                f"leaves the allocated grid (halos {grid.halo_lo}/{grid.halo_hi})")
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
    # every block but the last has the same flags: one read-only array
    flags = np.tile(wflags, min(rows, k1 + 1 - k0) * jcol.size)
    flags.flags.writeable = False
    for kb in range(k0, k1 + 1, rows):
        ks = np.arange(kb, min(kb + rows, k1 + 1), dtype=np.int64)
        block = (ks[:, None, None] * row_bytes
                 + jcol[None, :, None]
                 + acc_const[None, None, :])
        addrs = block.reshape(-1).astype(np.uint64)
        yield addrs, flags[:addrs.size]


def gen_trace(kernel: KernelSpec, grid: GridSpec):
    """Yield the access stream as ``TRACE_DTYPE`` record blocks."""
    for addrs, writes in gen_trace_blocks(kernel, grid):
        records = np.empty(addrs.size, dtype=TRACE_DTYPE)
        records["address"] = addrs
        records["mode"] = writes
        yield records


def _cut(addrs: np.ndarray, writes: np.ndarray, masks: np.ndarray | None):
    """Cut events into runs, as ``feed`` and a sweep's periods do. A run is
    consecutive events on one line; a write followed by a read of that line
    starts a new run, otherwise the read could not trigger a deferred fill.
    So a run's reads come first, and its last event tells whether it
    writes.

    The last run may go on past the events, so it is held back. Returns
    the other runs, as ``_Hierarchy._replay`` takes them: each one's line
    and whether its last event writes, what ``_feed_lines`` reads; a
    function that builds the rest of the run loop's lists on its first
    call (``_replay_runs``: whether each run's first and last event write,
    and its coverage, 0 without `masks`); and the events and masks held
    back.
    """
    lines = addrs >> np.uint64(LINE_SHIFT)
    start = np.empty(lines.size, dtype=bool)
    start[0] = True
    np.not_equal(lines[1:], lines[:-1], out=start[1:])
    start[1:] |= writes[:-1] > writes[1:]     # a write, then a read
    starts = start.nonzero()[0]
    n = int(starts[-1])
    starts, last_w = starts[:-1], writes[starts[1:] - 1]

    @cache
    def loop():
        return (writes[starts].tolist(), last_w.tolist(), repeat(0) if masks is None
                else np.bitwise_or.reduceat(masks[:n], starts).tolist())

    return (lines[starts], last_w, loop,
            (addrs[n:], writes[n:], None if masks is None else masks[n:]))


class _Hierarchy:
    """Replay engine over the last cache level (the module docstring says
    why the levels above it are not replayed)."""

    def __init__(self, levels: list[CacheLevelConfig], policy: WritePolicySim):
        if not levels:
            raise ValueError("need at least one cache level")
        self.ways = levels[-1].lines
        # the cached lines (line -> dirty), least recently used first
        self.lru: OrderedDict[int, bool] = OrderedDict()
        self.policy = policy
        # lines read, lines written, fills avoided and claims aged out of a
        # full claim table; the last counts the runs replayed only, so
        # ``retire`` and a bulk add to the first three alone
        self.counts = np.zeros(4, dtype=np.int64)
        # claim-watched line -> byte coverage, oldest first; always resident
        self.pending: OrderedDict[int, int] = OrderedDict()
        # NT write-combine buffers of partially written lines, oldest first
        # (a line written in full is flushed at once); never resident
        self.wc: OrderedDict[int, int] = OrderedDict()
        self.nt = isinstance(policy, NtBypass)
        self.claim = isinstance(policy, AutoClaim)
        # the events and write masks of the last run fed, which the next
        # block may go on
        self.held = NO_EVENTS
        # rows of a kernel sweep replayed event by event, rows charged in
        # bulk from a repeating period, and the share of those charged while
        # the level was not full (``_replay_kernel``)
        self.replayed_rows = 0
        self.bulk_rows = 0
        self.fill_rows = 0

    def feed(self, addrs: np.ndarray, writes: np.ndarray, masks: np.ndarray | None = None):
        """Replay one block run by run; a run is consecutive events on one
        line, reads before writes.

        `masks` holds each event's write coverage, the bytes of its line
        that it writes (0 for a read). Only claims and NT stores read it, so
        under any other policy it may be None. ``simulate`` builds it from
        the access size (``_write_masks``); ``_replay_kernel`` feeds a
        sweep's period 1 and tail squeezed (``_squeeze``), where one write
        may stand for the writes of several iterations and cover their
        bytes.

        The run held back before goes in front of the block, which is cut
        into runs by ``_cut`` and replayed by ``_replay``. The block's last
        run may go on in the next block, so its events and masks are held
        back and replayed at the front of the next block, or by ``finish``
        as one run (``_replay_held``). So the traffic does not depend on
        where a trace is cut into blocks. The call adds its lines read,
        written and avoided and its claims aged out to ``counts``.
        """
        if self.held[0].size:
            addrs = np.concatenate((self.held[0], addrs))
            writes = np.concatenate((self.held[1], writes))
            if masks is not None:
                masks = np.concatenate((self.held[2], masks))
        if addrs.size == 0:
            return
        if masks is None and (self.claim or self.nt):
            raise ValueError("claims and NT stores need the write masks")
        self._replay(_cut(addrs, writes, masks))

    def _replay(self, runs: tuple, moved: int = 0):
        """Replay runs cut by ``_cut``, moved by `moved` lines, and hold back
        the run they held back, moved too. Under a policy that does not
        evade, a block with no more runs than the level has free lines is
        replayed line by line (``_feed_lines``); it adds at most one line a
        run, so it evicts none. Any other block takes the run loop
        (``_replay_runs``), whose lists are built only then. `moved` is 0
        in ``feed``, and nothing is then copied.
        """
        lines, last_w, loop, (addrs, writes, masks) = runs
        if moved:
            lines = lines + np.uint64(moved)
            addrs = addrs + np.uint64(moved * LINE_BYTES)
        self.held = addrs, writes, masks
        if not lines.size:
            return
        if self.claim or self.nt or lines.size > self.ways - len(self.lru):
            self._replay_runs(lines.tolist(), *loop())
        else:
            self._feed_lines(lines, last_w)

    def _replay_runs(self, lines, first_w, any_w, cov):
        """The run loop: replay runs one by one. The arguments are iterables
        of one entry per run, as ``_cut`` finds them: the run's line,
        whether its first and whether its last event writes, and its write
        coverage; the lines give the number of runs, and the others may go
        on past them. It adds the lines read, written and avoided and the
        claims aged out to ``counts``. The free room of the level is read
        once a call and counted down on each miss, as ``retire`` and
        ``_feed_lines`` change it between calls."""
        lru = self.lru
        touch, evict = lru.move_to_end, lru.popitem
        room = self.ways - len(lru)
        pending, wc, full = self.pending, self.wc, FULL_MASK
        claim, nt = self.claim, self.nt
        window = self.policy.buffer_lines if claim else 0
        buffers = self.policy.combine_buffers if nt else 0
        reads = writes_out = avoided = aged = 0
        for line, first_w, any_w, cov in zip(lines, first_w, any_w, cov):
            if line in lru:
                touch(line)
                if any_w:
                    lru[line] = True
                if pending and line in pending:
                    if not first_w:
                        # the read needs the pre-write bytes: fill after all
                        del pending[line]
                        reads += 1
                    else:
                        c = pending[line] | cov
                        if c == full:
                            del pending[line]
                            avoided += 1
                        else:
                            pending[line] = c
                continue
            if nt and first_w:
                # streaming store to a line that is not cached
                c = wc.pop(line, 0) | cov
                if c == full:
                    writes_out += 1
                else:
                    wc[line] = c
                    if len(wc) > buffers:
                        # a buffer holds a partial line: write plus merge read
                        wc.popitem(last=False)
                        writes_out += 1
                        reads += 1
                continue
            if wc and line in wc:
                # a read drains the line's write-combine buffer first
                del wc[line]
                writes_out += 1
                reads += 1
            lru[line] = any_w
            if room:
                room -= 1
            else:
                victim, dirty = evict(False)
                if dirty:
                    writes_out += 1
                if pending and victim in pending:
                    # aged out of the cache before the claim completed
                    del pending[victim]
                    reads += 1
            if not (claim and first_w):
                reads += 1      # the read fill or the write-allocate fill
            elif cov == full:
                avoided += 1    # whole line written in one go
            else:
                pending[line] = cov
                if len(pending) > window:
                    pending.popitem(last=False)
                    reads += 1  # incomplete: regular allocate after all
                    aged += 1
        self.counts += (reads, writes_out, avoided, aged)

    def _feed_lines(self, lines, any_w):
        """Replay a block's runs line by line. The arguments hold one entry
        per run, as ``_cut`` finds them: its line and whether it writes.
        ``_replay`` sends only a block under a policy that does not evade,
        so the only charge is a fill for each line not cached, and only a
        block with no more runs than the level has free lines.

        Each line the block adds has a run of its own, so no line leaves the
        level: a line's first run misses if the line was not cached, and its
        later runs hit. Each touched line moves to the end of the LRU order
        in order of last touch, dirty if it was or any of its runs writes.
        """
        lru = self.lru
        n = lines.size
        order = np.argsort(lines, kind="stable")    # the runs of each line
        lines = lines[order]
        edge = np.ones(n + 1, dtype=bool)  # edge[i]: runs i - 1 and i differ in line
        np.not_equal(lines[1:], lines[:-1], out=edge[1:n])
        first, last = np.flatnonzero(edge[:-1]), np.flatnonzero(edge[1:])
        k = first.size
        ulines = lines[first]
        keys = ulines.tolist()
        present = np.fromiter(map(lru.__contains__, keys), bool, k)
        hits = np.count_nonzero(present)
        self.counts[0] += k - hits
        # each line moves to the end of the LRU order in order of last touch
        dirty = np.logical_or.reduceat(any_w[order], first)
        dirty[present] |= np.fromiter(map(lru.pop, compress(keys, present)), bool, hits)
        recent = np.argsort(order[last])
        lru.update(zip(ulines[recent].tolist(), dirty[recent].tolist()))

    def retire(self, live: set[int], moved: int):
        """Drop the entries of the lines a sweep has left from the front of
        each table and charge now what each would cost later. A line has
        been left if the line less `moved` is not in `live`; no access
        touches it again.

        * The claim table's prefix of claims on left lines costs one read
          each: the fill it pays when it ages out, is evicted or is left
          open at the end.
        * The LRU order's prefix of left lines that hold no claim costs one
          write for each dirty one, evicted or flushed by ``finish``.
        * The WC buffers' prefix of left lines costs a write and a merge
          read each, flushed on overflow or drained by ``finish``.

        Each entry dropped is its table's oldest: LRU order is last-touch
        order, WC order last-store order, and only the claim table's prefix
        goes. So a later miss, age-out or overflow that would have taken it
        finds free room instead, and nothing else changes. A cached line
        whose claim stays in the table stays too, as its eviction would
        shrink the table later.
        """
        lru, pending, wc = self.lru, self.pending, self.wc
        reads = writes = 0
        while pending and next(iter(pending)) - moved not in live:
            pending.popitem(last=False)
            reads += 1
        while lru:
            line = next(iter(lru))
            if line - moved in live or line in pending:
                break
            writes += lru.popitem(last=False)[1]
        while wc and next(iter(wc)) - moved not in live:
            wc.popitem(last=False)
            reads += 1
            writes += 1
        self.counts[:2] += (reads, writes)

    def window(self, base: int) -> tuple:
        """The state of the level as a key, with every line counted from
        `base`, the sweep's position in lines: a period that moves the state
        by the lines the sweep moves repeats its key. It holds the cached
        lines in LRU order with their dirty bits, the claim table and the
        WC buffers.

        The held-back run is left out. At every key that ``_replay_kernel``
        takes it is period 1's last run moved by D lines a period, as the
        base is, so counted from the base it is the same at each key and
        cannot tell two of them apart.
        """
        lru = self.lru
        lines = np.fromiter(lru, np.int64, len(lru)) - base
        dirty = np.fromiter(lru.values(), bool, len(lru))
        return (lines.tobytes(), dirty.tobytes(),
                [(line - base, c) for line, c in self.pending.items()],
                [(line - base, c) for line, c in self.wc.items()])

    def _replay_held(self):
        """Replay the held-back run, if any, and hold nothing back. It is one
        run, so it goes straight to the run loop, with none of the numpy
        set-up of ``feed``."""
        (addrs, writes, masks), self.held = self.held, NO_EVENTS
        if addrs.size:
            self._replay_runs((int(addrs[0]) >> LINE_SHIFT,), (bool(writes[0]),),
                              (bool(writes[-1]),),
                              (0 if masks is None else reduce(or_, masks.tolist()),))

    def finish(self):
        """End of trace: replay the held-back run, resolve open claims, drain
        WC buffers, flush dirty lines."""
        self._replay_held()
        self.counts[:2] += (len(self.pending) + len(self.wc),
                            len(self.wc) + sum(self.lru.values()))
        self.pending.clear()
        self.wc.clear()

    def traffic(self, iterations: int) -> MemTraffic:
        read, write, avoided = (self.counts[:3] * LINE_BYTES).tolist()
        return MemTraffic(read, write, avoided, iterations)


def _write_masks(addrs: np.ndarray, writes: np.ndarray, access_bytes: int) -> np.ndarray:
    """The bytes of its line that each event writes, `access_bytes` from its
    address for a write, none for a read."""
    offs = addrs & np.uint64(LINE_BYTES - 1)
    return np.where(writes, np.left_shift(np.uint64((1 << access_bytes) - 1), offs),
                    np.uint64(0))


def _record_fields(records: np.ndarray, access_bytes: int):
    if np.any(records["mode"] > 1):
        raise ValueError("bad trace mode byte: 0 is a read, 1 a write")
    addrs = records["address"]
    crossing = (addrs & np.uint64(LINE_BYTES - 1)) > np.uint64(LINE_BYTES - access_bytes)
    if np.any(crossing):
        raise ValueError(f"a {access_bytes}-byte access at address "
                         f"{addrs[crossing][0]} crosses a {LINE_BYTES}-byte cache line")
    return addrs, records["mode"].view(np.bool_)


def simulate(trace, levels, policy: WritePolicySim = AlwaysAllocate(),
             access_bytes: int = 8) -> MemTraffic:
    """Replay an iterable of ``TRACE_DTYPE`` record blocks through the hierarchy.

    Only the last of ``levels`` is replayed: in the inclusive LRU hierarchy
    the levels above it never change the memory traffic. Every event
    touches ``access_bytes`` bytes starting at its address (the trace format
    itself carries no size); an ``access_bytes`` that is no integer in
    1..64, a mode byte above 1, or an access that crosses a cache line
    raises ValueError (exit 2 from ``stencilmem replay``). A
    trace has no rows, so it is replayed in full. The traffic is the same
    however the trace is cut into blocks. The returned MemTraffic counts no
    iterations.
    """
    if type(access_bytes) is not int or not 1 <= access_bytes <= LINE_BYTES:
        raise ValueError(f"access_bytes must be an integer in 1..{LINE_BYTES}, "
                         f"not {access_bytes!r}")
    sim = _Hierarchy(list(levels), policy)
    for records in trace:
        addrs, writes = _record_fields(records, access_bytes)
        sim.feed(addrs, writes, _write_masks(addrs, writes, access_bytes)
                 if evades(policy) else None)
    sim.finish()
    return sim.traffic(0)


def _window_rows(kernel: KernelSpec, grid: GridSpec) -> int:
    """Rows after which a line the sweep has left is never touched again,
    or 0 if two arrays share a cache line. ``_replay_kernel`` keeps the
    lines of at least this many rows as it retires the others.

    Iteration row k touches rows k + dk of the arrays, and a line lies in
    at most 64 // row_bytes + 2 consecutive rows of its array, so the first
    and last touch of a line are at most
    span = max(dk) - min(dk) + 64 // row_bytes + 1 rows apart: a line
    untouched for that many rows is never touched again. If two arrays
    share a line, it may come back a whole sweep later.
    """
    esize, stride = grid.element_size, grid.row_stride
    row_bytes = stride * esize
    origin = (grid.halo_lo * stride + grid.halo_lo) * esize
    if any((addr - origin) % LINE_BYTES for addr in array_layout(kernel, grid).values()):
        return 0
    dks = [a.dk for a in kernel.accesses]
    return max(dks) - min(dks) + LINE_BYTES // row_bytes + 1


def _live_lines(addrs: np.ndarray, accesses: int, periods: int, shift: int) -> set[int]:
    """The lines that the first `periods` periods of a sweep touch, from the
    events of the first, `addrs`: period n is period 1 moved by (n - 1) *
    `shift` lines. Of each access, only the iterations that move it to
    another line are looked at."""
    lines = addrs.reshape(-1, accesses) >> np.uint64(LINE_SHIFT)
    moved = np.ones(lines.shape, dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=moved[1:])
    first = set(lines[moved].tolist())
    live = set(first)
    for n in range(1, periods):
        live.update(map((n * shift).__add__, first))
    return live


def _squeeze(kernel: KernelSpec, row_iters: int, esize: int, addrs: np.ndarray,
             squeeze: bool, masks: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Which events of whole rows of a sweep to feed, and their write masks.

    `addrs` holds whole rows of `row_iters` iterations, each iteration's
    reads before its writes. A visit is a stretch of iterations of one row
    in which one access stays on one line. With `squeeze`, each access is
    fed in the first and the last iteration of each of its visits
    (``_replay_kernel`` says why that is exact, and where); without it,
    every event is fed.

    Each write fed carries one mask of the bytes that its access writes
    since the event of that access fed before it, all on its line. Returns
    the index of the events fed, in order, and their masks, or None for
    the masks without `masks`, as only claims and NT stores read them.
    """
    accesses = len(kernel.accesses)
    reads = len(kernel.reads())
    iters = addrs.size // accesses
    addrs = addrs.reshape(iters, accesses)
    # start[i, a]: access a starts a visit in iteration i, and ends one in
    # iteration i - 1, as every row's first iteration starts a visit
    start = np.ones((iters + 1, accesses), dtype=bool)
    if squeeze:
        lines = addrs >> np.uint64(LINE_SHIFT)
        np.not_equal(lines[1:], lines[:-1], out=start[1:iters])
        start[::row_iters] = True
    fed = start[:-1] | start[1:]
    index = np.flatnonzero(fed)
    if not masks:
        return index, None
    # a write fed covers `span` bytes: its own and those of the iterations
    # since its access was last fed, which all stay on its line
    writes = addrs[:, reads:]
    it = np.arange(iters)[:, None]
    before = np.full(writes.shape, -1)
    np.maximum.accumulate(np.where(fed[:, reads:], it, -1)[:-1], axis=0, out=before[1:])
    span = ((it - before) * esize).astype(np.uint64)
    low = (writes & np.uint64(LINE_BYTES - 1)) + np.uint64(esize) - span
    cover = np.zeros(fed.shape, dtype=np.uint64)
    cover[:, reads:] = np.uint64(FULL_MASK) >> (np.uint64(LINE_BYTES) - span) << low
    return index, cover[fed]


def _replay_kernel(kernel: KernelSpec, grid: GridSpec, levels,
                   policy: WritePolicySim) -> _Hierarchy:
    """Replay and finish one kernel's sweep, charging what repeats in bulk.

    Row k + P of the trace is row k moved by D = P * row_bytes / 64 whole
    lines, with P = 64 / gcd(row_bytes, 64). The replay goes one period of
    P rows at a time. After each period it takes the key of the level
    (``_Hierarchy.window``: the whole level, the claim table and the WC
    buffers) with every line counted from the row the sweep has reached,
    which moves D lines a period, and compares it with the key one period
    earlier. On a match it charges every remaining whole period with the
    delta of the counter vector over the last one, replays the tail rows
    and finishes.

    Row k + P is row k moved by whole lines, so the sweep draws period 1
    alone, as one block of ``gen_trace_blocks`` (P rows), and finds once
    which of its events are fed (``_squeeze``), with write masks only
    under claims and NT. Period 1 goes through ``feed``. Period 2 is cut
    into runs once, by the same ``_cut``, from what ``feed`` would see: the
    run held back after period 1, then period 1's fed events moved by D
    lines. Moving by whole lines keeps every cut between two events, so
    period n + 2 replays period 2's runs moved by n * D lines and holds
    back period 2's last run, which is period 1's moved, moved too. The
    tail rows, or a last period cut short, are a prefix of period 1's
    events moved, fed through ``feed``. For a kernel of A accesses that
    writes W arrays (each at one offset), rows are squeezed by visit on a
    level of at least 2A + 1 lines and, under NT, with at least 2W WC
    buffers; otherwise they are fed whole. After each squeezed row, once
    the held-back run is replayed too, the state is the one the whole row
    leaves.

    A visit is a stretch of iterations of one row in which one
    access stays on one line; it lasts at most 64 / e iterations, for
    elements of e bytes. Each access is fed at the first and the last
    iteration of each of its visits. A start write's mask covers its own
    bytes, an end write's the rest of its visit. Between a visit's fed
    start and its fed end the line's recorded last touch is stale, but the
    line is in flight and all its accesses are hits:

    * Let s be the oldest fed start of a visit in flight. Since s each
      access has touched at most two lines, as 64 / e consecutive elements
      span two, so at most 2A lines are newer than s. A miss on a level of
      at least 2A + 1 lines therefore finds a line older than s. That line
      is one the sweep has left, and its last touch, the end of a visit,
      was fed, so it is the LRU victim of the squeezed and of the whole
      rows alike, and no line in flight is evicted.
    * Claims open on write misses, at visit starts, and complete at visit
      ends: each element is written once, so the write that completes a
      line is the last of its visit on it. A read of a claimed line starts
      a visit, as the line was not cached before the claim opened. So the
      claim table changes at fed events only, in the same order.
    * Under NT at most W lines are in flight and at most W partial lines
      are left within one such window, so with at least 2W buffers an
      overflow pops a line that was left, whose last store was fed.
    * Every visit ends at a row's last iteration, so after each row no
      line is in flight.

    A start write and the end write of its visit fall into one run when
    nothing between them is fed but writes on their line. The run adds
    the visit's bytes at once, where the whole row adds them write by
    write. With nothing fed in between, that leaves the same tables,
    unless the run misses and completes its line at once while the whole
    row first writes the line in a run of its own, which opens a claim or
    WC buffer that may push an older one out. That never happens:

    * A line in flight stays cached or in its WC buffer, so after a miss
      every byte that the run covers is written within it.
    * The whole row's run breaks only at an access x on another line (a
      read of the line would have cached it). x is fed nowhere between the
      run's first and last event, so one visit of x holds the iterations
      in which any one access writes in the run, and one more: each array
      writes less than a line there.
    * So the line holds two arrays, each written at one offset: the last
      element of the lower one, written only in a row's last iteration,
      and the first of the upper one, written only in a row's first
      iteration. x's visit holds both and stays in one row, so it is that
      row, with the run's first event after x in its iteration and its
      last before x.
    * Reads are fed in the row's last iteration, between the run's first
      and last event, so the kernel only writes. Its events then come in
      the order in which ``array_layout`` packs the arrays, so x's array
      lies between the two, on the line.

    Both guards are needed, as two tests of ``tests/test_cachesim.py``
    pin. On a level of A + 1 lines a miss evicts a line still in flight:
    ``test_level_of_up_to_twice_the_accesses_keeps_whole_rows``. Two
    store streams half a line apart through two WC buffers overflow them
    with a line still being written:
    ``test_fewer_nt_buffers_than_twice_the_written_arrays_keep_whole_rows``.

    A line that the sweep has left is never touched again
    (``_window_rows``), and the lines the rest of the sweep can touch were
    all touched in the last ``history`` periods, which cover that bound.
    Period n is period 1 moved by (n - 1) * D lines, so these live lines
    are found once, from period 1 alone (``_live_lines``); they are the
    lines its fed events touch too, as the first iteration of every visit
    is fed. Only the last period may be cut short, and its rows are a
    prefix of a whole period's, so its lines are among them. From then on,
    full level or not, the replay retires the left lines after each period
    (``_Hierarchy.retire``). That also frees lines, so under
    always-allocate the next period is replayed line by line if a free
    line is left for each of its runs. A left line was last touched before
    every live one, so the left lines lead the LRU order and the WC
    buffers (the stack property of LRU, Mattson et al. 1970), and each
    entry dropped is its table's oldest. Dropping it turns a later
    eviction, age-out or overflow into free room and changes nothing else,
    and what it would have cost then is charged now. A level that
    keeps only its live lines repeats as soon as the sweep does. The key
    is the whole state but the held-back run, which is period 1's last run
    moved by D lines a period, as the key's base is, so counted from the
    base it is the same at every key. Equal keys one period apart
    therefore make every later period the same one moved by D lines, with
    the same counter delta, and the bulk is exact with no further check.

    The engine only compares lines for equality, and ``finish`` only
    counts, so the tail rows are replayed from the matched state with the
    next rows of the trace instead of moving every table by the skipped
    lines.
    """
    sim = _Hierarchy(list(levels), policy)
    j0, j1, k0, k1 = _loop_bounds(kernel, grid)
    row_events = (j1 - j0 + 1) * len(kernel.accesses)
    row_bytes = grid.row_stride * grid.element_size
    period = LINE_BYTES // math.gcd(row_bytes, LINE_BYTES)
    shift = period * row_bytes // LINE_BYTES
    row = k0                        # the first row of the next period
    width = _window_rows(kernel, grid)
    # the periods whose lines cover `width` rows, and their lines once a
    # retire needs them
    history = max(1, -(-width // period))
    live = None
    # whether rows squeezed by visit leave the state of whole rows; only NT
    # can run short of WC buffers
    buffers = policy.combine_buffers if sim.nt else math.inf
    squeeze = sim.ways > 2 * len(kernel.accesses) and 2 * len(kernel.writes()) <= buffers
    # period 1, or the whole sweep if it is shorter
    addrs, writes = next(gen_trace_blocks(kernel, grid, period))
    keep, masks = _squeeze(kernel, j1 - j0 + 1, grid.element_size, addrs, squeeze,
                           sim.claim or sim.nt)
    fed = addrs[keep], writes[keep], masks

    def feed(rows, n):
        """Feed the first `rows` rows of period n + 1."""
        i = int(np.searchsorted(keep, rows * row_events))
        sim.feed(fed[0][:i] + np.uint64(n * shift * LINE_BYTES), fed[1][:i],
                 None if masks is None else masks[:i])

    sim.feed(*fed)
    # period 2 as ``feed`` would see it: the run held back after period 1,
    # then period 1 moved by D lines
    held = sim.held
    later = _cut(np.concatenate((held[0], fed[0] + np.uint64(shift * LINE_BYTES))),
                 np.concatenate((held[1], fed[1])),
                 None if masks is None else np.concatenate((held[2], masks)))
    rows = addrs.size // row_events
    before = None, None
    n = 1                           # periods replayed
    while True:
        sim.replayed_rows += rows
        row += rows
        filling = len(sim.lru) < sim.ways
        if width and n > history:
            if live is None:
                live = _live_lines(addrs, len(kernel.accesses), history, shift)
            sim.retire(live, (n - history) * shift)
        key = sim.window(row * row_bytes // LINE_BYTES)
        left = k1 + 1 - row
        if key == before[0]:
            whole, left = divmod(left, period)
            sim.counts[:3] += whole * (sim.counts - before[1])[:3]
            sim.bulk_rows += whole * period
            if filling:
                sim.fill_rows += whole * period
        elif left >= period:
            before = key, sim.counts.copy()
            sim._replay(later, (n - 1) * shift)
            n += 1
            rows = period
            continue
        if left:    # the tail, or a last period cut short
            feed(left, n)
            sim.replayed_rows += left
        break
    sim.finish()
    return sim


def simulate_kernel(kernel: KernelSpec, grid: GridSpec, levels,
                    policy: WritePolicySim = AlwaysAllocate()) -> MemTraffic:
    """Generate and replay the sweep of one kernel over a grid.

    As in ``simulate``, only the last of ``levels`` is replayed. A kernel
    trace is aligned to the element size, so no access crosses a line. Once
    the whole state repeats from one period of rows to the next, the rest
    of the sweep is charged in bulk (``_replay_kernel``), and the traffic
    is bit-identical to ``simulate(gen_trace(kernel, grid), ...)``.
    """
    sim = _replay_kernel(kernel, grid, levels, policy)
    return sim.traffic(iteration_count(kernel, grid))


# -- microbenchmark kernels ---------------------------------------------------
# Both benchmarks stream doubles (GridSpec's default element size) through
# DEFAULT_BENCH_CACHE.


def store_stream_kernel(streams: int, elements: int) -> tuple[KernelSpec, GridSpec]:
    """Pure store kernel writing `streams` independent aligned arrays."""
    grid = GridSpec(inner_extent=elements, outer_extent=1)
    accesses = tuple(Access(ArrayDecl(f"s{i}", grid), 0, 0, WRITE)
                     for i in range(streams))
    return KernelSpec(name=f"store{streams}", accesses=accesses), grid


DEFAULT_BENCH_CACHE = (CacheLevelConfig(capacity=256 * 1024),)


def store_ratio(streams: int, volume_bytes: int, policy: WritePolicySim) -> float:
    """Actual memory traffic / explicitly stored volume for n store streams.

    The one row of the store kernel is replayed as rows of one line each:
    with no halo that is the same trace byte for byte, and a period of one
    row, so ``simulate_kernel`` fast-forwards it.
    """
    if streams < 1:
        raise ValueError(f"need at least one store stream, not {streams}")
    if volume_bytes < LINE_BYTES:
        raise ValueError(f"volume must be at least one {LINE_BYTES}-byte cache line")
    lines = max(1, volume_bytes // (streams * LINE_BYTES))    # per stream
    kernel, grid = store_stream_kernel(streams, lines * LINE_BYTES // 8)
    t = simulate_kernel(kernel, grid.resized(LINE_BYTES // 8, lines),
                        DEFAULT_BENCH_CACHE, policy)
    return t.total_bytes / (lines * streams * LINE_BYTES)


def halo_copy_kernel(inner: int, halo: int, rows: int) -> tuple[KernelSpec, GridSpec]:
    """Strip-mined copy: rows of `inner` elements, `halo` skipped in between."""
    grid = GridSpec(inner_extent=inner, outer_extent=rows, halo_lo=0, halo_hi=halo)
    src = ArrayDecl("b", grid)
    dst = ArrayDecl("a", grid)
    kernel = KernelSpec(name="halo_copy",
                        accesses=(Access(src, 0, 0, READ), Access(dst, 0, 0, WRITE)))
    return kernel, grid


def halo_copy_experiment(inner: int, halo: int, total_bytes: int,
                         policy: WritePolicySim) -> float:
    """Read-to-write traffic ratio of the strip-mined copy benchmark."""
    if inner < 1:
        raise ValueError(f"rows need at least one inner element, not {inner}")
    if total_bytes < LINE_BYTES:
        raise ValueError(f"volume must be at least one {LINE_BYTES}-byte cache line")
    kernel, grid = halo_copy_kernel(inner, halo, max(1, total_bytes // (inner * 8)))
    t = simulate_kernel(kernel, grid, DEFAULT_BENCH_CACHE, policy)
    return t.read_bytes / t.write_bytes


# -- trace files --------------------------------------------------------------


def dump_trace(trace, path: str | Path):
    """Write an iterable of ``TRACE_DTYPE`` record blocks to a trace file."""
    with open(path, "wb") as fh:
        for records in trace:
            records.tofile(fh)


def load_trace(path: str | Path):
    """Iterate over a trace file in blocks of ``TRACE_BLOCK`` records, read
    one block at a time; the file is closed when the iteration ends.

    A file size that is not a whole number of records raises ValueError
    at the call, before any block (exit 2 from ``stencilmem replay``).
    """
    if Path(path).stat().st_size % TRACE_DTYPE.itemsize:
        raise ValueError(f"{path}: not a whole number of 9-byte trace records")
    return _trace_blocks(path)


def _trace_blocks(path: str | Path):
    with open(path, "rb") as fh:
        while (records := np.fromfile(fh, dtype=TRACE_DTYPE, count=TRACE_BLOCK)).size:
            yield records
