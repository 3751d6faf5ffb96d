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

Only the last level of the hierarchy is replayed. Every access touches
every level and a last-level eviction invalidates the line in the levels
above, so the last level's contents, LRU order and dirty bits follow from
the access sequence alone, and a dirty line leaving an upper level always
finds its copy below. The upper levels therefore never change the traffic
at the memory interface: this is the inclusion property of LRU (Mattson et
al., IBM Systems Journal 1970). They are still validated.

Every level has ``LINE_BYTES`` (64-byte) lines, the unit of the claim and
NT coverage masks: one bit per byte of a line, in one 64-bit word.

A trace is an iterable of ``TRACE_DTYPE`` record blocks (u64 byte address,
u8 mode: 0 read, 1 write); a trace file holds the same 9-byte records back
to back. A file size that is no whole number of records, a mode byte above
1 or an access across a cache line raises ValueError. Trace generation is
vectorized and the replay works on runs of consecutive same-line events. A
run that goes on past the end of a block is held back and replayed with the
next block, so the traffic does not depend on where a trace is cut into
blocks.

A block that evicts no line is replayed once per distinct line, not once
per run, under always-allocate (an inactive claim detector replays as
always-allocate). No line then leaves the level, so each line's misses
follow from its own runs alone, and the LRU order is the lines the block
does not touch, then the touched ones in order of last touch. The state
after the block is the one the run loop leaves; any other block takes
the run loop, so ``simulate`` of a trace that fills the level takes it
for each block that evicts. Claims and NT always take the run loop, the
one place that holds the claim rule and the write-combine buffers, whose
outcome depends on the order of the runs.

A kernel sweep is periodic in its rows: row k + P is row k moved by whole
lines, P = 64 / gcd(row_bytes, 64). ``simulate_kernel`` replays period by
period, each drawn as one block of P rows when the replay reaches it, and
charges the rest of the sweep in bulk once a period repeats, bit-identical
to ``simulate`` of the whole trace. So it generates only the rows it
replays, and at most one period more for the tail. After each period it
retires the lines that the sweep has left, which no access touches again,
from the front of each table: an entry there is its table's oldest (the
stack property of LRU), so it is dropped and charged at once for what it
would cost later. Then it takes one key of the whole state: the level
(with dirty bits and order), the claim table, the WC buffers and the
held-back run, every line counted from the sweep's position. A period
repeats when its key equals the one of the period before, and the bulk
scales one counter vector (lines read, written and avoided). ``simulate``
replays a trace in full, as it has no rows.

Within a row, an iteration whose accesses all stay on the lines of the
iteration before it only hits, if the level holds the lines of one
iteration, so by the stack property of LRU it changes nothing but write
coverage. ``simulate_kernel`` feeds each row with such iterations squeezed
out: of a stretch of them it feeds only the last read and the writes of
the last one, and each write carries one mask of the bytes that its
access writes over the stretch. The state after each row is the one the
whole row leaves as long as the level holds at least as many lines as the
kernel has accesses and, under NT, the kernel writes no more arrays than
there are WC buffers (``_replay_kernel`` says why). The masks are built
only under claims and NT, the policies that read them.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import or_
from pathlib import Path

import numpy as np

from .kernels import (LINE_BYTES, READ, WRITE, Access, ArrayDecl, GridSpec,
                      KernelError, KernelSpec, _loop_bounds, iteration_count)

TRACE_DTYPE = np.dtype([("address", "<u8"), ("mode", "u1")])
TRACE_BLOCK = 1 << 16   # records per block that load_trace yields
LINE_REPLAY_RUNS = 256  # fewest runs a block replays line by line
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
    active: bool = True

    def __post_init__(self):
        if type(self.buffer_lines) is not int or self.buffer_lines < 1:
            raise ValueError(f"buffer_lines must be an integer >= 1, "
                             f"not {self.buffer_lines!r}")
        if type(self.active) is not bool:
            raise ValueError(f"active must be a bool, not {self.active!r}")


WritePolicySim = AlwaysAllocate | NtBypass | AutoClaim


def evades(policy: WritePolicySim) -> bool:
    """Whether the policy writes lines without fetching them first."""
    return isinstance(policy, NtBypass) or (isinstance(policy, AutoClaim)
                                            and policy.active)


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
        self.claim = evades(policy) and not self.nt
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
        the access size (``_write_masks``); ``_replay_kernel`` feeds each
        period squeezed (``_squeeze``), where one write may stand for the
        writes of several iterations and cover their bytes.

        The block's last run may go on in the next block, so its events and
        masks are held back and replayed at the front of the next block, or
        by ``finish`` as one run (``_replay_held``). So the traffic does not
        depend on where a trace is cut into blocks. Under a policy that
        does not evade, a block of at least ``LINE_REPLAY_RUNS`` runs that
        evicts no line is replayed line by line instead (``_feed_lines``),
        to the same state; fewer runs cost less in the run loop
        (``_replay_runs``) than the per-line path's fixed numpy calls.
        Claims and NT always take the run loop. The call adds its lines
        read, written and avoided and its claims aged out to ``counts``.
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
        lines = addrs >> np.uint64(LINE_SHIFT)
        split = lines[1:] != lines[:-1]
        # a write followed by a read of the same line must start a new run,
        # otherwise the read could not trigger a deferred fill; so a run's
        # reads come first, and its last event tells whether it writes
        np.logical_or(split, writes[:-1] & ~writes[1:], out=split)
        starts = np.flatnonzero(np.concatenate(([True], split)))
        n = int(starts[-1])
        self.held = addrs[n:], writes[n:], None if masks is None else masks[n:]
        if n == 0:
            return
        starts = starts[:-1]
        ends = np.append(starts[1:], n) - 1
        start_lines, any_w = lines[starts], writes[ends]
        if (not (self.claim or self.nt) and starts.size >= LINE_REPLAY_RUNS
                and self._feed_lines(start_lines, any_w)):
            return
        # only claims and NT stores read the coverage
        cov = None if masks is None else np.bitwise_or.reduceat(masks[:n], starts)
        self._replay_runs(start_lines.tolist(), writes[starts].tolist(), any_w.tolist(),
                          repeat(0) if cov is None else cov.tolist())

    def _replay_runs(self, lines, first_w, any_w, cov):
        """The run loop: replay runs one by one. The arguments are iterables
        of one entry per run, as ``feed`` finds them: the run's line,
        whether its first and whether its last event writes, and its write
        coverage. It adds the lines read, written and avoided and the claims
        aged out to ``counts``."""
        lru, ways = self.lru, self.ways
        pending, wc, full = self.pending, self.wc, FULL_MASK
        claim, nt = self.claim, self.nt
        window = self.policy.buffer_lines if claim else 0
        buffers = self.policy.combine_buffers if nt else 0
        reads = writes_out = avoided = aged = 0
        for line, first_w, any_w, cov in zip(lines, first_w, any_w, cov):
            if line in lru:
                lru.move_to_end(line)
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
            if len(lru) > ways:
                victim, dirty = lru.popitem(last=False)
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

    def _feed_lines(self, lines, any_w) -> bool:
        """Replay a block's runs line by line if it evicts no line; otherwise
        return False with nothing changed. The arguments hold one entry per
        run, as ``feed`` finds them: its line and whether it writes. Only a
        policy that does not evade comes here, so the only charge is a fill
        for each line not cached.

        The block is taken only if the level has room for every line it
        adds. No line then leaves the level, so a line's first run misses
        if the line was not cached, and its later runs hit. Each touched
        line moves to the end of the LRU order in order of last touch,
        dirty if it was or any of its runs writes.

        A block whose lines fall in more than ``ways`` residues modulo a
        power of two above ``ways`` (so it has more than ``ways`` distinct
        lines) is declined before any sort.
        """
        lru, ways = self.lru, self.ways
        n = lines.size
        if n > ways:
            residues = np.zeros(1 << ways.bit_length(), dtype=bool)
            residues[lines & np.uint64(residues.size - 1)] = True
            if np.count_nonzero(residues) > ways:
                return False
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
        if len(lru) + k - hits > ways:
            return False
        self.counts[0] += k - hits
        # each line moves to the end of the LRU order in order of last touch
        dirty = np.logical_or.reduceat(any_w[order], first)
        dirty[present] |= np.fromiter(map(lru.pop, compress(keys, present)), bool, hits)
        recent = np.argsort(order[last])
        lru.update(zip(ulines[recent].tolist(), dirty[recent].tolist()))
        return True

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
        """The whole state of the level as a key, with every line counted
        from `base`, the sweep's position in lines: a period that moves the
        state by the lines the sweep moves repeats its key. It holds the
        cached lines in LRU order with their dirty bits, the claim table,
        the WC buffers and the held-back run with its write masks.
        """
        lru = self.lru
        lines = np.fromiter(lru, np.int64, len(lru)) - base
        dirty = np.fromiter(lru.values(), bool, len(lru))
        addrs, writes, masks = self.held
        return (lines.tobytes(), dirty.tobytes(),
                [(line - base, c) for line, c in self.pending.items()],
                [(line - base, c) for line, c in self.wc.items()],
                (addrs - np.uint64(base * LINE_BYTES)).tobytes(), writes.tobytes(),
                None if masks is None else masks.tobytes())

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
    itself carries no size). A mode byte above 1, or an access that crosses
    a cache line, raises ValueError (exit 2 from ``stencilmem replay``). A
    trace has no rows, so it is replayed in full. The traffic is the same
    however the trace is cut into blocks. The returned MemTraffic counts no
    iterations.
    """
    if access_bytes < 1 or access_bytes > LINE_BYTES:
        raise ValueError(f"access_bytes must be in 1..{LINE_BYTES}")
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
             squeeze: bool = True,
             masks: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Which events of whole rows of a sweep to feed, and their write masks.

    `addrs` holds whole rows of `row_iters` iterations, each iteration's
    reads before its writes. An iteration repeats if each of its accesses
    stays on the line it touched in the iteration before it, in the same
    row. Each iteration that does not repeat is fed whole. Of a stretch of
    repeating iterations after it, only the last is fed, and of that one
    only its last read and its writes, each write with one mask that
    covers the writes of its access over the whole stretch (why this is
    exact: ``_replay_kernel``). Without `squeeze`, no iteration repeats.
    Returns the index of the events fed, in order, and their masks, or None
    for the masks without `masks`, as only claims and NT stores read them.
    """
    accesses = len(kernel.accesses)
    reads = len(kernel.reads())
    iters = addrs.size // accesses
    addrs = addrs.reshape(iters, accesses)
    lines = addrs >> np.uint64(LINE_SHIFT)
    same = np.zeros(iters, dtype=bool)
    same[1:] = (lines[1:] == lines[:-1]).all(axis=1)
    same[::row_iters] = False
    same &= squeeze
    # a group is one iteration that does not repeat, or a stretch of them
    first = np.flatnonzero(~same | ~np.concatenate(([False], same[:-1])))
    last = np.append(first[1:], iters) - 1
    fed = np.ones((first.size, accesses), dtype=bool)
    fed[same[first], :max(reads - 1, 0)] = False
    index = (last[:, None] * accesses + np.arange(accesses))[fed]
    if not masks:
        return index, None
    # a group's elements are consecutive on one line: the last one fed and
    # the ones before it, `span` bytes in all
    span = ((last - first + 1) * esize).astype(np.uint64)[:, None]
    low = (addrs[last] & np.uint64(LINE_BYTES - 1)) + np.uint64(esize) - span
    cover = np.uint64(FULL_MASK) >> (np.uint64(LINE_BYTES) - span) << low
    cover[:, :reads] = 0
    return index, cover[fed]


def _replay_kernel(kernel: KernelSpec, grid: GridSpec, levels,
                   policy: WritePolicySim) -> _Hierarchy:
    """Replay and finish one kernel's sweep, charging what repeats in bulk.

    Row k + P of the trace is row k moved by D = P * row_bytes / 64 whole
    lines, with P = 64 / gcd(row_bytes, 64). The replay goes one period of
    P rows at a time. After each period it takes the key of the level
    (``_Hierarchy.window``: the whole level, the claim table, the WC
    buffers and the held-back run) with every line counted from the row
    the sweep has reached, which moves D lines a period, and compares it
    with the key one period earlier. On a match it charges every remaining
    whole period with the delta of the counter vector over the last one,
    replays the tail rows and finishes.

    Each period is drawn as one block of ``gen_trace_blocks`` (P rows), as
    the replay needs it, so a sweep draws the periods it replays and, if it
    ends with a tail, one more. Each period is fed squeezed (``_squeeze``),
    with write masks only under claims and NT. An iteration repeats if
    each of its accesses stays on the line it touched in the iteration
    before it. Of a stretch of repeating iterations only the last is fed,
    and of it only its last read and its writes, whose masks cover the
    writes of the whole stretch. After each row, once the held-back run is
    replayed too, the state is the one the whole row leaves if

    * the level holds at least as many lines as the kernel has accesses,
      and
    * under NT, the kernel writes no more arrays than there are WC buffers.

    The iteration before a stretch leaves every line it touches cached,
    the newest lines of the level (the first condition), or under NT every
    line it stores in a WC buffer (the second). So each access of the
    stretch hits: nothing is fetched, evicted or flushed, no claim opens or
    ages out, and no read meets an open claim, since claims open on write
    misses only. The LRU and WC orders after a stretch are the ones after
    its last iteration, which its last read and its writes restore: lines
    only read in order of their last read, then the written ones in order
    of their last write. What is left is write coverage, which the masks
    carry. A claim or WC buffer completes in a stretch's last iteration
    only: a kernel writes each element once, so after the write that
    completes a line its access moves to a new line, which ends the
    stretch. The last read keeps the masked writes in runs of their own:
    otherwise a masked write could join the run of a write that missed
    before the stretch, which would then write the whole line at once and
    open no claim or WC buffer. Row k + P is row k moved by whole lines,
    so which events are fed, and their masks, are found once per sweep,
    from the first period.

    A line that the sweep has left is never touched again
    (``_window_rows``), and the lines the rest of the sweep can touch were
    all touched in the last ``history`` periods, which cover that bound.
    Period n is period 1 moved by (n - 1) * D lines, so these live lines
    are found once, from period 1 alone (``_live_lines``); they are the
    lines its fed events touch too, as a repeating iteration touches the
    lines of the one before it. Only the last period may be cut short, and
    its rows are a prefix of a whole period's, so its lines are among them.
    From then on, full level or not, the replay retires the left lines
    after each period (``_Hierarchy.retire``), which also leaves room for
    the next period's blocks to be replayed line by line under
    always-allocate. A left line was last touched before every live one,
    so the left lines lead the LRU order and the WC buffers (the stack
    property of LRU, Mattson et al. 1970), and each entry dropped is its
    table's oldest. Dropping it turns a
    later eviction, age-out or overflow into free room and changes nothing
    else, and what it would have cost then is charged now. A level that
    keeps only its live lines repeats as soon as the sweep does. The key
    is the whole state, so equal keys one period apart make every later
    period the same one moved by D lines, with the same counter delta, and
    the bulk is exact with no further check.

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
    blocks = gen_trace_blocks(kernel, grid, period)     # one period each
    width = _window_rows(kernel, grid)
    # the periods whose lines cover `width` rows, and their lines once a
    # retire needs them
    history = max(1, -(-width // period))
    live = None
    # the conditions under which squeezed rows leave the state of whole rows
    squeeze = sim.ways >= len(kernel.accesses) and not (
        sim.nt and len(kernel.writes()) > policy.combine_buffers)
    keep = None

    def feed(addrs):
        """Feed whole rows from the start of a period."""
        n = row_fed[addrs.size // row_events]
        sim.feed(addrs[keep[:n]], fed_writes[:n], None if masks is None else masks[:n])

    before = None, None
    for n, (addrs, writes) in enumerate(blocks, 1):
        if keep is None:    # which events to feed, from the first period
            keep, masks = _squeeze(kernel, j1 - j0 + 1, grid.element_size, addrs,
                                   squeeze, sim.claim or sim.nt)
            fed_writes = writes[keep]
            # the events fed before each row of a period
            row_fed = np.searchsorted(keep, np.arange(period + 1) * row_events).tolist()
            first = addrs   # period 1, whose lines give the live set
        feed(addrs)
        sim.replayed_rows += addrs.size // row_events
        row += addrs.size // row_events
        filling = len(sim.lru) < sim.ways
        if width and n > history:
            if live is None:
                live = _live_lines(first, len(kernel.accesses), history, shift)
            sim.retire(live, (n - history) * shift)
        key = sim.window(row * row_bytes // LINE_BYTES)
        if key != before[0]:
            before = key, sim.counts.copy()
            continue
        whole, tail = divmod(k1 + 1 - row, period)
        sim.counts[:3] += whole * (sim.counts - before[1])[:3]
        sim.bulk_rows += whole * period
        if filling:
            sim.fill_rows += whole * period
        if tail:
            feed(next(blocks)[0][:tail * row_events])
            sim.replayed_rows += tail
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
    """Iterate over a trace file in blocks of ``TRACE_BLOCK`` records.

    A file size that is not a whole number of records raises ValueError
    (exit 2 from ``stencilmem replay``).
    """
    if Path(path).stat().st_size % TRACE_DTYPE.itemsize:
        raise ValueError(f"{path}: not a whole number of 9-byte trace records")
    records = np.fromfile(path, dtype=TRACE_DTYPE)
    return (records[i:i + TRACE_BLOCK] for i in range(0, records.size, TRACE_BLOCK))
