"""2D domain decomposition and its memory-traffic overheads.

Rank counts are factorized onto a (px, py) process grid; px cuts the inner
(contiguous) dimension, py the outer one. Prime rank counts force a pure
inner cut, which shrinks the local row length and makes the per-row halo
and partial-cache-line overheads relatively expensive - the source of the
upward balance spikes at prime rank counts. Each local row is charged one
``LINE_BYTES`` cache line of halo data on its read streams, counted in the
kernel's own element size (8 doubles or 16 floats).

One routine factorizes: ``_prime_factors`` finds the prime factors in
ascending order by trial division, :func:`factorize_ranks` deals them out
largest first and :func:`is_prime` counts them. It is not a sieve: a single
legal count can be as large as the grid's cell count (2.36e8 on the bundled
grid), so a sieve up to the largest count requested has no bound.

A :class:`Decomposition` keeps only the process grid and the extent, and
derives the per-rank widths and heights on demand. :func:`predict_rank_sweep`
builds none: per grid it factorizes each rank count once into an int64
rank column (``_process_grid``), takes the cache share of the whole column
in one call, and prices each count from its process grid and the narrowest
local row, ``inner // px``, for all kernels of the grid together, as one
(kernels x ranks) table. :func:`decompose` is the reference that the tests
check the sweep's widths against, through the per-rank widths of its
Decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import LayerConditionReport, WaPolicy, code_balance, row_reuse_bytes
from .kernels import LINE_BYTES, derive_stream_counts, element_size


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n in ascending order, with multiplicity, by
    trial division (none below 2)."""
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d = 3 if d == 2 else d + 2  # past 2, only odd divisors
    if n > 1:
        factors.append(n)
    return factors


def is_prime(n: int) -> bool:
    return len(_prime_factors(n)) == 1


def factorize_ranks(p: int) -> tuple[int, int]:
    """Split p ranks onto a (px, py) grid.

    Composite counts distribute prime factors greedily, largest first, onto
    the dimension with the smaller running product, starting with the outer
    y-dimension on ties. A prime count cannot be spread and cuts the inner
    x-dimension as a whole: (p, 1).
    """
    if p < 1:
        raise ValueError("rank count must be >= 1")
    factors = _prime_factors(p)
    if len(factors) == 1:
        return (p, 1)
    px = py = 1
    for f in reversed(factors):
        if py <= px:
            py *= f
        else:
            px *= f
    return px, py


def _check_split(extent: int, parts: int):
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if extent < parts:
        raise ValueError(f"cannot split extent {extent} into {parts} parts")


def local_extents(extent: int, parts: int) -> list[int]:
    """Split `extent` cells into `parts` near-equal chunks.

    Each chunk is floor(extent/parts) or one more; the extent mod parts
    larger chunks go to the lower ranks.
    """
    _check_split(extent, parts)
    base, rem = divmod(extent, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


@dataclass(frozen=True)
class Decomposition:
    """`ranks` ranks on a (px, py) process grid over a square grid of
    `extent` cells per side.

    The per-rank extents (:func:`local_extents` of each dimension) are
    derived on demand; the narrowest local row, the one figure the model
    reads, is ``extent // px`` without building them.
    """

    ranks: int
    px: int
    py: int
    extent: int

    @property
    def local_inner_widths(self) -> tuple[int, ...]:
        return tuple(local_extents(self.extent, self.px))

    @property
    def local_outer_heights(self) -> tuple[int, ...]:
        return tuple(local_extents(self.extent, self.py))

    @property
    def min_inner_width(self) -> int:
        return self.extent // self.px


def _process_grid(p: int, inner: int, outer: int) -> tuple[int, int]:
    """:func:`factorize_ranks`, checked against the `inner` extent that px
    cuts and the `outer` extent that py cuts. A count above the grid's
    cell count can never fit, so it is refused before its trial division,
    which runs for minutes on a prime near 2**61."""
    if p > inner * outer:
        raise ValueError(f"cannot split a {inner} x {outer} grid into {p} ranks")
    px, py = factorize_ranks(p)
    if px > inner or py > outer:    # px, py >= 1: only the extents can fail
        _check_split(inner, px)
        _check_split(outer, py)
    return px, py


def decompose(p: int, extent: int) -> Decomposition:
    """Factorize p ranks over a square grid of `extent` cells per side."""
    return Decomposition(p, *_process_grid(p, extent, extent), extent)


def halo_read_overhead(inner, element_size: int = 8):
    """Extra traffic fraction a read stream pays for row-boundary halo lines.

    Each local row of `inner` elements drags in one cache line of halo
    data, ``e = LINE_BYTES / element_size`` elements, so the overhead is
    e / (inner + e): 8/224 = 3.57% for doubles at inner=216, 16/232 for
    floats, vanishing for long rows. `inner` and `element_size` may be
    integer arrays, which broadcast to an array of overheads.
    """
    if np.any(np.less(inner, 1)):
        raise ValueError("inner extent must be >= 1")
    line_elems = LINE_BYTES // element_size
    return line_elems / (inner + line_elems)


@dataclass(frozen=True, eq=False)
class RankSweep:
    """One kernel's predictions, one entry per rank count in the order given.
    factorize_ranks cuts only the inner dimension exactly at a prime count."""

    ranks: np.ndarray
    px: np.ndarray
    py: np.ndarray
    min_inner_width: np.ndarray
    bytes_per_it: np.ndarray
    lc_fulfilled: np.ndarray
    prime: np.ndarray


def _sweep_figures(kernel, policy: WaPolicy) -> tuple:
    """What a rank sweep prices `kernel` with: its element size, the summed
    row-reuse bytes per inner element, the plain balances with the layer
    condition fulfilled and broken, and the rd_lcf, rd_lcb and evadable
    write stream counts."""
    counts = derive_stream_counts(kernel)
    esize = element_size(kernel)
    return (esize, sum(row_reuse_bytes(kernel).values()),
            code_balance(counts, True, policy, esize),
            code_balance(counts, False, policy, esize),
            counts.rd_lcf, counts.rd_lcb, counts.evadable_writes)


def predict_rank_sweep(kernels, ranks, machine, policy: WaPolicy) -> list[RankSweep]:
    """Predicted bytes/iteration of each kernel for each rank count, one
    :class:`RankSweep` per kernel in input order.

    For every p the kernel's grid is decomposed, layer conditions are evaluated at
    the smallest local inner width against the per-process cache share, and
    the plain scenario's ``code_balance`` is taken. An inner cut (px > 1)
    adds the halo read overhead plus - when local rows are not a whole
    number of cache lines - a partial-line write-allocate of the same
    magnitude on the evadable write streams. A single rank (and any pure
    outer cut) has no inner halos and gives exactly the plain scenario.

    The kernels are grouped by grid, and the grids are walked in order of
    first appearance: each walks `ranks` once for its process grids, so the
    first count that fails raises, and then takes the cache shares of the
    whole rank column in one ``effective_cache_per_process`` call. All
    kernels of a grid are then priced as one (kernels x ranks) table,
    per-kernel columns broadcast against the grid's rank columns; each
    :class:`RankSweep` holds its kernel's row of the table and shares the
    grid's columns.
    """
    kernels = list(kernels)
    grids = {}      # (inner, outer) -> indices of its kernels
    for i, kernel in enumerate(kernels):
        grids.setdefault((kernel.grid.inner_extent, kernel.grid.outer_extent),
                         []).append(i)
    out = [None] * len(kernels)
    for (inner, outer), members in grids.items():
        ps, px, py = np.array([(p, *_process_grid(p, inner, outer)) for p in ranks],
                              dtype=np.int64).reshape(-1, 3).T
        cache = machine.effective_cache_per_process(ps)
        width = inner // px     # the narrowest local row, as in Decomposition
        prime = (ps > 1) & (px == ps)
        esize, reuse, lcf, lcb, rd_lcf, rd_lcb, evadable = (
            np.array(column)[:, None] for column in zip(
                *(_sweep_figures(kernels[i], policy) for i in members)))
        lc = LayerConditionReport.holds(reuse * width, cache)
        plain = np.where(lc, lcf, lcb)
        h = halo_read_overhead(width, esize)
        partial_line_wa = np.where(width * esize % LINE_BYTES != 0, evadable * h, 0.0)
        halo = esize * (np.where(lc, rd_lcf, rd_lcb) * h + partial_line_wa)
        table = np.where(px > 1, plain + halo, plain)
        for i, row_bytes, row_lc in zip(members, table, lc):
            out[i] = RankSweep(ps, px, py, width, row_bytes, row_lc, prime)
    return out
