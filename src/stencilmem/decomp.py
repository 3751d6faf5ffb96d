"""2D domain decomposition and its memory-traffic overheads.

Rank counts are factorized onto a (px, py) process grid; px cuts the inner
(contiguous) dimension, py the outer one. Prime rank counts force a pure
inner cut, which shrinks the local row length and makes the per-row halo
and partial-cache-line overheads relatively expensive - the source of the
upward balance spikes at prime rank counts. Each local row is charged one
``LINE_BYTES`` cache line of halo data on its read streams, counted in the
kernel's own element size (8 doubles or 16 floats).
"""

from __future__ import annotations

from dataclasses import dataclass

from .balance import WaPolicy, code_balance, layer_condition
from .kernels import LINE_BYTES, KernelSpec, derive_stream_counts, element_size


def _prime_factors_desc(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    factors.sort(reverse=True)
    return factors


def is_prime(n: int) -> bool:
    return len(_prime_factors_desc(n)) == 1


def factorize_ranks(p: int) -> tuple[int, int]:
    """Split p ranks onto a (px, py) grid.

    Composite counts distribute prime factors greedily, largest first, onto
    the dimension with the smaller running product, starting with the outer
    y-dimension on ties. A prime count cannot be spread and cuts the inner
    x-dimension as a whole: (p, 1).
    """
    if p < 1:
        raise ValueError("rank count must be >= 1")
    if p == 1:
        return (1, 1)
    factors = _prime_factors_desc(p)
    if len(factors) == 1:
        return (p, 1)
    px = py = 1
    for f in factors:
        if py <= px:
            py *= f
        else:
            px *= f
    return px, py


def local_extents(extent: int, parts: int) -> list[int]:
    """Split `extent` cells into `parts` near-equal chunks.

    Each chunk is floor(extent/parts) or one more; the extent mod parts
    larger chunks go to the lower ranks.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if extent < parts:
        raise ValueError(f"cannot split extent {extent} into {parts} parts")
    base, rem = divmod(extent, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


@dataclass(frozen=True)
class Decomposition:
    ranks: int
    px: int
    py: int
    local_inner_widths: tuple[int, ...]
    local_outer_heights: tuple[int, ...]

    @property
    def min_inner_width(self) -> int:
        return min(self.local_inner_widths)


def decompose(p: int, extent: int) -> Decomposition:
    """Factorize p ranks over a square grid of `extent` cells per side."""
    px, py = factorize_ranks(p)
    return Decomposition(p, px, py,
                         tuple(local_extents(extent, px)),
                         tuple(local_extents(extent, py)))


def halo_read_overhead(inner: int, element_size: int = 8) -> float:
    """Extra traffic fraction a read stream pays for row-boundary halo lines.

    Each local row of `inner` elements drags in one cache line of halo
    data, ``e = LINE_BYTES / element_size`` elements, so the overhead is
    e / (inner + e): 8/224 = 3.57% for doubles at inner=216, 16/232 for
    floats, vanishing for long rows.
    """
    if inner < 1:
        raise ValueError("inner extent must be >= 1")
    line_elems = LINE_BYTES // element_size
    return line_elems / (inner + line_elems)


@dataclass(frozen=True)
class RankPrediction:
    ranks: int
    px: int
    py: int
    min_inner_width: int
    bytes_per_it: float
    lc_fulfilled: bool

    @property
    def prime(self) -> bool:
        # factorize_ranks cuts only the inner dimension exactly at a prime
        return self.ranks > 1 and self.px == self.ranks


def predict_rank_sweep(kernel: KernelSpec, ranks, machine,
                       policy: WaPolicy) -> list[RankPrediction]:
    """Predicted bytes/iteration of `kernel` for each rank count.

    For every p the kernel's grid is decomposed, layer conditions are evaluated at
    the smallest local inner width against the per-process cache share, and
    the plain scenario's ``code_balance`` is taken. An inner cut (px > 1)
    adds the halo read overhead plus - when local rows are not a whole
    number of cache lines - a partial-line write-allocate of the same
    magnitude on the evadable write streams. A single rank (and any pure
    outer cut) has no inner halos and gives exactly the plain scenario.
    """
    counts = derive_stream_counts(kernel)
    esize = element_size(kernel)
    out = []
    for p in ranks:
        dec = decompose(p, kernel.grid.inner_extent)
        width = dec.min_inner_width
        lc = layer_condition(kernel, width, machine.effective_cache_per_process(p))
        bytes_per_it = code_balance(counts, lc.fulfilled, policy, esize)
        if dec.px > 1:
            h = halo_read_overhead(width, esize)
            rd = counts.rd_lcf if lc.fulfilled else counts.rd_lcb
            partial_line_wa = (counts.evadable_writes * h
                               if width * esize % LINE_BYTES else 0.0)
            bytes_per_it += esize * (rd * h + partial_line_wa)
        out.append(RankPrediction(p, dec.px, dec.py, width, bytes_per_it,
                                  lc.fulfilled))
    return out
