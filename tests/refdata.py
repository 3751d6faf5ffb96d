"""Frozen per-loop reference values for the bundled CloverLeaf suite, the
random kernel generator the invariant and acceptance tests share, and a
row view of a rank sweep's columns.

Columns: arrays, rd_lcf, rd_lcb, wr, rdwr, flops/it, then the four balance
bounds in bytes/iteration (min, lcf_wa, lcb, max), then the measured
single-rank balance. The counts and bounds are exact; the measured column
is the published single-core value the rank-1 CSV fixture transcribes.
"""

import random
from dataclasses import fields
from types import SimpleNamespace

from stencilmem.kernels import READ, WRITE, Access, ArrayDecl, GridSpec, KernelSpec

REFERENCE = {
    #         arr lcf lcb wr rw fl  min lcfwa lcb max  meas1
    "am00":  (5,  3,  4,  2, 0, 4,  40,  56,  48,  64,  56.32),
    "am01":  (5,  3,  4,  2, 0, 4,  40,  56,  48,  64,  56.28),
    "am02":  (4,  2,  3,  2, 0, 2,  32,  48,  40,  56,  48.25),
    "am03":  (4,  2,  2,  2, 0, 2,  32,  48,  32,  48,  48.15),
    "am04":  (2,  1,  2,  1, 0, 4,  16,  24,  24,  32,  24.05),
    "am05":  (5,  3,  5,  2, 0, 10, 40,  56,  56,  72,  56.97),
    "am06":  (4,  3,  3,  1, 0, 9,  32,  40,  32,  40,  40.22),
    "am07":  (4,  4,  4,  1, 1, 4,  40,  40,  40,  40,  40.08),
    "am08":  (2,  1,  2,  1, 0, 4,  16,  24,  24,  32,  24.06),
    "am09":  (5,  3,  6,  2, 0, 10, 40,  56,  64,  80,  56.56),
    "am10":  (4,  3,  5,  1, 0, 8,  32,  40,  48,  56,  41.49),
    "am11":  (4,  4,  5,  1, 1, 4,  40,  40,  48,  48,  40.08),
    "ac00":  (5,  3,  4,  2, 0, 6,  40,  56,  48,  64,  56.33),
    "ac01":  (4,  2,  2,  2, 0, 2,  32,  48,  32,  48,  48.25),
    "ac02":  (6,  4,  4,  2, 0, 17, 48,  64,  48,  64,  64.70),
    "ac03":  (6,  6,  6,  2, 2, 10, 64,  64,  64,  64,  64.45),
    "ac04":  (5,  3,  4,  2, 0, 6,  40,  56,  48,  64,  56.29),
    "ac05":  (4,  2,  3,  2, 0, 2,  32,  48,  40,  56,  48.33),
    "ac06":  (6,  4,  8,  2, 0, 17, 48,  64,  80,  96,  66.24),
    "ac07":  (6,  6,  9,  2, 2, 10, 64,  64,  88,  88,  64.85),
    "pdv00": (11, 9,  12, 2, 0, 49, 88,  104, 112, 128, 104.73),
    "pdv01": (13, 11, 16, 2, 0, 45, 104, 120, 144, 160, 120.77),
}

KERNEL_NAMES = list(REFERENCE)

# scaling classes by evadable write streams (wr - rdwr): 1 -> i, >=2 -> ii, 0 -> iii
CLASS_I = ["am04", "am06", "am08", "am10"]
CLASS_III = ["am07", "am11", "ac03", "ac07"]


def counts_of(name):
    return REFERENCE[name][:5]


def bounds_of(name):
    return REFERENCE[name][6:10]


def meas1_of(name):
    return REFERENCE[name][10]


def random_kernel(rng: random.Random, idx: int,
                  grid: GridSpec | None = None) -> KernelSpec:
    """Kernel `rand<idx>` drawn from `rng`, on `grid` or a small random one.

    The generated family matches the shipped suite's conventions: at most
    one write offset per array, and a written array is only ever read at
    the very offset it is written (an update), never at a lagged one.
    """
    grid = grid or GridSpec(inner_extent=rng.choice([24, 32, 48]),
                            outer_extent=rng.choice([6, 8, 12]),
                            halo_lo=2, halo_hi=2)
    accesses = []
    n_read = rng.randint(0, 4)
    read_arrays = []
    for i in range(n_read):
        arr = ArrayDecl(f"r{i}", grid)
        read_arrays.append(arr)
        offsets = rng.sample([(dj, dk) for dj in (-2, -1, 0, 1, 2)
                              for dk in (-2, -1, 0, 1, 2)],
                             rng.randint(1, 4))
        for dj, dk in offsets:
            accesses.append(Access(arr, dj, dk, READ))
    for i in range(rng.randint(0 if n_read else 1, 2)):
        if read_arrays and rng.random() < 0.3:
            # update in place: read and write the same element
            arr = rng.choice(read_arrays)
            read_arrays.remove(arr)
            accesses = [a for a in accesses if a.array is not arr]
            accesses.append(Access(arr, 0, 0, READ))
            accesses.append(Access(arr, 0, 0, WRITE))
        else:
            accesses.append(Access(ArrayDecl(f"w{i}", grid), 0, 0, WRITE))
    if not accesses:
        accesses.append(Access(ArrayDecl("lone", grid), 0, 0, READ))
    return KernelSpec(name=f"rand{idx}", accesses=tuple(accesses),
                      flops_per_it=rng.randint(0, 30))


def sweep_rows(sweep) -> list[SimpleNamespace]:
    """A ``decomp.RankSweep`` as one record per rank count, each field a
    Python scalar, for tests that read a sweep row by row."""
    columns = {f.name: getattr(sweep, f.name).tolist() for f in fields(sweep)}
    return [SimpleNamespace(**dict(zip(columns, row)))
            for row in zip(*columns.values())]
