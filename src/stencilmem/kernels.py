"""Kernel intermediate representation for 2D stencil loop nests.

A kernel is described by the set of array elements it touches per loop
iteration: each access names an array, an offset (dj, dk) relative to the
loop indices (j inner/contiguous, k outer), and whether it reads or writes.
Building a :class:`KernelSpec` derives from these, once, its read rows,
stream counts and row-reuse bytes, which the code-balance model in
:mod:`stencilmem.balance` and the rank sweep in :mod:`stencilmem.decomp` read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType

READ = "read"
WRITE = "write"

# Sanity bound for stencil offsets; anything larger is almost certainly a
# mistranscribed kernel rather than a real stencil.
MAX_OFFSET = 8

LINE_BYTES = 64     # the cache line of the halo model and the simulator


class KernelError(ValueError):
    """Raised for structurally invalid kernels, grids, or suite files."""


@dataclass(frozen=True)
class GridSpec:
    """2D grid with the inner (j) dimension contiguous in memory.

    ``halo_lo``/``halo_hi`` pad both dimensions, so the allocated row width
    is ``halo_lo + inner_extent + halo_hi`` and the allocated row count is
    ``halo_lo + outer_extent + halo_hi``.
    """

    inner_extent: int
    outer_extent: int
    halo_lo: int = 0
    halo_hi: int = 0
    element_size: int = 8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise KernelError(f"{f.name} must be an integer, not {value!r}")
        if self.inner_extent < 1 or self.outer_extent < 1:
            raise KernelError("grid extents must be >= 1")
        if self.halo_lo < 0 or self.halo_hi < 0:
            raise KernelError("halo padding must be non-negative")
        if self.element_size not in (4, 8):
            raise KernelError("element_size must be 4 or 8 bytes")

    @property
    def row_stride(self) -> int:
        """Allocated elements per row, including halo padding."""
        return self.halo_lo + self.inner_extent + self.halo_hi

    @property
    def alloc_rows(self) -> int:
        return self.halo_lo + self.outer_extent + self.halo_hi

    def resized(self, inner_extent: int, outer_extent: int) -> "GridSpec":
        """Same halos and element size on different extents (desk-scale runs)."""
        return GridSpec(inner_extent, outer_extent, self.halo_lo, self.halo_hi,
                        self.element_size)


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    grid: GridSpec
    base_alignment: int = LINE_BYTES

    def __post_init__(self):
        if type(self.name) is not str:
            raise KernelError(f"an array name must be a string, not {self.name!r}")
        if not isinstance(self.grid, GridSpec):
            raise KernelError(f"array {self.name!r}: grid must be a GridSpec, "
                              f"not {self.grid!r}")
        a = self.base_alignment
        if type(a) is not int:
            raise KernelError(f"array {self.name!r}: base_alignment must be an "
                              f"integer, not {a!r}")
        if a < self.grid.element_size or a & (a - 1):
            raise KernelError(
                f"array {self.name!r}: base_alignment must be a power of two "
                f">= element_size")


@dataclass(frozen=True)
class Access:
    """One per-iteration array reference at offset (dj, dk) from (j, k)."""

    array: ArrayDecl
    dj: int
    dk: int
    mode: str  # READ or WRITE

    def __post_init__(self):
        if not isinstance(self.array, ArrayDecl):
            raise KernelError(f"an access's array must be an ArrayDecl, "
                              f"not {self.array!r}")
        if self.mode not in (READ, WRITE):
            raise KernelError(f"access mode must be {READ!r} or {WRITE!r}")


@dataclass(frozen=True)
class StreamCounts:
    """Per-iteration element stream counts of a kernel.

    ``rd_lcf`` counts one leading-edge read per read array (all layer
    conditions fulfilled); ``rd_lcb`` counts one read per distinct grid row
    each read array touches (all layer conditions broken); ``wr`` counts
    written elements; ``rdwr`` counts written elements that are also read
    at the very same offset and therefore never need a write-allocate.
    """

    n_arrays: int
    rd_lcf: int
    rd_lcb: int
    wr: int
    rdwr: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise KernelError(f"{f.name} must be an integer, not {value!r}")
        if min(self.n_arrays, self.rd_lcf, self.rd_lcb, self.wr, self.rdwr) < 0:
            raise KernelError("stream counts must be non-negative")

    @property
    def evadable_writes(self) -> int:
        """Write streams whose allocate could be evaded (wr - rdwr)."""
        return self.wr - self.rdwr


@dataclass(frozen=True)
class KernelSpec:
    """A stencil loop nest: accesses, flop count, and optional loop bounds.

    Loop bounds are inclusive (lo, hi) pairs in interior coordinates
    (0 .. extent-1); ``None`` means the full interior of whatever grid the
    kernel runs on. Building a kernel checks it (:class:`KernelError` names
    every violation); all of its arrays are declared on one :attr:`grid`.

    Building it also derives the kernel's model facts in one pass over the
    accesses; ``replace`` and unpickling derive them again, and ``==``,
    ``hash`` and ``repr`` skip them. ``counts`` is its :class:`StreamCounts`.
    ``row_reuse`` maps each array that reads n >= 2 rows to the cache bytes
    per element of inner extent its row reuse needs, n times the element
    size (read-only). That assumes contiguous row offsets, as in every
    bundled kernel: a gap keeps rows alive across it and needs more cache.
    """

    name: str
    accesses: tuple[Access, ...]
    flops_per_it: int = 0
    loop_j_range: tuple[int, int] | None = None
    loop_k_range: tuple[int, int] | None = None
    counts: StreamCounts = field(init=False, compare=False, repr=False)
    row_reuse: MappingProxyType[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "accesses", tuple(self.accesses))
        except TypeError:
            pass    # not iterable: kept as given, for _diagnostics to name
        diags = _diagnostics(self)
        if diags:
            raise KernelError("; ".join(diags))
        for key in ("loop_j_range", "loop_k_range"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, tuple(getattr(self, key)))
        _derive_facts(self)

    def __reduce__(self):   # by the constructor: a mappingproxy does not pickle
        return (type(self), (self.name, self.accesses, self.flops_per_it,
                             self.loop_j_range, self.loop_k_range))

    @property
    def grid(self) -> GridSpec:
        """The one grid all of the kernel's arrays are declared on."""
        return self.accesses[0].array.grid

    @property
    def arrays(self) -> tuple[ArrayDecl, ...]:
        """Distinct arrays in order of first appearance."""
        seen: dict[str, ArrayDecl] = {}
        for acc in self.accesses:
            seen.setdefault(acc.array.name, acc.array)
        return tuple(seen.values())

    def reads(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.mode == READ)

    def writes(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.mode == WRITE)

    def read_dk_offsets(self) -> MappingProxyType[str, frozenset[int]]:
        """Distinct dk offsets of the reads per array name, derived on construction."""
        return MappingProxyType(self._read_rows)


def _derive_facts(kernel: KernelSpec):
    """Store a checked kernel's read rows (distinct dk offsets per array),
    stream counts and row-reuse bytes, from one pass over its accesses."""
    names, rows, read_offsets, writes = set(), {}, set(), set()
    for acc in kernel.accesses:
        name = acc.array.name
        names.add(name)
        if acc.mode == READ:
            rows.setdefault(name, set()).add(acc.dk)
            read_offsets.add((name, acc.dj, acc.dk))
        else:
            writes.add((name, acc.dj, acc.dk))  # checked: one offset per array
    esize = kernel.grid.element_size
    object.__setattr__(kernel, "_read_rows", {n: frozenset(d) for n, d in rows.items()})
    object.__setattr__(kernel, "counts", StreamCounts(
        n_arrays=len(names), rd_lcf=len(rows), rd_lcb=sum(map(len, rows.values())),
        wr=len(writes), rdwr=len(read_offsets & writes)))
    object.__setattr__(kernel, "row_reuse", MappingProxyType(
        {n: len(d) * esize for n, d in rows.items() if len(d) >= 2}))


def _diagnostics(kernel: KernelSpec) -> list[str]:
    """Check kernel invariants; returns one diagnostic string per violation.

    An empty list means the kernel is valid. Diagnostics name the offending
    access so suite files can be fixed by hand. Mistyped fields are reported
    alone, as the value checks would fail on them.
    """
    name = kernel.name
    diags = [] if type(name) is str else [f"a kernel name must be a string, not {name!r}"]
    if type(kernel.accesses) is not tuple:
        diags.append(f"kernel {name!r}: accesses must be an iterable of Access "
                     f"records, not {kernel.accesses!r}")
    else:
        for acc in kernel.accesses:
            if not isinstance(acc, Access):
                diags.append(f"kernel {name!r}: an access must be an Access "
                             f"record, not {acc!r}")
            elif type(acc.dj) is not int or type(acc.dk) is not int:
                diags.append(f"kernel {name!r}: offsets of {acc.array.name!r} "
                             f"must be integers, not {[acc.dj, acc.dk]}")
    if type(kernel.flops_per_it) is not int:
        diags.append(f"kernel {name!r}: flops_per_it must be an integer, "
                     f"not {kernel.flops_per_it!r}")
    for key in ("loop_j_range", "loop_k_range"):
        bounds = getattr(kernel, key)
        if not (bounds is None or isinstance(bounds, (list, tuple)) and len(bounds) == 2
                and all(type(v) is int for v in bounds)):
            diags.append(f"kernel {name!r}: {key} must be two integers [lo, hi], "
                         f"not {bounds!r}")
    if diags:
        return diags
    if not kernel.accesses:
        diags.append(f"{kernel.name}: kernel has no accesses")
    if kernel.flops_per_it < 0:
        diags.append(f"{kernel.name}: flops_per_it must be non-negative")
    for key in ("loop_j_range", "loop_k_range"):
        lo, hi = getattr(kernel, key) or (0, 0)
        if lo > hi:
            diags.append(f"kernel {kernel.name!r}: {key} [{lo}, {hi}] is inverted")

    seen: set[tuple[str, int, int, str]] = set()
    writes_per_array: dict[str, int] = {}
    for acc in kernel.accesses:
        key = (acc.array.name, acc.dj, acc.dk, acc.mode)
        if key in seen:
            diags.append(f"{kernel.name}: duplicate access {key}")
        seen.add(key)
        if abs(acc.dj) > MAX_OFFSET or abs(acc.dk) > MAX_OFFSET:
            diags.append(f"{kernel.name}: offset out of range for "
                         f"{acc.array.name}({acc.dj},{acc.dk})")
        if acc.mode == WRITE:
            writes_per_array[acc.array.name] = writes_per_array.get(acc.array.name, 0) + 1

    for array, count in writes_per_array.items():
        if count > 1:
            diags.append(f"{kernel.name}: array {array!r} written at {count} "
                         f"offsets; one written element per array per iteration")

    # by identity first: the accesses of a loaded suite share one GridSpec,
    # and hashing or comparing a frozen dataclass builds a tuple of its fields
    grid = kernel.accesses[0].array.grid if kernel.accesses else None
    if any(acc.array.grid is not grid and acc.array.grid != grid
           for acc in kernel.accesses):
        diags.append(f"{kernel.name}: arrays are declared on more than one grid")
    return diags


def derive_stream_counts(kernel: KernelSpec) -> StreamCounts:
    """The kernel's stream counts, :attr:`KernelSpec.counts`."""
    return kernel.counts


def element_size(kernel: KernelSpec) -> int:
    """Element size of the kernel's grid."""
    return kernel.grid.element_size


def _loop_bounds(kernel: KernelSpec, grid: GridSpec) -> tuple[int, int, int, int]:
    """The kernel's loop ranges on `grid`; a range that leaves the allocated
    grid raises KernelError."""
    bounds = []
    for key, extent in (("loop_j_range", grid.inner_extent),
                        ("loop_k_range", grid.outer_extent)):
        lo, hi = getattr(kernel, key) or (0, extent - 1)
        if lo < -grid.halo_lo or hi > extent - 1 + grid.halo_hi:
            raise KernelError(
                f"{kernel.name}: {key} [{lo}, {hi}] leaves the allocated grid "
                f"[{-grid.halo_lo}, {extent - 1 + grid.halo_hi}]")
        bounds += [lo, hi]
    return tuple(bounds)


def iteration_count(kernel: KernelSpec, grid: GridSpec) -> int:
    """Loop iterations of one sweep of `kernel` over `grid`."""
    j0, j1, k0, k1 = _loop_bounds(kernel, grid)
    return (j1 - j0 + 1) * (k1 - k0 + 1)


@dataclass
class KernelSuite:
    """The kernels of a suite file, by name."""

    kernels: dict[str, KernelSpec] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.kernels.values())


def _check_shape(value, kind: type, what: str, *args):
    """Raise KernelError unless `value` is a JSON object (``dict``), array
    (``list``) or string (``str``), as `kind` says. The message names
    ``what.format(*args)``, formatted only when the check fails."""
    if not isinstance(value, kind):
        noun = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise KernelError(f"{what.format(*args)} must be {noun}, "
                          f"not {type(value).__name__}")


def load_suite(path: str | Path) -> KernelSuite:
    """Load a kernel-suite JSON file, checking only its shape and names.

    Expected layout::

        {"grids":  {"name": {"inner_extent": ..., "outer_extent": ...,
                             "halo_lo": ..., "halo_hi": ..., "element_size": ...}},
         "arrays": {"name": {"grid": "gridname", "base_alignment": 64}},
         "kernels": [{"name": ..., "flops_per_it": ...,
                      "accesses": [{"array": ..., "dj": 0, "dk": 0, "mode": "read"}]}]}
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise KernelError(f"{path}: not valid JSON: {exc}") from exc

    _check_shape(doc, dict, "{}: the suite", path)
    for key, kind in (("grids", dict), ("arrays", dict), ("kernels", list)):
        if key not in doc:
            raise KernelError(f"{path}: missing top-level key {key!r}")
        _check_shape(doc[key], kind, "{}: {!r}", path, key)

    suite = KernelSuite()
    grids: dict[str, GridSpec] = {}
    for name, g in doc["grids"].items():
        try:
            _check_shape(g, dict, "the entry")
            grids[name] = GridSpec(
                inner_extent=g["inner_extent"], outer_extent=g["outer_extent"],
                halo_lo=g.get("halo_lo", 0), halo_hi=g.get("halo_hi", 0),
                element_size=g.get("element_size", 8))
        except (KeyError, KernelError) as exc:
            raise KernelError(f"{path}: grid {name!r}: {exc}") from exc

    arrays: dict[str, ArrayDecl] = {}
    for name, a in doc["arrays"].items():
        try:
            _check_shape(a, dict, "array {!r}", name)
            gname = a.get("grid")
            _check_shape(gname, str, "array {!r}: grid", name)
            if gname not in grids:
                raise KernelError(f"array {name!r} references unknown grid {gname!r}")
            arrays[name] = ArrayDecl(name, grids[gname],
                                     a.get("base_alignment", LINE_BYTES))
        except KernelError as exc:
            raise KernelError(f"{path}: {exc}") from exc

    for k in doc["kernels"]:
        try:
            _check_shape(k, dict, "a kernel entry")
            name = k["name"]
            _check_shape(name, str, "a kernel name")
            accesses = []
            _check_shape(k["accesses"], list, "kernel {!r}: accesses", name)
            for acc in k["accesses"]:
                _check_shape(acc, dict, "kernel {!r}: an access", name)
                aname = acc["array"]
                _check_shape(aname, str, "kernel {!r}: an access's array", name)
                if aname not in arrays:
                    raise KernelError(f"kernel {name!r} references undeclared "
                                      f"array {aname!r}")
                accesses.append(Access(arrays[aname], acc["dj"], acc["dk"], acc["mode"]))
            kernel = KernelSpec(name, accesses, k.get("flops_per_it", 0),
                                k.get("loop_j_range"), k.get("loop_k_range"))
        except KeyError as exc:
            raise KernelError(f"{path}: kernel entry missing field {exc}") from exc
        except KernelError as exc:
            raise KernelError(f"{path}: {exc}") from exc
        if name in suite.kernels:
            raise KernelError(f"{path}: duplicate kernel name {name!r}")
        suite.kernels[name] = kernel
    return suite


def data_path(name: str) -> Path:
    """Path of a bundled data file (kernel suites, machine configs, fixtures)."""
    return Path(__file__).parent / "data" / name
