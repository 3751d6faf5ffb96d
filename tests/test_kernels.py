import json
import pickle
import random
from dataclasses import fields, replace

import pytest

from stencilmem.kernels import (
    READ,
    WRITE,
    Access,
    ArrayDecl,
    GridSpec,
    KernelError,
    KernelSpec,
    StreamCounts,
    derive_stream_counts,
    iteration_count,
    load_suite,
)

from refdata import KERNEL_NAMES, counts_of, random_kernel


def make_kernel(accesses, name="k", flops=0):
    grid = GridSpec(inner_extent=16, outer_extent=8, halo_lo=2, halo_hi=2)
    arrays = {}
    accs = []
    for aname, dj, dk, mode in accesses:
        arrays.setdefault(aname, ArrayDecl(aname, grid))
        accs.append(Access(arrays[aname], dj, dk, mode))
    return KernelSpec(name=name, accesses=tuple(accs), flops_per_it=flops)


class TestGridSpec:
    def test_row_stride_includes_halos(self):
        g = GridSpec(inner_extent=100, outer_extent=50, halo_lo=2, halo_hi=3)
        assert g.row_stride == 105
        assert g.alloc_rows == 55

    @pytest.mark.parametrize("kwargs", [
        dict(inner_extent=0, outer_extent=1),
        dict(inner_extent=1, outer_extent=0),
        dict(inner_extent=1, outer_extent=1, halo_lo=-1),
        dict(inner_extent=1, outer_extent=1, element_size=16),
        dict(inner_extent=10.5, outer_extent=1),
        dict(inner_extent=1, outer_extent=True),
        dict(inner_extent=1, outer_extent=1, halo_lo=2.0),
        dict(inner_extent=1, outer_extent=1, halo_hi=True),
        dict(inner_extent=1, outer_extent=1, element_size=8.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(KernelError):
            GridSpec(**kwargs)

    def test_resized_keeps_halos(self):
        g = GridSpec(15360, 15360, halo_lo=2, halo_hi=2)
        small = g.resized(1024, 512)
        assert (small.inner_extent, small.outer_extent) == (1024, 512)
        assert (small.halo_lo, small.halo_hi) == (2, 2)


class TestArrayDecl:
    def test_alignment_must_be_power_of_two(self):
        g = GridSpec(8, 8)
        with pytest.raises(KernelError):
            ArrayDecl("a", g, base_alignment=48)
        with pytest.raises(KernelError):
            ArrayDecl("a", g, base_alignment=4)  # below element size

    @pytest.mark.parametrize("name, grid, message", [
        (5, GridSpec(8, 8), r"^an array name must be a string, not 5$"),
        (None, GridSpec(8, 8), r"^an array name must be a string, not None$"),
        ("b", "notagrid", r"^array 'b': grid must be a GridSpec, not 'notagrid'$"),
        ("b", None, r"^array 'b': grid must be a GridSpec, not None$"),
    ], ids=["name_int", "name_none", "grid_str", "grid_none"])
    def test_mistyped_field_rejected(self, name, grid, message):
        with pytest.raises(KernelError, match=message):
            ArrayDecl(name, grid)


class TestValidate:
    def test_suite_kernels_are_valid(self, suite):
        # building a kernel checks it: the suite loaded, so all 22 are valid
        assert all(isinstance(k, KernelSpec) for k in suite)
        assert len(suite.kernels) == 22

    def test_empty_kernel_one_diagnostic(self):
        with pytest.raises(KernelError, match=r"^empty: kernel has no accesses$"):
            KernelSpec(name="empty", accesses=())

    def test_duplicate_access_flagged(self):
        with pytest.raises(KernelError,
                           match=r"^k: duplicate access \('a', 0, 0, 'read'\)$"):
            make_kernel([("a", 0, 0, READ), ("a", 0, 0, READ)])

    def test_offset_out_of_range(self):
        with pytest.raises(KernelError, match="offset out of range"):
            make_kernel([("a", 9, 0, READ)])

    def test_two_write_offsets_rejected(self):
        with pytest.raises(KernelError, match="written at 2 offsets"):
            make_kernel([("a", 0, 0, WRITE), ("a", 1, 0, WRITE)])

    def test_arrays_on_two_grids_rejected(self):
        # same element size, different extents: the rows the model prices
        # would depend on which array the kernel names first
        a = ArrayDecl("a", GridSpec(64, 64, halo_lo=2, halo_hi=2))
        b = ArrayDecl("b", GridSpec(4096, 16))
        for accesses in ((Access(a, -1, -1, READ), Access(b, 0, 0, WRITE)),
                         (Access(b, 0, 0, WRITE), Access(a, -1, -1, READ))):
            with pytest.raises(KernelError, match=r"^ab: arrays are declared on "
                                                  r"more than one grid$"):
                KernelSpec(name="ab", accesses=accesses)

    def test_kernel_grid_is_its_arrays_grid(self, suite):
        kernel = make_kernel([("a", 0, 0, READ), ("b", 0, 0, WRITE)])
        assert kernel.grid == GridSpec(16, 8, halo_lo=2, halo_hi=2)
        assert suite.kernels["am04"].grid.inner_extent == 15360

    @pytest.mark.parametrize("ranges", [dict(loop_j_range=(2, 1)),
                                        dict(loop_k_range=(5, 3))])
    def test_inverted_range_rejected_in_code(self, ranges):
        kernel = make_kernel([("a", 0, 0, READ)])
        (key, (lo, hi)), = ranges.items()
        with pytest.raises(KernelError,
                           match=rf"^kernel 'k': {key} \[{lo}, {hi}\] is inverted$"):
            KernelSpec(name="k", accesses=kernel.accesses, **ranges)

    @pytest.mark.parametrize("ranges", [dict(loop_j_range=(0, 199)),
                                        dict(loop_j_range=(-3, 10)),
                                        dict(loop_k_range=(0, 102))])
    def test_range_outside_the_grid_is_not_counted(self, ranges):
        # the make_kernel grid is 16x8 with halos 2/2: j in -2..17, k in -2..9
        kernel = KernelSpec(name="strip", accesses=make_kernel(
            [("a", 0, 0, READ)]).accesses, **ranges)
        (key, _), = ranges.items()
        with pytest.raises(KernelError, match=rf"^strip: {key} .* leaves the "
                                              rf"allocated grid"):
            iteration_count(kernel, kernel.grid)

    def test_range_into_the_halo_is_counted(self):
        kernel = KernelSpec(name="strip", accesses=make_kernel(
            [("a", 0, 0, READ)]).accesses, loop_j_range=(-2, 17), loop_k_range=(9, 9))
        assert iteration_count(kernel, kernel.grid) == 20

    @pytest.mark.parametrize("field, value, message", [
        ("dj", 1.7, "offsets of 'a' must be integers"),
        ("dk", True, "offsets of 'a' must be integers"),
        ("flops_per_it", 2.5, "flops_per_it must be an integer"),
        ("flops_per_it", "4", "flops_per_it must be an integer"),
        ("flops_per_it", True, "flops_per_it must be an integer"),
        ("loop_j_range", [5], "loop_j_range must be two integers"),
        ("loop_j_range", 5, "loop_j_range must be two integers"),
        ("loop_k_range", [0.5, 3], "loop_k_range must be two integers"),
        ("name", 7, "a kernel name must be a string"),
    ], ids=["dj", "dk_bool", "flops_float", "flops_str", "flops_bool",
            "j_range_short", "j_range_scalar", "k_range_float", "name_int"])
    def test_mistyped_field_rejected_in_code(self, field, value, message):
        # the values the suite loader refuses, built without it
        offsets, kernel = dict(dj=0, dk=0), dict(name="k")
        (offsets if field in offsets else kernel)[field] = value
        access = Access(ArrayDecl("a", GridSpec(8, 8)), **offsets, mode=READ)
        with pytest.raises(KernelError, match=message):
            KernelSpec(accesses=(access,), **kernel)

    @pytest.mark.parametrize("accesses, message", [
        (5, r"^kernel 'k': accesses must be an iterable of Access records, not 5$"),
        ([1], r"^kernel 'k': an access must be an Access record, not 1$"),
    ], ids=["not_iterable", "not_an_access"])
    def test_accesses_must_be_access_records(self, accesses, message):
        with pytest.raises(KernelError, match=message):
            KernelSpec(name="k", accesses=accesses)

    def test_loop_range_stored_as_a_tuple(self):
        kernel = KernelSpec(name="k", accesses=make_kernel([("a", 0, 0, READ)]).accesses,
                            loop_j_range=[1, 3])
        assert kernel.loop_j_range == (1, 3)
        assert hash(kernel) == hash(replace(kernel, loop_j_range=(1, 3)))

    def test_read_rows_stored_at_construction(self):
        kernel = make_kernel([("a", 0, -1, READ), ("a", 1, 1, READ),
                              ("a", 0, 0, WRITE), ("b", 0, 0, WRITE)])
        rows = kernel.read_dk_offsets()
        assert rows == {"a": frozenset({-1, 1})}
        with pytest.raises(TypeError):
            rows["b"] = frozenset({0})
        with pytest.raises(AttributeError):
            rows["a"].add(0)
        # the stored rows travel with the kernel
        copied = pickle.loads(pickle.dumps(kernel))
        assert copied == kernel and copied.read_dk_offsets() == rows

    def test_bad_mode_rejected_at_construction(self):
        g = GridSpec(8, 8)
        with pytest.raises(KernelError):
            Access(ArrayDecl("a", g), 0, 0, "modify")

    @pytest.mark.parametrize("array", ["x", None, GridSpec(8, 8)],
                             ids=["str", "none", "grid"])
    def test_access_array_must_be_an_array_decl(self, array):
        with pytest.raises(KernelError,
                           match=r"^an access's array must be an ArrayDecl, not "):
            Access(array, 0, 0, READ)


class TestStreamCounts:
    def test_am04(self, suite):
        c = derive_stream_counts(suite.kernels["am04"])
        assert (c.n_arrays, c.rd_lcf, c.rd_lcb, c.wr, c.rdwr) == (2, 1, 2, 1, 0)

    def test_ac03(self, suite):
        c = derive_stream_counts(suite.kernels["ac03"])
        assert (c.n_arrays, c.rd_lcf, c.rd_lcb, c.wr, c.rdwr) == (6, 6, 6, 2, 2)

    def test_pure_store_kernel(self):
        kernel = make_kernel([("a", 0, 0, WRITE)])
        c = derive_stream_counts(kernel)
        assert (c.n_arrays, c.rd_lcf, c.rd_lcb, c.wr, c.rdwr) == (1, 0, 0, 1, 0)

    def test_rdwr_needs_exact_offset_match(self):
        # reading the written array at another offset does not cancel the
        # write-allocate
        kernel = make_kernel([("a", 1, 0, READ), ("a", 0, 0, WRITE)])
        assert derive_stream_counts(kernel).rdwr == 0

    def test_invalid_kernel_raises(self):
        # an invalid kernel never reaches derive_stream_counts: it is
        # rejected when built
        with pytest.raises(KernelError, match="kernel has no accesses"):
            KernelSpec(name="empty", accesses=())

    @pytest.mark.parametrize("field, value", [
        ("n_arrays", 2.0), ("rd_lcf", True), ("rd_lcb", "2"), ("wr", None),
        ("rdwr", False),
    ], ids=["float", "bool_true", "str", "none", "bool_false"])
    def test_fields_must_be_integers(self, field, value):
        ints = dict(n_arrays=2, rd_lcf=1, rd_lcb=2, wr=1, rdwr=0)
        with pytest.raises(KernelError,
                           match=rf"^{field} must be an integer, not {value!r}$"):
            StreamCounts(**{**ints, field: value})

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_matches_reference(self, suite, name):
        c = derive_stream_counts(suite.kernels[name])
        assert (c.n_arrays, c.rd_lcf, c.rd_lcb, c.wr, c.rdwr) == counts_of(name)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_count_relations(self, suite, name):
        c = derive_stream_counts(suite.kernels[name])
        assert c.rd_lcf <= c.rd_lcb
        assert c.rdwr <= min(c.rd_lcf, c.wr)
        reads = {a.array.name for a in suite.kernels[name].reads()}
        writes = {a.array.name for a in suite.kernels[name].writes()}
        assert c.n_arrays >= max(len(reads), len(writes))


def recount(kernel: KernelSpec) -> tuple[StreamCounts, dict[str, int]]:
    """A kernel's stream counts and row-reuse bytes, counted anew from its accesses:
    the reference the stored fields are checked against."""
    reads = [a for a in kernel.accesses if a.mode == READ]
    writes = [a for a in kernel.accesses if a.mode == WRITE]
    rows: dict[str, set[int]] = {}
    for a in reads:
        rows.setdefault(a.array.name, set()).add(a.dk)
    read_at = {(a.array.name, a.dj, a.dk) for a in reads}
    counts = StreamCounts(
        n_arrays=len({a.array.name for a in kernel.accesses}),
        rd_lcf=len(rows),
        rd_lcb=sum(len(dks) for dks in rows.values()),
        wr=len({w.array.name for w in writes}),
        rdwr=sum((w.array.name, w.dj, w.dk) in read_at for w in writes))
    esize = kernel.grid.element_size
    return counts, {name: len(dks) * esize for name, dks in rows.items()
                    if len(dks) >= 2}


class TestModelFacts:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_suite_kernel_facts_equal_a_recount(self, suite, name):
        kernel = suite.kernels[name]
        assert (kernel.counts, dict(kernel.row_reuse)) == recount(kernel)

    def test_random_kernel_facts_equal_a_recount(self):
        rng = random.Random(31)
        for idx in range(200):
            # every fourth kernel on floats, so the row bytes follow the grid
            grid = GridSpec(rng.choice([24, 40]), rng.choice([6, 10]), 2, 2,
                            element_size=4) if idx % 4 == 0 else None
            kernel = random_kernel(rng, idx, grid)
            assert (kernel.counts, dict(kernel.row_reuse)) == recount(kernel), kernel

    def test_replace_derives_new_facts(self):
        kernel = make_kernel([("a", 0, 0, READ), ("a", 0, 1, READ), ("b", 0, 0, WRITE)])
        fewer = replace(kernel, accesses=kernel.accesses[1:])
        assert (fewer.counts, dict(fewer.row_reuse)) == recount(fewer)
        assert (fewer.counts.rd_lcb, dict(fewer.row_reuse)) == (1, {})
        assert (kernel.counts.rd_lcb, dict(kernel.row_reuse)) == (2, {"a": 16})

    def test_facts_survive_a_pickle_round_trip(self, suite):
        for kernel in suite:
            copied = pickle.loads(pickle.dumps(kernel))
            assert copied == kernel
            assert copied.counts == kernel.counts
            assert copied.row_reuse == kernel.row_reuse
            for facts in (kernel, copied):
                with pytest.raises(TypeError):    # read-only
                    facts.row_reuse["x"] = 8

    def test_facts_take_no_part_in_eq_hash_or_repr(self, suite):
        kernel = suite.kernels["pdv01"]
        twin = replace(kernel)
        object.__setattr__(twin, "counts", StreamCounts(0, 0, 0, 0, 0))
        object.__setattr__(twin, "row_reuse", {})
        assert twin == kernel and hash(twin) == hash(kernel)
        assert repr(twin) == repr(kernel)
        derived = [f for f in fields(KernelSpec) if not f.init]
        assert [f.name for f in derived] == ["counts", "row_reuse"]
        assert not any(f.compare or f.repr for f in derived)


class TestSuiteIO:
    def test_loads_all_22(self, suite):
        assert list(suite.kernels) == KERNEL_NAMES

    def test_missing_top_level_key(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"grids": {}, "arrays": {}}))
        with pytest.raises(KernelError, match="kernels"):
            load_suite(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{not json")
        with pytest.raises(KernelError, match="JSON"):
            load_suite(p)

    def test_undeclared_array(self, tmp_path):
        doc = {"grids": {"g": {"inner_extent": 8, "outer_extent": 8}},
               "arrays": {},
               "kernels": [{"name": "k", "accesses":
                            [{"array": "ghost", "dj": 0, "dk": 0, "mode": "read"}]}]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(KernelError, match="ghost"):
            load_suite(p)

    def test_loop_ranges_round_trip(self, tmp_path):
        doc = {"grids": {"g": {"inner_extent": 32, "outer_extent": 8}},
               "arrays": {"a": {"grid": "g"}},
               "kernels": [{"name": "k", "loop_j_range": [4, 27],
                            "loop_k_range": [0, 3], "accesses":
                            [{"array": "a", "dj": 0, "dk": 0, "mode": "read"}]}]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        k = load_suite(p).kernels["k"]
        assert k.loop_j_range == (4, 27)
        assert k.loop_k_range == (0, 3)

    def test_duplicate_kernel_name(self, tmp_path):
        k = {"name": "k", "accesses":
             [{"array": "a", "dj": 0, "dk": 0, "mode": "read"}]}
        doc = {"grids": {"g": {"inner_extent": 8, "outer_extent": 8}},
               "arrays": {"a": {"grid": "g"}},
               "kernels": [k, k]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(KernelError, match="duplicate"):
            load_suite(p)
