import argparse
import csv
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import stencilmem
from stencilmem import balance, cachesim, cli, decomp
from stencilmem.cachesim import TRACE_DTYPE
from stencilmem.cli import InputError, build_parser, main, read_measurements
from stencilmem.kernels import data_path, derive_stream_counts, load_suite
from stencilmem.roofline import MachineModel, load_machine

from refdata import sweep_rows

SUITE = str(data_path("cloverleaf_tiny.json"))
ICX = str(data_path("icx_8360y.json"))
RANK1 = str(data_path("reference/clv_tiny_rank1.csv"))
RANK72 = str(data_path("reference/clv_tiny_rank72.csv"))
RANK72_NT = str(data_path("reference/clv_tiny_rank72_nt.csv"))


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def csv_writer_emitter(kernels, sweeps) -> str:
    """``prime-sweep``'s stdout written row by row through ``csv.writer``:
    the reference the column-wise emitter must match byte for byte."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["kernel", "p", "bytes_per_it", "prime"])
    for kernel, sweep in zip(kernels, sweeps):
        writer.writerows(zip(itertools.repeat(kernel.name), sweep.ranks.tolist(),
                             [f"{b:.4f}" for b in sweep.bytes_per_it.tolist()],
                             sweep.prime.astype(int).tolist()))
    return out.getvalue()


class TestAnalyze:
    def test_full_suite(self, capsys):
        rc, out, _ = run(capsys, "analyze", SUITE, ICX)
        lines = [l for l in out.splitlines() if l and not l.startswith("-")]
        assert rc == 0
        assert len(lines) == 1 + 22
        assert lines[0].split()[:2] == ["kernel", "arrays"]
        am04 = next(l for l in lines if l.startswith("am04"))
        assert am04.split() == ["am04", "2", "1", "2", "1", "0", "4",
                                "16", "24", "24", "32", "i"]

    def test_csv_output_parses(self, capsys):
        rc, out, _ = run(capsys, "analyze", SUITE, ICX, "--csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0 and len(rows) == 22
        row = next(r for r in rows if r["kernel"] == "pdv01")
        assert (row["min"], row["max"]) == ("104", "160")

    def test_empty_suite(self, capsys, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"grids": {}, "arrays": {}, "kernels": []}))
        rc, out, _ = run(capsys, "analyze", str(p), ICX)
        assert rc == 0

    def test_malformed_suite_exits_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        rc, _, err = run(capsys, "analyze", str(p), ICX)
        assert rc == 2
        assert "JSON" in err

    def test_malformed_machine_exits_2(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"name": "x"}))
        rc, _, err = run(capsys, "analyze", SUITE, str(p))
        assert rc == 2

    @pytest.mark.parametrize("which, doc, message", [
        ("machine", [1, 2], "a machine config must be an object, not list"),
        ("suite", {"grids": [], "arrays": {}, "kernels": []},
         "'grids' must be an object, not list"),
        ("suite", {"grids": {}, "arrays": {}, "kernels": {"a": 1}},
         "'kernels' must be an array, not dict"),
    ], ids=["machine_list", "grids_list", "kernels_object"])
    def test_malformed_document_shape_exits_2(self, capsys, tmp_path, which, doc,
                                              message):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        argv = [SUITE, str(p)] if which == "machine" else [str(p), ICX]
        rc, out, err = run(capsys, "analyze", *argv)
        assert (rc, out, err) == (2, "", f"error: {p}: {message}\n")

    @pytest.mark.parametrize("value", [10.5, True, 8.0])
    def test_non_integer_grid_field_exits_2(self, capsys, tmp_path, value):
        # the rank sweep splits the extent into local widths: it must be whole
        doc = json.loads(Path(SUITE).read_text())
        [name] = doc["grids"]
        doc["grids"][name]["inner_extent"] = value
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "prime-sweep", str(p), ICX, "--ranks", "1..3")
        assert (rc, out) == (2, "")
        assert err == (f"error: {p}: grid {name!r}: inner_extent must be an "
                       f"integer, not {value!r}\n")

    def test_machine_with_clock_hz_exits_2(self, capsys, tmp_path):
        # clock_hz is no machine field; it fails like any unknown key
        doc = json.loads(Path(ICX).read_text())
        doc["clock_hz"] = 2.4e9
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "analyze", SUITE, str(p))
        assert rc == 2 and out == ""
        assert "clock_hz" in err

    @pytest.mark.parametrize("which", ["suite", "machine"])
    def test_unreadable_input_file_exits_2(self, capsys, tmp_path, which):
        missing = str(tmp_path / "missing.json")
        argv = [missing, ICX] if which == "suite" else [SUITE, missing]
        rc, out, err = run(capsys, "analyze", *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "missing.json" in err

    @pytest.mark.parametrize("field, value, message", [
        ("mem_bw_per_domain", float("nan"), "must be a finite number"),
        ("mem_bw_per_domain", float("inf"), "must be a finite number"),
        ("mem_bw_per_domain", True, "must be a finite number"),
        ("cores_per_domain", 18.5, "must be an integer"),
        ("cache_l3", 5.6e7, "must be an integer"),
        # a string factor reached the evasion model of `prime-sweep --wa
        # speci2m` and failed there with a TypeError; a null one and a
        # numeric name were accepted without a word
        ("speci2m_factor", "1.2", "must be a finite number"),
        ("nt_factor", None, "must be a finite number"),
        ("name", 8360, "must be a string"),
    ], ids=["nan", "inf", "bool", "fractional_cores", "float_cache",
            "factor_string", "factor_null", "name_number"])
    def test_non_finite_machine_number_exits_2(self, capsys, tmp_path, field,
                                               value, message):
        doc = json.loads(Path(ICX).read_text())
        doc[field] = value
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        for argv in (["analyze", SUITE, str(p)],
                     ["prime-sweep", SUITE, str(p), "--ranks", "36"],
                     ["prime-sweep", SUITE, str(p), "--ranks", "36", "--wa",
                      "nt-speci2m"]):
            rc, out, err = run(capsys, *argv)
            assert (rc, out, err) == (2, "", f"error: {p}: {field} {message}, "
                                             f"not {value!r}\n")

    @pytest.mark.parametrize("field, value, message", [
        ("dj", 1.7, "must be integers"),
        ("loop_j_range", [5, 3], "inverted"),
        ("loop_k_range", [2, 1], "inverted"),
        ("flops_per_it", 2.5, "flops_per_it must be an integer"),
        ("flops_per_it", "4", "flops_per_it must be an integer"),
        ("flops_per_it", True, "flops_per_it must be an integer"),
        ("loop_j_range", [5], "loop_j_range must be two integers"),
        ("loop_j_range", 5, "loop_j_range must be two integers"),
        ("loop_k_range", [0.5, 3], "loop_k_range must be two integers"),
    ], ids=["dj", "j_range", "k_range", "flops_float", "flops_str", "flops_bool",
            "j_range_short", "j_range_scalar", "k_range_float"])
    def test_malformed_kernel_field_exits_2(self, capsys, tmp_path, field, value,
                                            message):
        access = {"array": "a", "dj": 0, "dk": 0, "mode": "read"}
        kernel = {"name": "k", "accesses": [access]}
        (access if field == "dj" else kernel)[field] = value
        doc = {"grids": {"g": {"inner_extent": 8, "outer_extent": 8}},
               "arrays": {"a": {"grid": "g"}}, "kernels": [kernel]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "analyze", str(p), ICX)
        assert rc == 2
        assert message in err
        assert str(p) in err and "kernel 'k'" in err

    @pytest.mark.parametrize("where, field, value, message", [
        ("array", "grid", ["g"], "array 'a': grid must be a string, not list"),
        ("kernel", "name", ["k"], "a kernel name must be a string, not list"),
        ("access", "array", ["x"],
         "kernel 'k': an access's array must be a string, not list"),
        ("array", "base_alignment", 64.0,
         "array 'a': base_alignment must be an integer, not 64.0"),
        ("array", "base_alignment", "64",
         "array 'a': base_alignment must be an integer, not '64'"),
    ], ids=["grid_list", "name_list", "array_list", "alignment_float",
            "alignment_str"])
    def test_mistyped_suite_field_exits_2(self, capsys, tmp_path, where, field,
                                          value, message):
        # each of these once escaped load_suite as a TypeError (exit 1)
        access = {"array": "a", "dj": 0, "dk": 0, "mode": "read"}
        kernel = {"name": "k", "accesses": [access]}
        array = {"grid": "g"}
        {"array": array, "kernel": kernel, "access": access}[where][field] = value
        doc = {"grids": {"g": {"inner_extent": 8, "outer_extent": 8}},
               "arrays": {"a": array}, "kernels": [kernel]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "analyze", str(p), ICX)
        assert (rc, out, err) == (2, "", f"error: {p}: {message}\n")

    def test_kernel_on_two_grids_exits_2(self, capsys, tmp_path):
        # a(-1,-1) on a 64x64 grid with halos, b(0,0) on a 4096x16 grid: in
        # either order the kernel has no one grid to be priced on
        read = {"array": "a", "dj": -1, "dk": -1, "mode": "read"}
        write = {"array": "b", "dj": 0, "dk": 0, "mode": "write"}
        doc = {"grids": {"g": {"inner_extent": 64, "outer_extent": 64,
                               "halo_lo": 2, "halo_hi": 2},
                         "h": {"inner_extent": 4096, "outer_extent": 16}},
               "arrays": {"a": {"grid": "g"}, "b": {"grid": "h"}},
               "kernels": [{"name": "ab", "accesses": [read, write]},
                           {"name": "ba", "accesses": [write, read]}]}
        p = tmp_path / "two_grid_kernel.json"
        p.write_text(json.dumps(doc))
        for argv in (["analyze", str(p), ICX],
                     ["prime-sweep", str(p), ICX, "--ranks", "7"],
                     ["simulate", str(p), ICX, "--grid", "32"]):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, "")
            assert err == f"error: {p}: ab: arrays are declared on more than one grid\n"


class TestSimulate:
    def test_single_kernel_within_tolerance(self, capsys):
        rc, out, _ = run(capsys, "simulate", SUITE, ICX, "--kernel", "am04",
                         "--grid", "256", "--check", "--tolerance", "2")
        assert rc == 0
        assert "am04" in out

    def test_claim_policy_checks_against_floor(self, capsys):
        rc, out, _ = run(capsys, "simulate", SUITE, ICX, "--kernel", "am04",
                         "--grid", "256", "--policy", "claim", "--csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0
        assert float(rows[0]["model"]) == 16.0

    def test_zero_grid_is_input_error(self, capsys):
        rc, _, err = run(capsys, "simulate", SUITE, ICX, "--grid", "0")
        assert rc == 2

    def test_check_failure_exits_1(self, capsys):
        rc, _, err = run(capsys, "simulate", SUITE, ICX, "--kernel", "am04",
                         "--grid", "128", "--check", "--tolerance", "0.001")
        assert rc == 1
        assert "check failed" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_not_negative(self, capsys, tolerance):
        # NaN would pass any delta, and a negative tolerance would fail any
        rc, out, err = run(capsys, "simulate", SUITE, ICX, "--kernel", "am04",
                           "--grid", "128", "--check", "--tolerance", tolerance)
        assert (rc, out) == (2, "")
        assert "--tolerance must be a finite number >= 0" in err

    def test_dump_trace_needs_kernel(self, capsys, tmp_path):
        rc, _, err = run(capsys, "simulate", SUITE, ICX,
                         "--dump-trace", str(tmp_path / "t.bin"))
        assert rc == 2

    def test_dump_and_replay(self, capsys, tmp_path):
        trace = tmp_path / "am04.bin"
        rc, _, _ = run(capsys, "simulate", SUITE, ICX, "--kernel", "am04",
                       "--grid", "64", "--dump-trace", str(trace))
        assert rc == 0 and trace.exists()
        rc, out, _ = run(capsys, "replay", str(trace), ICX)
        assert rc == 0
        assert "read_bytes=" in out

    def test_replay_partial_record_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "short.bin"
        trace.write_bytes(bytes(11))
        rc, out, err = run(capsys, "replay", str(trace), ICX)
        assert rc == 2 and out == ""
        assert "whole number" in err

    def test_replay_access_across_a_line_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "am00.bin"
        rc, _, _ = run(capsys, "simulate", SUITE, ICX, "--kernel", "am00",
                       "--grid", "64", "--dump-trace", str(trace))
        assert rc == 0
        # every address is 8-byte aligned: 16-byte accesses at line offset
        # 56 cross into the next line, 8-byte accesses never do
        rc, out, err = run(capsys, "replay", str(trace), ICX, "--access-bytes", "16")
        assert rc == 2 and out == ""
        assert "crosses a 64-byte cache line" in err
        rc, out, _ = run(capsys, "replay", str(trace), ICX, "--access-bytes", "8")
        kernel = load_suite(SUITE).kernels["am00"]
        t = cachesim.simulate_kernel(
            kernel, kernel.arrays[0].grid.resized(64, 64),
            [cachesim.CacheLevelConfig(
                int(load_machine(ICX).effective_cache_per_process(1)) // 64 * 64)])
        assert rc == 0
        assert out == (f"read_bytes={t.read_bytes} write_bytes={t.write_bytes} "
                       f"wa_avoided_bytes={t.wa_avoided_bytes}\n")

    def test_unwritable_dump_trace_exits_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "simulate", SUITE, ICX, "--kernel", "am00",
                         "--grid", "8", "--dump-trace", str(tmp_path / "no" / "t.bin"))
        assert rc == 2
        assert err.startswith("error: ")

    def test_replay_bad_mode_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "mode7.bin"
        np.array([(0, 0), (64, 7)], dtype=TRACE_DTYPE).tofile(trace)
        rc, out, err = run(capsys, "replay", str(trace), ICX)
        assert rc == 2 and out == ""
        assert "mode" in err

    def test_failing_kernel_exits_2(self, capsys, tmp_path):
        # a loop range past the 8x8 grid: the simulation raises, so --check
        # must not pass and no trace may be written
        kernel = {"name": "k", "loop_j_range": [0, 60], "accesses": [
            {"array": "a", "dj": 0, "dk": 0, "mode": "read"}]}
        doc = {"grids": {"g": {"inner_extent": 8, "outer_extent": 8}},
               "arrays": {"a": {"grid": "g"}}, "kernels": [kernel]}
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps(doc))
        trace = tmp_path / "t.bin"
        rc, out, err = run(capsys, "simulate", str(suite), ICX, "--grid", "8",
                           "--kernel", "k", "--check", "--tolerance", "1",
                           "--dump-trace", str(trace))
        assert rc == 2 and out == ""
        assert err.startswith("error: k: ")
        assert not trace.exists()

    def test_unknown_kernel(self, capsys):
        rc, _, err = run(capsys, "simulate", SUITE, ICX, "--kernel", "nope")
        assert rc == 2

    def test_levels_cache_mode(self, capsys):
        rc, out, _ = run(capsys, "simulate", SUITE, ICX, "--kernel", "am04",
                         "--grid", "128", "--cache-mode", "levels", "--csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0
        assert abs(float(rows[0]["simulated"]) - 24) < 1.5


class TestPrimeSweep:
    def test_csv_round_trips_and_flags_primes(self, capsys):
        rc, out, _ = run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "70..72")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0
        assert len(rows) == 22 * 3
        by_p = {r["p"]: r for r in rows if r["kernel"] == "am04"}
        assert by_p["71"]["prime"] == "1"
        assert by_p["72"]["prime"] == "0"
        assert float(by_p["71"]["bytes_per_it"]) > float(by_p["72"]["bytes_per_it"])

    def test_single_rank_equals_model(self, capsys):
        rc, out, _ = run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "1")
        rows = {r["kernel"]: r for r in csv.DictReader(io.StringIO(out))}
        assert float(rows["am04"]["bytes_per_it"]) == pytest.approx(17.6)

    def test_bad_range(self, capsys):
        rc, _, err = run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "5..1")
        assert rc == 2

    def test_bad_range_hints_at_rank_counts(self, capsys):
        assert run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "5..1") == (
            2, "", "error: bad rank range '5..1'; use e.g. 1..72 or 8,19,72\n")

    @staticmethod
    def two_grid_suite(tmp_path):
        """A star kernel on a 15360-wide grid, then one on a 100-wide grid."""
        def star(name, arr):
            reads = [{"array": arr, "dj": dj, "dk": dk, "mode": "read"}
                     for dj, dk in ((0, -1), (-1, 0), (0, 0), (1, 0), (0, 1))]
            write = {"array": arr, "dj": 0, "dk": 0, "mode": "write"}
            return {"name": name, "accesses": reads + [write]}
        grid = {"outer_extent": 64, "halo_lo": 2, "halo_hi": 2}
        doc = {"grids": {"wide": dict(grid, inner_extent=15360),
                         "narrow": dict(grid, inner_extent=100)},
               "arrays": {"w": {"grid": "wide"}, "n": {"grid": "narrow"}},
               "kernels": [star("on_wide", "w"), star("on_narrow", "n")]}
        p = tmp_path / "two_grids.json"
        p.write_text(json.dumps(doc))
        return p

    @classmethod
    def interleaved_suite(cls, tmp_path, kernels=None):
        """Kernels that alternate between grids and element sizes: a star on
        the wide grid, one on the narrow 100-cell grid, a two-row float
        stencil on the wide extents, then a copy on the wide grid (a write
        that can evade its allocate, and no row reuse). `kernels` picks a
        subset by index, in the order given."""
        doc = json.loads(cls.two_grid_suite(tmp_path).read_text())
        doc["grids"]["wide_float"] = dict(doc["grids"]["wide"], element_size=4)
        doc["arrays"].update({"fa": {"grid": "wide_float"},
                              "fb": {"grid": "wide_float"},
                              "c": {"grid": "wide"}})
        doc["kernels"] += [
            {"name": "float2row", "accesses": [
                {"array": "fa", "dj": 0, "dk": -1, "mode": "read"},
                {"array": "fa", "dj": 0, "dk": 1, "mode": "read"},
                {"array": "fb", "dj": 0, "dk": 0, "mode": "write"}]},
            {"name": "copy_wide", "accesses": [
                {"array": "w", "dj": 0, "dk": 0, "mode": "read"},
                {"array": "c", "dj": 0, "dk": 0, "mode": "write"}]}]
        if kernels is not None:
            doc["kernels"] = [doc["kernels"][i] for i in kernels]
        p = tmp_path / f"interleaved{''.join(map(str, kernels or ''))}.json"
        p.write_text(json.dumps(doc))
        return p

    @pytest.mark.parametrize("machine_name", ["icx", "small"])
    def test_interleaved_grids_price_as_each_kernel_alone(self, tmp_path, icx,
                                                          machine_name):
        # kernels on one grid are priced together as one table; each must
        # still get, bit for bit, what it gets alone. A machine with 16 KiB
        # of L2 and 256 KiB of L3 breaks the wide grid's layer conditions at
        # low counts, so both states are priced
        machine = icx if machine_name == "icx" else replace(
            icx, cache_l2=16 * 1024, cache_l3=256 * 1024)
        kernels = list(load_suite(self.interleaved_suite(tmp_path)))
        assert [(k.grid.inner_extent, k.grid.element_size) for k in kernels] == \
            [(15360, 8), (100, 8), (15360, 4), (15360, 8)]
        policy = balance.wa_policy("speci2m", machine)
        ranks = [*range(1, 101), 71, 8, 1]
        sweeps = decomp.predict_rank_sweep(kernels, ranks, machine, policy)
        assert len(sweeps) == len(kernels)
        states = set()
        for kernel, got in zip(kernels, sweeps):
            alone, = decomp.predict_rank_sweep([kernel], ranks, machine, policy)
            for field in fields(decomp.RankSweep):
                a, b = getattr(got, field.name), getattr(alone, field.name)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), \
                    (kernel.name, field.name)
            states |= set(got.lc_fulfilled.tolist())
        assert states == ({True} if machine_name == "icx" else {True, False})

    def test_interleaved_grids_csv_joins_the_one_kernel_csvs(self, capsys,
                                                             tmp_path):
        argv = [ICX, "--ranks", "1..100", "--wa", "full"]
        rc, out, err = run(capsys, "prime-sweep",
                           str(self.interleaved_suite(tmp_path)), *argv)
        assert (rc, err) == (0, "")
        header, body = out.split("\r\n", 1)
        alone = []
        for i in range(4):
            rc, one, err = run(capsys, "prime-sweep",
                               str(self.interleaved_suite(tmp_path, [i])), *argv)
            assert (rc, err) == (0, "")
            assert one.startswith(header + "\r\n")
            alone.append(one.split("\r\n", 1)[1])
        assert [len(a.splitlines()) for a in alone] == [100] * 4
        assert body == "".join(alone)

    def test_one_process_grid_and_cache_share_per_count_and_grid(self, capsys,
                                                                 monkeypatch):
        # the bundled kernels share one grid: 360 counts are factorized once
        # each, not once per kernel, and the grid's whole rank column gets its
        # cache shares in one call
        calls = {"factorize": 0, "cache": 0}
        factorize = decomp.factorize_ranks
        cache_share = MachineModel.effective_cache_per_process

        def counted_factorize(*args):
            calls["factorize"] += 1
            return factorize(*args)

        def counted_cache(*args):
            calls["cache"] += 1
            return cache_share(*args)

        monkeypatch.setattr(decomp, "factorize_ranks", counted_factorize)
        monkeypatch.setattr(MachineModel, "effective_cache_per_process", counted_cache)
        rc, out, _ = run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "1..360")
        assert rc == 0 and len(out.splitlines()) == 1 + 22 * 360
        assert calls == {"factorize": 360, "cache": 1}

    def test_each_kernel_uses_its_own_grid(self, capsys, tmp_path):
        p = self.two_grid_suite(tmp_path)
        rc, out, _ = run(capsys, "prime-sweep", str(p), ICX, "--ranks", "72")
        assert rc == 0
        got = {r["kernel"]: r["bytes_per_it"] for r in csv.DictReader(io.StringIO(out))}
        suite, icx = load_suite(p), load_machine(ICX)
        policy = balance.evasion(icx.speci2m_factor)
        expected = {}
        for kernel in suite:
            sweep, = decomp.predict_rank_sweep([kernel], [72], icx, policy)
            pred, = sweep_rows(sweep)
            expected[kernel.name] = f"{pred.bytes_per_it:.4f}"
        assert got == expected
        assert got["on_wide"] != got["on_narrow"]

    def test_failing_kernel_leaves_no_partial_csv(self, capsys, tmp_path):
        # 120 ranks cannot split the second kernel's 100-wide grid
        p = self.two_grid_suite(tmp_path)
        rc, out, err = run(capsys, "prime-sweep", str(p), ICX, "--ranks", "1..120")
        assert rc == 2
        assert out == ""
        assert "error" in err

    def test_first_failing_rank_of_the_first_failing_grid_is_named(self, capsys,
                                                                  tmp_path):
        # the wide grid takes every count of 1..120; the narrow one fails
        # first at 101, which is prime and cuts its 100 cells 101 ways
        p = self.two_grid_suite(tmp_path)
        rc, out, err = run(capsys, "prime-sweep", str(p), ICX, "--ranks", "1..120")
        assert (rc, out, err) == (2, "", "error: cannot split extent 100 into "
                                         "101 parts\n")

    def test_grids_are_walked_in_order_of_first_appearance(self, capsys, tmp_path):
        # 16384 ranks go on (128, 128): 128 parts do not fit the wide grid's
        # 64 rows, and 16384 is more than the narrow grid's 6400 cells, so
        # the grid of the first kernel names the error
        doc = json.loads(self.two_grid_suite(tmp_path).read_text())
        errors = {"on_wide": "error: cannot split extent 64 into 128 parts\n",
                  "on_narrow": "error: cannot split a 100 x 64 grid into 16384 ranks\n"}
        for kernels in (doc["kernels"], doc["kernels"][::-1]):
            p = tmp_path / "ordered.json"
            p.write_text(json.dumps(dict(doc, kernels=kernels)))
            assert run(capsys, "prime-sweep", str(p), ICX, "--ranks", "16384") == (
                2, "", errors[kernels[0]["name"]])

    @pytest.mark.parametrize("wa", sorted(balance.WA_MODELS))
    def test_rank_list_keeps_its_order_and_duplicates(self, capsys, wa):
        from test_decomp import composed_rank_prediction
        ranks = [72, 8, 72, 1]
        rc, out, err = run(capsys, "prime-sweep", SUITE, ICX, "--ranks",
                           ",".join(map(str, ranks)), "--wa", wa)
        assert (rc, err) == (0, "")
        suite, icx = load_suite(SUITE), load_machine(ICX)
        policy = balance.wa_policy(wa, icx)
        composed = {k.name: [composed_rank_prediction(k, p, icx, policy)
                             for p in ranks] for k in suite}
        want = [[name, str(w["ranks"]), f"{w['bytes_per_it']:.4f}",
                 str(int(w["prime"]))] for name, ws in composed.items() for w in ws]
        assert list(csv.reader(io.StringIO(out)))[1:] == want
        kernels = list(suite)
        for kernel, sweep in zip(kernels, decomp.predict_rank_sweep(kernels, ranks,
                                                                    icx, policy)):
            assert [vars(r) for r in sweep_rows(sweep)] == composed[kernel.name]

    def test_outer_cut_is_checked_against_the_outer_extent(self, capsys, tmp_path):
        # a grid 4096 wide and 2 high: 4 ranks go on (2, 2), but 8 ranks on
        # (2, 4), and 4 parts do not fit in 2 rows
        doc = {"grids": {"flat": {"inner_extent": 4096, "outer_extent": 2,
                                  "halo_lo": 1, "halo_hi": 1}},
               "arrays": {"a": {"grid": "flat"}, "b": {"grid": "flat"}},
               "kernels": [{"name": "copy", "accesses": [
                   {"array": "a", "dj": 0, "dk": 0, "mode": "read"},
                   {"array": "b", "dj": 0, "dk": 0, "mode": "write"}]}]}
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "prime-sweep", str(p), ICX, "--ranks", "1..5")
        assert rc == 0 and len(out.splitlines()) == 1 + 5
        for ranks in ("8", "1..64"):
            rc, out, err = run(capsys, "prime-sweep", str(p), ICX, "--ranks", ranks)
            assert (rc, out) == (2, "")
            assert err.startswith("error: cannot split extent 2 into ")

    def test_huge_range_stops_at_first_unsplittable_rank(self, capsys):
        # the range is walked, never listed: 15361 is prime and wider than
        # the bundled 15360-cell grid, so the sweep stops there, as
        # `--ranks 15361` does, without building 10**12 rank counts first
        assert cli._parse_int_range("1..1000000000000", 1, "rank", "") == \
            range(1, 10 ** 12 + 1)
        for ranks in ("15361", "1..1000000000000"):
            rc, out, err = run(capsys, "prime-sweep", SUITE, ICX, "--ranks", ranks)
            assert (rc, out) == (2, "")
            assert err == "error: cannot split extent 15360 into 15361 parts\n"

    def test_kernel_names_are_quoted_as_csv_writer_quotes_them(self, capsys,
                                                               tmp_path):
        doc = json.loads(self.two_grid_suite(tmp_path).read_text())
        for kernel, name in zip(doc["kernels"], ['comma,name', 'say "hi"']):
            kernel["name"] = name
        doc["kernels"].append(dict(doc["kernels"][0], name=" leading space"))
        p = tmp_path / "odd_names.json"
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "prime-sweep", str(p), ICX, "--ranks", "1..30")
        assert (rc, err) == (0, "")
        suite, icx = load_suite(p), load_machine(ICX)
        sweeps = decomp.predict_rank_sweep(suite, range(1, 31), icx,
                                           balance.wa_policy("speci2m", icx))
        assert out == csv_writer_emitter(suite, sweeps)
        lines = out.split("\r\n")
        assert lines[1].startswith('"comma,name",1,')
        assert lines[31].startswith('"say ""hi""",1,')
        assert lines[61].startswith(" leading space,1,")

    @pytest.mark.parametrize("wa", sorted(balance.WA_MODELS))
    @pytest.mark.parametrize("machine", ["icx_8360y", "spr_8480p"])
    def test_random_rank_lists_match_csv_writer(self, capsys, monkeypatch,
                                                machine, wa):
        # unsorted lists with duplicates; every other sweep has a few
        # balances overwritten with -0.0 and 0.0, which format apart
        # ("-0.0000", "0.0000") though they compare equal
        rng = random.Random(f"{machine}-{wa}")
        path = str(data_path(f"{machine}.json"))
        suite = load_suite(SUITE)
        real_sweep = decomp.predict_rank_sweep
        seen = []

        def sweep_with_signed_zeros(kernels, ranks, *rest):
            sweeps = real_sweep(kernels, ranks, *rest)
            if len(seen) % 2:
                for sweep in rng.sample(sweeps, 3):
                    for value in (-0.0, 0.0, -0.0, 0.0):
                        sweep.bytes_per_it[rng.randrange(len(ranks))] = value
            seen.append(sweeps)
            return sweeps

        monkeypatch.setattr(decomp, "predict_rank_sweep", sweep_with_signed_zeros)
        for _ in range(50):
            ranks = [rng.choice([rng.randint(1, 400), rng.randint(1, 15360)])
                     for _ in range(rng.randint(1, 500))]
            ranks += rng.choices(ranks, k=rng.randint(0, 20))
            rng.shuffle(ranks)
            rc, out, err = run(capsys, "prime-sweep", SUITE, path, "--ranks",
                               ",".join(map(str, ranks)), "--wa", wa)
            assert (rc, err) == (0, "")
            assert seen[-1][0].ranks.tolist() == ranks
            # compared as split lines, equal exactly when the texts are, since
            # pytest's report on two long unequal strings takes minutes
            want = csv_writer_emitter(suite, seen[-1])
            assert out.split("\r\n") == want.split("\r\n")
        # some column held both zeros (its only negatives are -0.0)
        assert any(np.signbit(b).any() and (b == 0).sum() > np.signbit(b).sum()
                   for sweeps in seen for b in (s.bytes_per_it for s in sweeps))

    def test_header_and_crlf_line_ends_are_documented(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        assert "the header `kernel,p,bytes_per_it,prime`" in cli_section
        assert "Lines end in CRLF" in " ".join(cli_section.split())
        env = dict(os.environ, PYTHONPATH=str(Path(stencilmem.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "stencilmem.cli", "prime-sweep", SUITE, ICX,
             "--ranks", "70..72"], capture_output=True, env=env, timeout=60,
            check=True).stdout
        assert out.startswith(b"kernel,p,bytes_per_it,prime\r\n")
        assert out.endswith(b"\r\n")
        assert out.count(b"\n") == out.count(b"\r\n") == 1 + 22 * 3
        assert out.count(b"\r") == out.count(b"\r\n")

    def test_more_ranks_than_grid_cells_exit_at_once(self):
        # 2**61 - 1 is prime: its trial division alone would run for minutes,
        # so the count must be refused as larger than the 15360 x 15360 grid
        env = dict(os.environ, PYTHONPATH=str(Path(stencilmem.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "stencilmem.cli", "prime-sweep", SUITE, ICX,
             "--ranks", str(2 ** 61 - 1)], capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, b"", b"error: cannot split a 15360 x 15360 grid into "
                    b"2305843009213693951 ranks\n")

    def test_closed_pipe_ends_quietly(self):
        # `prime-sweep | head`: far more output than a pipe buffer holds
        env = dict(os.environ, PYTHONPATH=str(Path(stencilmem.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "stencilmem.cli", "prime-sweep", SUITE, ICX,
             "--ranks", "1..400"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"kernel,p,bytes_per_it,prime")
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert err == b""

    def test_wa_model_variants(self, capsys):
        values = {}
        for wa in ("full", "none", "speci2m", "nt-speci2m"):
            rc, out, _ = run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "1",
                             "--wa", wa)
            assert rc == 0
            rows = {r["kernel"]: r for r in csv.DictReader(io.StringIO(out))}
            values[wa] = float(rows["am04"]["bytes_per_it"])
        assert values["none"] == 16.0
        assert values["full"] == 24.0
        assert values["none"] < values["nt-speci2m"] < values["speci2m"] \
            < values["full"]


class TestCompare:
    def test_rank1_against_lcf_wa(self, capsys):
        rc, out, _ = run(capsys, "compare", SUITE, ICX, RANK1,
                         "--scenario", "lcf-wa", "--check", "--tolerance", "3")
        assert rc == 0
        assert "mean absolute error" in out

    def test_rank72_against_evasion_model(self, capsys):
        rc, out, _ = run(capsys, "compare", SUITE, ICX, RANK72,
                         "--scenario", "speci2m", "--check", "--tolerance", "10")
        assert rc == 0

    def test_check_can_fail(self, capsys):
        rc, _, err = run(capsys, "compare", SUITE, ICX, RANK72,
                         "--scenario", "min", "--check", "--tolerance", "1")
        assert rc == 1
        assert "check failed" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_not_negative(self, capsys, tolerance):
        rc, out, err = run(capsys, "compare", SUITE, ICX, RANK72, "--check",
                           "--tolerance", tolerance)
        assert (rc, out) == (2, "")
        assert "--tolerance must be a finite number >= 0" in err

    def test_no_evasion_override_improves_fit(self, capsys):
        def mean_err(*extra):
            rc, out, _ = run(capsys, "compare", SUITE, ICX, RANK72,
                             "--scenario", "speci2m", *extra)
            assert rc == 0
            return float(out.rsplit("mean absolute error:", 1)[1].split("%")[0])
        plain = mean_err()
        overridden = mean_err("--no-evasion", "ac01,ac02,ac05,ac06")
        assert overridden < plain

    def test_unknown_no_evasion_kernel_exits_2(self, capsys):
        # a typo must not leave its kernel priced with evasion
        rc, out, err = run(capsys, "compare", SUITE, ICX, RANK72,
                           "--scenario", "speci2m", "--no-evasion", "ac1,ac02")
        assert rc == 2 and out == ""
        assert "'ac1'" in err and "ac02" not in err

    @pytest.mark.parametrize("scenario", ["lcf-wa", "speci2m"])
    def test_no_evasion_note_names_a_scenario_without_evasion(self, capsys,
                                                              scenario):
        rc, plain, plain_err = run(capsys, "compare", SUITE, ICX, RANK72,
                                   "--scenario", scenario)
        rc_flag, out, err = run(capsys, "compare", SUITE, ICX, RANK72,
                                "--scenario", scenario, "--no-evasion", "ac01")
        assert rc == rc_flag == 0 and plain_err == ""
        if scenario == "speci2m":
            assert err == "" and out != plain
        else:
            assert out == plain
            assert err == ("note: --no-evasion has no effect under scenario "
                           "'lcf-wa', which does not evade\n")

    @pytest.mark.parametrize("scenario", ["min", "lcf-wa", "lcb", "max",
                                          "speci2m", "nt-speci2m"])
    def test_model_column_prices_the_named_scenario(self, capsys, scenario):
        no_evasion = {"ac01", "ac02", "ac05", "ac06"}
        rc, out, _ = run(capsys, "compare", SUITE, ICX, RANK1, "--csv",
                         "--scenario", scenario, "--no-evasion", ",".join(no_evasion))
        assert rc == 0
        table_text = out.rsplit("mean absolute error", 1)[0]
        rows = list(csv.DictReader(io.StringIO(table_text)))
        suite, icx = load_suite(SUITE), load_machine(ICX)
        corner = {"min": "minimum", "lcf-wa": "lcf_wa", "lcb": "lcb",
                  "max": "maximum"}
        assert len(rows) == 22
        for row in rows:
            kernel = suite.kernels[row["kernel"]]
            table = balance.scenario_table(kernel)
            if scenario in corner:
                expected = getattr(table, corner[scenario]).bytes_per_it
            elif kernel.name in no_evasion:
                expected = table.lcf_wa.bytes_per_it
            else:
                expected = balance.code_balance(
                    derive_stream_counts(kernel), True,
                    balance.wa_policy(scenario, icx))
            assert float(row["model"]) == round(expected, 3), kernel.name

    def test_missing_column_names_it(self, capsys, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("kernel,ranks,read_gbytes,write_gbytes,call_count,timesteps\n")
        rc, _, err = run(capsys, "compare", SUITE, ICX, str(p))
        assert rc == 2
        assert "grid_points" in err

    def test_unknown_kernel_in_csv(self, capsys, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("kernel,ranks,read_gbytes,write_gbytes,call_count,"
                     "timesteps,grid_points\nzz99,1,1.0,1.0,1,400,1000\n")
        rc, _, err = run(capsys, "compare", SUITE, ICX, str(p))
        assert rc == 2

    def test_measurement_parsing(self):
        records = read_measurements(RANK1)
        assert len(records) == 22
        am04 = next(r for r in records if r.kernel == "am04")
        assert am04.bytes_per_it == pytest.approx(24.05, abs=5e-4)

    def test_rank1_fixture_matches_frozen_reference(self):
        from refdata import meas1_of
        for rec in read_measurements(RANK1):
            assert rec.bytes_per_it == pytest.approx(meas1_of(rec.kernel),
                                                     abs=5e-4), rec.kernel

    def test_negative_volume_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("kernel,ranks,read_gbytes,write_gbytes,call_count,"
                     "timesteps,grid_points\nam04,1,-1.0,1.0,1,400,1000\n")
        with pytest.raises(InputError):
            read_measurements(str(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["read_gbytes", "write_gbytes"])
    def test_non_finite_volume_exits_2(self, capsys, tmp_path, column, value):
        # a NaN volume made the mean error NaN, which passed --check
        volumes = {"read_gbytes": "1.0", "write_gbytes": "1.0", column: value}
        p = tmp_path / "m.csv"
        p.write_text("kernel,ranks,read_gbytes,write_gbytes,call_count,"
                     "timesteps,grid_points\n"
                     f"am04,1,{volumes['read_gbytes']},{volumes['write_gbytes']},"
                     "1,400,1000\n")
        rc, out, err = run(capsys, "compare", SUITE, ICX, str(p), "--check",
                           "--tolerance", "5")
        assert (rc, out, err) == (2, "", "error: measurement 'am04': data volumes "
                                         "must be finite and not negative\n")

    def test_zero_volume_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("kernel,ranks,read_gbytes,write_gbytes,call_count,"
                     "timesteps,grid_points\nam04,1,0.0,0.0,1,400,1000\n")
        with pytest.raises(InputError):
            read_measurements(str(p))


class TestStoreRatio:
    def test_always_allocate(self, capsys):
        rc, out, _ = run(capsys, "store-ratio", "--streams", "1",
                         "--volume", "1048576")
        assert rc == 0
        assert float(out) == 2.0

    def test_nt_flag(self, capsys):
        rc, out, _ = run(capsys, "store-ratio", "--streams", "2", "--policy", "nt",
                         "--volume", "1048576")
        assert rc == 0
        assert float(out) == 1.0

    def test_claim_policy(self, capsys):
        rc, out, _ = run(capsys, "store-ratio", "--streams", "3",
                         "--policy", "claim", "--volume", "1048576")
        assert rc == 0
        assert float(out) == 1.0

    def test_bad_stream_count(self, capsys):
        rc, _, _ = run(capsys, "store-ratio", "--streams", "0")
        assert rc == 2


class TestHaloCopy:
    def test_sweep_table(self, capsys):
        rc, out, _ = run(capsys, "halo-copy", "--inner", "216",
                         "--halo", "0..3", "--volume", "1048576", "--csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0
        ratios = {r["halo"]: float(r["read_write_ratio"]) for r in rows}
        assert ratios["0"] == 1.0
        assert ratios["3"] > 1.01

    def test_single_halo(self, capsys):
        rc, out, _ = run(capsys, "halo-copy", "--inner", "1920", "--halo", "8",
                         "--volume", "1048576")
        assert rc == 0

    def test_negative_halo(self, capsys):
        rc, _, _ = run(capsys, "halo-copy", "--halo", "-3")
        assert rc == 2

    def test_bad_range_hints_at_halo_widths(self, capsys):
        assert run(capsys, "halo-copy", "--halo", "17..0") == (
            2, "", "error: bad halo range '17..0'; use e.g. 0..17 or 0,3,8\n")

    @pytest.mark.parametrize("command", ["halo-copy", "store-ratio"])
    @pytest.mark.parametrize("volume", ["-100", "0", "63"])
    def test_volume_below_one_line(self, capsys, command, volume):
        # one rule in the library for both microbenchmarks
        rc, out, err = run(capsys, command, "--volume", volume)
        assert (rc, out) == (2, "")
        assert "at least one 64-byte cache line" in err


class TestClaimBuffer:
    """--claim-buffer is the claim detector's window: a value below one line
    is an error under every policy, and a policy without an active detector
    says that it ignores the option."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.bin"
        records = np.array([(0, 1), (8, 1), (64, 0)], dtype=TRACE_DTYPE)
        records.tofile(path)
        return str(path)

    def argvs(self, trace):
        return {"simulate": ["simulate", SUITE, ICX, "--kernel", "am04",
                             "--grid", "32"],
                "replay": ["replay", trace, ICX],
                "store-ratio": ["store-ratio", "--volume", "4096"],
                "halo-copy": ["halo-copy", "--inner", "16", "--halo", "2",
                              "--volume", "4096"]}

    @pytest.mark.parametrize("policy", ["always", "nt", "claim", "claim-inactive"])
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_below_one_exits_2(self, capsys, trace, policy, value):
        for argv in self.argvs(trace).values():
            rc, out, err = run(capsys, *argv, "--policy", policy,
                               "--claim-buffer", value)
            assert (rc, out) == (2, ""), argv
            assert err == "error: --claim-buffer must be >= 1\n"

    @pytest.mark.parametrize("policy", ["always", "nt", "claim-inactive"])
    def test_no_detector_notes_and_ignores_it(self, capsys, trace, policy):
        for argv in self.argvs(trace).values():
            plain = run(capsys, *argv, "--policy", policy)
            rc, out, err = run(capsys, *argv, "--policy", policy,
                               "--claim-buffer", "32")
            assert (rc, out) == plain[:2] and rc == 0, argv
            assert err == (f"note: --claim-buffer has no effect under "
                           f"--policy {policy}\n")

    def test_claim_policy_uses_it_quietly(self, capsys):
        # three interleaved store streams: a window of one line ages the
        # other streams' lines out before they are complete; the default is
        # AutoClaim's 64
        argv = ["store-ratio", "--streams", "3", "--volume", "4096",
                "--policy", "claim"]
        assert run(capsys, *argv) == (0, "1.0000\n", "")
        assert run(capsys, *argv, "--claim-buffer", "64") == (0, "1.0000\n", "")
        assert run(capsys, *argv, "--claim-buffer", "1") == (0, "1.6667\n", "")


class TestDispatch:
    def test_parser_is_built_once_on_import(self, capsys, monkeypatch):
        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        for _ in range(3):
            assert run(capsys, "store-ratio", "--volume", "4096")[0] == 0
            assert run(capsys, "analyze", SUITE, ICX)[0] == 0

    def test_replaced_command_is_the_one_called(self, capsys, monkeypatch):
        seen = []

        def fake_analyze(args):
            seen.append((args.suite, args.machine, args.csv))
            print("fake")
            return 0

        monkeypatch.setattr(cli, "cmd_analyze", fake_analyze)
        assert run(capsys, "analyze", SUITE, ICX, "--csv") == (0, "fake\n", "")
        assert seen == [(SUITE, ICX, True)]

    def test_usage_error_leaves_the_next_call_working(self, capsys):
        want = run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "70..72")
        assert want[0] == 0
        for argv in (["prime-sweep", SUITE], ["prime-sweep", SUITE, ICX, "--wa", "x"],
                     ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage:" in capsys.readouterr().err
            assert run(capsys, "prime-sweep", SUITE, ICX, "--ranks", "70..72") == want


def readme_synopsis() -> str:
    """The code block that opens README's CLI section."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def readme_synopsis_flags() -> dict[str, set[str]]:
    """Subcommand -> the --flags its README synopsis lines name."""
    flags: dict[str, set[str]] = {}
    for line in readme_synopsis().splitlines():
        words = line.split()
        if words[:1] == ["stencilmem"]:
            command = words[1]
        flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def subcommands(parser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_synopsis_matches_parser():
    parser_flags = {name: {o for a in p._actions for o in a.option_strings
                           if o.startswith("--") and o != "--help"}
                    for name, p in subcommands(build_parser()).items()}
    assert readme_synopsis_flags() == parser_flags


def test_readme_synopsis_lists_every_command_and_choice():
    # each subcommand has a synopsis line, and an option with choices
    # lists exactly the parser's, in its order, wherever it spells them out
    commands = subcommands(cli.PARSER)
    block = readme_synopsis()
    named = [line.split()[1] for line in block.splitlines()
             if line.startswith("stencilmem ")]
    assert sorted(named) == sorted(commands)
    choices: dict[str, set[tuple[str, ...]]] = {}
    for parser in commands.values():
        for action in parser._actions:
            if action.choices and action.option_strings:
                choices.setdefault(action.option_strings[0], set()).add(
                    tuple(action.choices))
    assert set(choices) == {"--policy", "--cache-mode", "--wa", "--scenario"}
    listed: dict[str, list[tuple[str, ...]]] = {}
    for flag, values in re.findall(r"\[(--[a-z-]+) ([^\]\s]+)\]", block):
        if "|" in values:
            listed.setdefault(flag, []).append(tuple(values.split("|")))
    assert set(listed) == set(choices)
    for flag, (want, *others) in choices.items():
        assert not others, flag     # the same choices under every subcommand
        assert set(listed[flag]) == {want}, flag
