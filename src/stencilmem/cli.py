"""Command-line front end.

Subcommands::

    analyze      per-kernel stream counts, balance bounds, scaling class
    simulate     cache-simulator balance vs. the analytic scenario
    replay       memory traffic of a dumped binary trace
    prime-sweep  predicted bytes/iteration over a rank-count range (CSV)
    compare      model balance vs. a measurement CSV, with error summary
    store-ratio  traffic/store-volume ratio of an n-stream store benchmark
    halo-copy    read/write ratio of the strip-mined copy benchmark

It parses arguments, reads measurement CSVs and formats output; named
scenarios and which of them evade live in :mod:`stencilmem.balance`, which
simulator policies evade in :mod:`stencilmem.cachesim`.

The parser is built once, on import (``PARSER``); ``main`` runs the
subcommand's ``cmd_*`` function, looked up in this module when it is called.

Exit codes: 0 success, 1 tolerance check failed (only with --check), 2
malformed input, an unreadable file or a usage error. A reader that closes
standard output early (``| head``) ends the command quietly with exit 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import balance, cachesim, decomp
from .kernels import LINE_BYTES, load_suite
from .roofline import MachineModel, load_machine

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2

MEASUREMENT_COLUMNS = ("kernel", "ranks", "read_gbytes", "write_gbytes",
                       "call_count", "timesteps", "grid_points")


class InputError(Exception):
    pass


@dataclass(frozen=True)
class MeasurementRecord:
    """One row of a measurement CSV; volumes are aggregated over all ranks."""

    kernel: str
    ranks: int
    read_gbytes: float
    write_gbytes: float
    call_count: int
    timesteps: int
    grid_points: int

    def __post_init__(self):
        if min(self.ranks, self.call_count, self.timesteps, self.grid_points) <= 0:
            raise InputError(f"measurement {self.kernel!r}: counts must be positive")
        # NaN compares false both ways, so it fails too
        if not all(0 <= v < math.inf for v in (self.read_gbytes, self.write_gbytes)):
            raise InputError(f"measurement {self.kernel!r}: data volumes must be "
                             f"finite and not negative")
        if self.read_gbytes + self.write_gbytes == 0:
            raise InputError(f"measurement {self.kernel!r}: zero data volume")

    @property
    def bytes_per_it(self) -> float:
        total = (self.read_gbytes + self.write_gbytes) * 1e9
        return total / (self.call_count * self.timesteps * self.grid_points)


def read_measurements(path: str | Path) -> list[MeasurementRecord]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in MEASUREMENT_COLUMNS:
            if col not in header:
                raise InputError(f"{path}: missing column {col!r}")
        records = []
        for i, row in enumerate(reader, start=2):
            try:
                records.append(MeasurementRecord(
                    kernel=row["kernel"],
                    ranks=int(row["ranks"]),
                    read_gbytes=float(row["read_gbytes"]),
                    write_gbytes=float(row["write_gbytes"]),
                    call_count=int(row["call_count"]),
                    timesteps=int(row["timesteps"]),
                    grid_points=int(row["grid_points"])))
            except (TypeError, ValueError) as exc:
                raise InputError(f"{path}:{i}: bad measurement row: {exc}") from exc
    return records


def _emit_table(headers, rows, as_csv: bool):
    if as_csv:
        w = csv.writer(sys.stdout)
        w.writerow(headers)
        w.writerows(rows)
        return
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        first, *rest = (c.ljust(w) if i == 0 else c.rjust(w)
                        for i, (c, w) in enumerate(zip(row, widths)))
        return ("  ".join([first] + rest)).rstrip()
    print(fmt(headers))
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in cells:
        print(fmt(row))


def _num(v) -> str:
    return f"{v:g}"


# -- subcommands ---------------------------------------------------------------


def cmd_analyze(args) -> int:
    suite = load_suite(args.suite)
    load_machine(args.machine)
    rows = []
    for kernel in suite:
        c = kernel.counts
        t = balance.scenario_table(kernel)
        rows.append([kernel.name, c.n_arrays, c.rd_lcf, c.rd_lcb, c.wr, c.rdwr,
                     kernel.flops_per_it,
                     _num(t.minimum.bytes_per_it), _num(t.lcf_wa.bytes_per_it),
                     _num(t.lcb.bytes_per_it), _num(t.maximum.bytes_per_it),
                     balance.classify(c)])
    _emit_table(["kernel", "arrays", "rd_lcf", "rd_lcb", "wr", "rdwr",
                 "flops_it", "min", "lcf_wa", "lcb", "max", "class"],
                rows, args.csv)
    return EXIT_OK


def _parse_policy(args) -> cachesim.WritePolicySim:
    if args.claim_buffer is not None:
        if args.claim_buffer < 1:
            raise InputError("--claim-buffer must be >= 1")
        if args.policy in ("always", "nt", "claim-inactive"):
            print(f"note: --claim-buffer has no effect under --policy {args.policy}",
                  file=sys.stderr)
    if args.policy == "nt":
        return cachesim.NtBypass()
    if args.policy == "claim":
        return cachesim.AutoClaim(args.claim_buffer or cachesim.AutoClaim.buffer_lines)
    return cachesim.AlwaysAllocate()    # claim-inactive replays as always


def _check_tolerance(tolerance: float):
    # NaN compares false both ways, so it fails the check too
    if not 0 <= tolerance < math.inf:
        raise InputError(f"--tolerance must be a finite number >= 0, not {tolerance:g}")


def _sim_levels(machine: MachineModel, mode: str) -> list[cachesim.CacheLevelConfig]:
    """The one level replayed: a process's effective cache, or the L3 alone
    (the levels above it never change the memory traffic)."""
    cap = (int(machine.effective_cache_per_process(1)) // LINE_BYTES * LINE_BYTES
           if mode == "effective" else machine.cache_l3)
    return [cachesim.CacheLevelConfig(capacity=cap)]


def cmd_simulate(args) -> int:
    if args.grid < 1:
        raise InputError("--grid must be >= 1")
    if args.dump_trace and not args.kernel:
        raise InputError("--dump-trace needs --kernel")
    _check_tolerance(args.tolerance)
    suite = load_suite(args.suite)
    machine = load_machine(args.machine)
    policy = _parse_policy(args)
    levels = _sim_levels(machine, args.cache_mode)
    names = [args.kernel] if args.kernel else list(suite.kernels)
    unknown = [n for n in names if n not in suite.kernels]
    if unknown:
        raise InputError(f"unknown kernel(s): {', '.join(unknown)}")

    rows = []
    worst = 0.0
    for name in names:
        kernel = suite.kernels[name]
        grid = kernel.grid.resized(args.grid, args.grid)
        table = balance.scenario_table(kernel)
        # evasion policies are checked against the no-allocate floor, the rest
        # against the fulfilled-LC + write-allocate scenario
        ref = (table.minimum if cachesim.evades(policy) else table.lcf_wa).bytes_per_it
        sim = cachesim.simulate_kernel(kernel, grid, levels, policy).bytes_per_it
        delta = (sim - ref) / ref * 100
        worst = max(worst, abs(delta))
        rows.append([name, _num(ref), f"{sim:.3f}", f"{delta:+.2f}%"])
        if args.dump_trace:
            cachesim.dump_trace(cachesim.gen_trace(kernel, grid), args.dump_trace)
    _emit_table(["kernel", "model", "simulated", "delta"], rows, args.csv)
    if args.check and worst > args.tolerance:
        print(f"check failed: worst delta {worst:.2f}% > {args.tolerance:g}%",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_replay(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    machine = load_machine(args.machine)
    levels = _sim_levels(machine, args.cache_mode)
    policy = _parse_policy(args)
    t = cachesim.simulate(cachesim.load_trace(path), levels, policy,
                          access_bytes=args.access_bytes)
    print(f"read_bytes={t.read_bytes} write_bytes={t.write_bytes} "
          f"wa_avoided_bytes={t.wa_avoided_bytes}")
    return EXIT_OK


def _parse_int_range(spec: str, minimum: int, what: str,
                     example: str) -> range | list[int]:
    """`lo..hi` as a lazy range (no list of its values is built) or a
    comma-separated list; `example` shows the caller's kind of values."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            lo, hi = int(lo), int(hi)
            if lo < minimum or hi < lo:
                raise ValueError
            return range(lo, hi + 1)
        values = [int(p) for p in spec.split(",")]
        if any(v < minimum for v in values):
            raise ValueError
        return values
    except ValueError:
        raise InputError(f"bad {what} range {spec!r}; use e.g. {example}")


def _csv_row(fields) -> str:
    """One row as ``csv.writer`` writes it: quoted where needed, CRLF-ended."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()


def cmd_prime_sweep(args) -> int:
    suite = load_suite(args.suite)
    machine = load_machine(args.machine)
    ranks = _parse_int_range(args.ranks, 1, "rank", "1..72 or 8,19,72")
    policy = balance.wa_policy(args.wa, machine)
    # all kernels are priced before any row is written, so a failing one leaves
    # no partial output; one write, as a write per row to a pipe is costly
    sweeps = decomp.predict_rank_sweep(suite, ranks, machine, policy)
    # every sweep has the same rank column, and the same prime column, as
    # px == p at a prime on every grid that fits; both are read rather than
    # `ranks`, a lazy range of up to 10**12 counts that an empty suite never
    # walks. Every row shares the two ends, which keeps the peak memory at
    # the row-by-row writer's
    p_fields = [f"{p}," for p in sweeps[0].ranks.tolist()] if sweeps else []
    ends = [",1\r\n" if prime else ",0\r\n"
            for prime in sweeps[0].prime.tolist()] if sweeps else []
    # one .4f per distinct value of the whole sweep, grouped by bit pattern,
    # so -0.0 and 0.0 stay apart as they would formatted one by one (the
    # leading empty array lets an empty suite concatenate)
    bits, inverse = np.unique(np.concatenate(
        [np.empty(0), *(sweep.bytes_per_it for sweep in sweeps)]).view(np.uint64),
        return_inverse=True)
    text = np.array([f"{b:.4f}" for b in bits.view(np.float64).tolist()], dtype=object)
    n = len(p_fields)
    rows = [_csv_row(["kernel", "p", "bytes_per_it", "prime"])]
    for i, kernel in enumerate(suite):
        # one kernel's text at a time, from its own cells only: a table of all
        # of them raises the peak. Slice assignment lays out the four fields
        # of its rows without a Python step per field
        fields = [_csv_row([kernel.name, ""]).removesuffix("\r\n")] * (4 * n)  # "<name>,"
        fields[1::4] = p_fields
        fields[2::4] = text[inverse[i * n:(i + 1) * n]].tolist()
        fields[3::4] = ends
        rows.append("".join(fields))
    del inverse     # one int64 a cell; gone before the joined text is built
    sys.stdout.write("".join(rows))
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_tolerance(args.tolerance)
    suite = load_suite(args.suite)
    machine = load_machine(args.machine)
    records = read_measurements(args.measurements)
    no_evasion = frozenset(args.no_evasion.split(",")) if args.no_evasion else frozenset()
    unknown = sorted(no_evasion - suite.kernels.keys())
    if unknown:
        raise InputError(f"--no-evasion: not a kernel of the suite: "
                         f"{', '.join(map(repr, unknown))}")
    if no_evasion and args.scenario not in balance.EVADING:
        print(f"note: --no-evasion has no effect under scenario {args.scenario!r}, "
              f"which does not evade", file=sys.stderr)
    rows = []
    errs = []
    for rec in records:
        if rec.kernel not in suite.kernels:
            raise InputError(f"{args.measurements}: kernel {rec.kernel!r} "
                             f"not in suite")
        model = balance.scenario_balance(suite.kernels[rec.kernel], args.scenario,
                                         machine, rec.kernel not in no_evasion)
        measured = rec.bytes_per_it
        err = (model - measured) / measured * 100
        errs.append(abs(err))
        rows.append([rec.kernel, rec.ranks, f"{measured:.2f}", _num(round(model, 3)),
                     f"{err:+.2f}%"])
    _emit_table(["kernel", "ranks", "measured", "model", "error"], rows, args.csv)
    if not errs:
        print("no measurements")
        return EXIT_OK
    mean_err = sum(errs) / len(errs)
    print(f"mean absolute error: {mean_err:.2f}%  (max {max(errs):.2f}%, "
          f"n={len(errs)}, scenario={args.scenario})")
    if args.check and mean_err > args.tolerance:
        print(f"check failed: mean absolute error {mean_err:.2f}% > "
              f"{args.tolerance:g}%", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_store_ratio(args) -> int:
    if args.streams < 1 or args.streams > 8:
        raise InputError("--streams must be in 1..8")
    ratio = cachesim.store_ratio(args.streams, args.volume, _parse_policy(args))
    print(f"{ratio:.4f}")
    return EXIT_OK


def cmd_halo_copy(args) -> int:
    if args.inner < 1:
        raise InputError("--inner must be >= 1")
    halos = _parse_int_range(str(args.halo), 0, "halo", "0..17 or 0,3,8")
    policy = _parse_policy(args)
    rows = []
    for halo in halos:
        ratio = cachesim.halo_copy_experiment(args.inner, halo, args.volume, policy)
        rows.append([args.inner, halo, f"{ratio:.4f}"])
    _emit_table(["inner", "halo", "read_write_ratio"], rows, args.csv)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _add_policy_args(p, default="always"):
    p.add_argument("--policy", choices=["always", "nt", "claim", "claim-inactive"],
                   default=default, help="simulator write policy")
    p.add_argument("--claim-buffer", type=int, help=f"claim detector window in "
                   f"lines (default {cachesim.AutoClaim.buffer_lines})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stencilmem",
        description="Memory-traffic models and cache simulation for stencil loops")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stream counts and balance bounds per kernel")
    p.add_argument("suite")
    p.add_argument("machine")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("simulate", help="simulated balance vs. the analytic model")
    p.add_argument("suite")
    p.add_argument("machine")
    p.add_argument("--grid", type=int, default=1024, help="square grid extent")
    p.add_argument("--cache-mode", choices=["effective", "levels"],
                   default="effective")
    _add_policy_args(p)
    p.add_argument("--kernel", help="run a single kernel")
    p.add_argument("--dump-trace", help="write the kernel trace (needs --kernel)")
    p.add_argument("--check", action="store_true")
    p.add_argument("--tolerance", type=float, default=2.0,
                   help="max |delta| percent for --check")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("replay", help="replay a dumped binary trace")
    p.add_argument("trace")
    p.add_argument("machine")
    p.add_argument("--cache-mode", choices=["effective", "levels"],
                   default="effective")
    p.add_argument("--access-bytes", type=int, default=8)
    _add_policy_args(p)

    p = sub.add_parser("prime-sweep",
                       help="predicted balance per rank count (CSV on stdout)")
    p.add_argument("suite")
    p.add_argument("machine")
    p.add_argument("--ranks", default="1..72", help="e.g. 1..72 or 8,19,71,72")
    p.add_argument("--wa", choices=list(balance.WA_MODELS),
                   default="speci2m", help="write-allocate model for the sweep")

    p = sub.add_parser("compare", help="model vs. measurement CSV")
    p.add_argument("suite")
    p.add_argument("machine")
    p.add_argument("measurements")
    p.add_argument("--scenario", choices=list(balance.SCENARIOS), default="lcf-wa")
    p.add_argument("--no-evasion", default="",
                   help="comma list of kernels where hardware evasion is known "
                        "not to engage (modelled as full write-allocate)")
    p.add_argument("--check", action="store_true")
    p.add_argument("--tolerance", type=float, default=10.0,
                   help="max mean absolute error percent for --check")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("store-ratio", help="n-stream store benchmark ratio")
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--volume", type=int, default=8 * 1024 * 1024)
    _add_policy_args(p)

    p = sub.add_parser("halo-copy", help="strip-mined copy read/write ratio")
    p.add_argument("--inner", type=int, default=216)
    p.add_argument("--halo", default="0..17", help="halo elements, e.g. 3 or 0..17")
    p.add_argument("--volume", type=int, default=4 * 1024 * 1024)
    _add_policy_args(p, default="claim")
    p.add_argument("--csv", action="store_true")

    return parser


# built once, on import; a call pays only for its own command
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # looked up when called, so a cmd_* replaced after import is the one run
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        rc = command(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:     # an OSError, so it must come first
        # the reader is gone; point stdout at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (InputError, ValueError, OSError) as exc:  # KernelError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
