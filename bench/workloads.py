"""Inputs, operation lists and output checks of the three benchmark workloads.

Every operation is one call into the public API of ``stencilmem``. Each call
goes through a module attribute (``cachesim.simulate_kernel(...)``) that is
looked up when the operation runs, so the wrappers that ``tracing`` installs
see the call.

Cache capacities, grids and event budgets are derived here from quantities
the benchmark owns (grid rows, row bytes, access counts), never from
``balance.layer_condition`` or ``MachineModel.effective_cache_per_process``:
a later change to the model must not silently change the workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from stencilmem import balance, cachesim, cli, kernels, roofline

WORKLOADS = ("stencil-sweep", "store-copy", "model-sweep")

LINE_BYTES = 64
MACHINES = ("icx_8360y.json", "spr_8480p.json")
WA_CHOICES = ("full", "none", "speci2m", "nt-speci2m")
# reference CSV -> the scenario it was measured under
REFERENCE_RUNS = (("clv_tiny_rank1.csv", "lcf-wa"),
                  ("clv_tiny_rank72.csv", "speci2m"),
                  ("clv_tiny_rank72_nt.csv", "nt-speci2m"))

# "full" is what the benchmark measures; "tiny" runs every workload in a few
# seconds for the self-test.
SIZES = {
    "full": dict(grid=128, store_volume=256 * 1024, halo_volume=128 * 1024,
                 roundtrip_width=128, roundtrip_events=200_000,
                 ranks="1..360", cores=(1, 9, 18, 36, 72)),
    "tiny": dict(grid=16, store_volume=16 * 1024, halo_volume=16 * 1024,
                 roundtrip_width=16, roundtrip_events=4_000,
                 ranks="1..12", cores=(1, 72)),
}
STORE_STREAMS = range(1, 9)
HALO_INNER = 216
HALOS = range(18)


@dataclass
class Op:
    """One benchmark operation and the check of its output.

    ``check(output, traffic)`` gets the call's return value and every
    ``MemTraffic`` the simulator produced during the call; it returns a list
    of problems (empty when correct) and an observation for the metrics.
    """

    key: str
    call: Callable[[], Any]
    check: Callable[[Any, list], tuple[list[str], Any]]
    replay: str | None = None       # replay span tag: always, claim, nt, levels
    predictions: int = 0
    oracle: tuple | None = None     # (kernel, ScenarioTable field) to compare with


@dataclass
class Workload:
    ops: list[Op]
    facts: dict     # inputs the seed or size chose, for the result record


def policy_tag(policy, levels) -> str:
    """Replay class of one simulator call: the write policy, or ``levels``."""
    if len(levels) > 1:
        return "levels"
    if isinstance(policy, cachesim.NtBypass):
        return "nt"
    if isinstance(policy, cachesim.AutoClaim) and policy.active:
        return "claim"
    return "always"


def row_streams(kernel) -> int:
    """Distinct (array, row offset) pairs the kernel touches, reads and writes."""
    return len({(a.array.name, a.dk) for a in kernel.accesses})


def lc_hold_cache(kernel, grid) -> int:
    """Twice every row the kernel touches: row reuse survives a whole sweep."""
    row_bytes = grid.row_stride * grid.element_size
    return -(-2 * row_streams(kernel) * row_bytes // LINE_BYTES) * LINE_BYTES


def lc_break_cache(grid) -> int:
    """The largest whole-line cache smaller than one grid row."""
    return max(LINE_BYTES, (grid.row_stride * grid.element_size - 1)
               // LINE_BYTES * LINE_BYTES)


def traffic_tuple(t) -> list[int]:
    return [t.read_bytes, t.write_bytes, t.wa_avoided_bytes, t.iterations]


def _golden_problems(key, golden, value, traffic) -> list[str]:
    want = golden.get(key)
    if want is None:
        return [f"{key}: no golden record"]
    problems = []
    got = [traffic_tuple(t) for t in traffic]
    if got != want["traffic"]:
        problems.append(f"{key}: traffic {got} != golden {want['traffic']}")
    if want.get("value") is not None and value != want["value"]:
        problems.append(f"{key}: value {value!r} != golden {want['value']!r}")
    return problems


def load_inputs():
    """Suite and both machines, as every workload's set-up loads them."""
    suite = kernels.load_suite(kernels.data_path("cloverleaf_tiny.json"))
    machines = {m: roofline.load_machine(kernels.data_path(m)) for m in MACHINES}
    return suite, machines


# -- stencil-sweep --------------------------------------------------------------


def stencil_ops(suite, size, golden) -> list[Op]:
    n = SIZES[size]["grid"]
    ops = []
    for kernel in suite:
        grid = kernel.arrays[0].grid.resized(n, n)
        hold = [cachesim.CacheLevelConfig(lc_hold_cache(kernel, grid))]
        broken = [cachesim.CacheLevelConfig(lc_break_cache(grid))]
        runs = (("always", hold, cachesim.AlwaysAllocate(), "lcf_wa"),
                ("claim", hold, cachesim.AutoClaim(), "minimum"),
                ("nt", hold, cachesim.NtBypass(), "minimum"),
                ("always-lcb", broken, cachesim.AlwaysAllocate(), None))
        for mode, levels, policy, scenario in runs:
            key = f"{kernel.name}/{mode}"
            ops.append(Op(
                key=key,
                call=lambda k=kernel, g=grid, lv=levels, p=policy:
                    cachesim.simulate_kernel(k, g, lv, p),
                check=_stencil_check(key, golden),
                replay=policy_tag(policy, levels),
                oracle=(kernel, scenario) if scenario else None))
    return ops


def _stencil_check(key, golden):
    def check(out, traffic):
        problems = _golden_problems(key, golden, None, traffic)
        if traffic and out is not traffic[-1]:
            problems.append(f"{key}: returned value is not the simulated traffic")
        return problems, out
    return check


def oracle_refs(ops) -> dict[str, float]:
    """Analytic bytes/iteration each LC-holding stencil operation should meet."""
    return {op.key: getattr(balance.scenario_table(op.oracle[0]),
                            op.oracle[1]).bytes_per_it
            for op in ops if op.oracle}


# -- store-copy -----------------------------------------------------------------


def store_copy_ops(suite, machines, size, golden, roundtrip_kernels,
                   trace_path: Path) -> list[Op]:
    cfg = SIZES[size]
    policies = (("always", cachesim.AlwaysAllocate()), ("nt", cachesim.NtBypass()),
                ("claim", cachesim.AutoClaim()))
    ops = []
    for streams in STORE_STREAMS:
        for label, policy in policies:
            key = f"store_ratio/{streams}/{label}"
            ops.append(Op(
                key=key,
                call=lambda s=streams, p=policy:
                    cachesim.store_ratio(s, cfg["store_volume"], p),
                check=_value_check(key, golden), replay=label))
    for halo in HALOS:
        key = f"halo_copy/{halo}"
        ops.append(Op(
            key=key,
            call=lambda h=halo: cachesim.halo_copy_experiment(
                HALO_INNER, h, cfg["halo_volume"], cachesim.AutoClaim()),
            check=_value_check(key, golden), replay="claim"))
    icx = machines[MACHINES[0]]
    levels = [cachesim.CacheLevelConfig(capacity=icx.cache_l1),
              cachesim.CacheLevelConfig(capacity=icx.cache_l2),
              cachesim.CacheLevelConfig(capacity=icx.cache_l3)]
    for name in roundtrip_kernels:
        kernel = suite.kernels[name]
        width = cfg["roundtrip_width"]
        # a fixed event budget, so every kernel the seed may pick costs about
        # the same
        rows = max(1, round(cfg["roundtrip_events"] / (width * len(kernel.accesses))))
        grid = kernel.arrays[0].grid.resized(width, rows)
        events = width * rows * len(kernel.accesses)
        key = f"roundtrip/{name}"
        ops.append(Op(
            key=key,
            call=lambda k=kernel, g=grid: _roundtrip(k, g, levels, trace_path),
            check=_roundtrip_check(key, golden, events), replay="levels"))
    return ops


def _roundtrip(kernel, grid, levels, path: Path):
    """dump_trace -> load_trace -> simulate, as ``simulate --dump-trace`` and
    ``replay`` do it."""
    cachesim.dump_trace(cachesim.gen_trace(kernel, grid), path)
    traffic = cachesim.simulate(cachesim.load_trace(path), levels,
                                cachesim.AlwaysAllocate(),
                                access_bytes=grid.element_size)
    return traffic, path.stat().st_size


def _value_check(key, golden):
    def check(out, traffic):
        return _golden_problems(key, golden, out, traffic), out
    return check


def _roundtrip_check(key, golden, events):
    def check(out, traffic):
        t, nbytes = out
        problems = _golden_problems(key, golden, None, traffic)
        if nbytes != events * cachesim.TRACE_DTYPE.itemsize:
            problems.append(f"{key}: trace file holds {nbytes} bytes, "
                            f"expected {events} records")
        return problems, t
    return check


# -- model-sweep ----------------------------------------------------------------


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def parse_ranks(spec: str) -> list[int]:
    lo, hi = spec.split("..")
    return list(range(int(lo), int(hi) + 1))


def _table_rows(text: str) -> list[list[str]]:
    """Body rows of a ``cli._emit_table`` text table (after the dashed rule)."""
    lines = text.splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if l.startswith("---")) + 1
    except StopIteration:
        return []
    rows = []
    for line in lines[start:]:
        if not line.strip() or line.startswith("mean absolute error"):
            break
        rows.append(line.split())
    return rows


def model_ops(suite, machines, size, criterion1) -> list[Op]:
    cfg = SIZES[size]
    suite_path = str(kernels.data_path("cloverleaf_tiny.json"))
    ranks = parse_ranks(cfg["ranks"])
    names = list(suite.kernels)
    ops = []
    for m in MACHINES:
        mpath = str(kernels.data_path(m))
        ops.append(Op(
            key=f"analyze/{m}",
            call=lambda mp=mpath: run_cli(["analyze", suite_path, mp]),
            check=_analyze_check(f"analyze/{m}", names, criterion1),
            predictions=4 * len(names)))
        for wa in WA_CHOICES:
            key = f"prime-sweep/{m}/{wa}"
            ops.append(Op(
                key=key,
                call=lambda mp=mpath, w=wa: run_cli(
                    ["prime-sweep", suite_path, mp, "--ranks", cfg["ranks"],
                     "--wa", w]),
                check=_sweep_check(key, suite, machines[m], wa, ranks),
                predictions=len(names) * len(ranks)))
    icx = str(kernels.data_path(MACHINES[0]))
    for csv_name, scenario in REFERENCE_RUNS:
        csv_path = kernels.data_path(f"reference/{csv_name}")
        expected = [r.kernel for r in cli.read_measurements(csv_path)]
        key = f"compare/{csv_name}"
        ops.append(Op(
            key=key,
            call=lambda c=str(csv_path), s=scenario: run_cli(
                ["compare", suite_path, icx, c, "--scenario", s]),
            check=_compare_check(key, expected),
            predictions=len(expected)))
    for m, machine in machines.items():
        for kernel in suite:
            key = f"kernel_runtime/{m}/{kernel.name}"
            ops.append(Op(
                key=key,
                call=lambda k=kernel, mc=machine: _runtimes(k, mc, cfg["cores"]),
                check=_runtime_check(key, len(cfg["cores"])),
                predictions=len(cfg["cores"])))
    return ops


def _runtimes(kernel, machine, cores):
    scenario = balance.scenario_table(kernel).lcf_wa
    grid = kernel.arrays[0].grid
    return [roofline.kernel_runtime(kernel, grid, machine, c, scenario)
            for c in cores]


def _analyze_check(key, names, criterion1):
    def check(out, _traffic):
        rc, text = out
        if rc != 0:
            return [f"{key}: exit code {rc}"], None
        rows = {r[0]: r for r in _table_rows(text)}
        problems = []
        if sorted(rows) != sorted(names):
            problems.append(f"{key}: kernels {sorted(rows)}")
        for name, row in rows.items():
            want = criterion1.get(name)
            try:
                got = [float(v) for v in row[1:11]]
            except ValueError:
                got = row[1:11]
            if want is None or got != want:
                problems.append(f"{key}: {name} {row[1:11]} != criterion-1 {want}")
        return problems, None
    return check


def plain_scenario(kernel, machine, wa) -> float:
    """LC-fulfilled balance under the sweep's WA choice: the rank-1 identity."""
    policy = {"full": balance.FULL_WA, "none": balance.NO_WA,
              "speci2m": balance.evasion(machine.speci2m_factor),
              "nt-speci2m": balance.nt_plus_evasion(machine.nt_factor,
                                                    machine.speci2m_factor)}[wa]
    return balance.code_balance(kernels.derive_stream_counts(kernel), True,
                                policy, kernels.element_size(kernel))


def _sweep_check(key, suite, machine, wa, ranks):
    # computed once while the workload is built, before any tracing
    rank1 = {k.name: f"{plain_scenario(k, machine, wa):.4f}" for k in suite}
    nrows = len(rank1) * len(ranks)

    def check(out, _traffic):
        rc, text = out
        if rc != 0:
            return [f"{key}: exit code {rc}"], None
        lines = text.splitlines()
        problems = []
        if not lines or lines[0] != "kernel,p,bytes_per_it,prime":
            problems.append(f"{key}: bad header")
        if len(lines) - 1 != nrows:
            problems.append(f"{key}: {len(lines) - 1} rows, expected {nrows}")
        for line in lines[1:]:
            name, p, value, _prime = line.split(",")
            if p == "1" and rank1.get(name) != value:
                problems.append(f"{key}: rank 1 of {name} is {value}, plain "
                                f"scenario {rank1.get(name)}")
        return problems, None
    return check


def _compare_check(key, expected):
    def check(out, _traffic):
        rc, text = out
        if rc != 0:
            return [f"{key}: exit code {rc}"], None
        rows = _table_rows(text)
        problems = []
        if [r[0] for r in rows] != expected:
            problems.append(f"{key}: rows {[r[0] for r in rows]} != {expected}")
        if "mean absolute error:" not in text:
            problems.append(f"{key}: no error summary")
        try:
            errors = [abs(float(r[4].rstrip("%"))) for r in rows]
        except (IndexError, ValueError):
            return problems + [f"{key}: unparsable error column"], None
        return problems, errors
    return check


def _runtime_check(key, n):
    def check(out, _traffic):
        ok = (len(out) == n and
              all(p.bound in ("memory", "core") and p.runtime is not None
                  and math.isfinite(p.runtime) and p.runtime > 0
                  and p.performance > 0 for p in out))
        return ([] if ok else [f"{key}: bad predictions {out}"]), None
    return check


# -- assembly -------------------------------------------------------------------


def build(name: str, size: str, seed: int, golden: dict,
          trace_path: Path) -> Workload:
    """Load the suite and machines and build one workload's operation list.

    The seed picks the round-trip kernel of ``store-copy`` and then shuffles
    the operation order. ``store-copy`` writes its trace file to `trace_path`.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    suite, machines = load_inputs()
    rng = random.Random(seed)
    traffic = golden.get("traffic", {}).get(size, {})
    facts = {}
    if name == "stencil-sweep":
        ops = stencil_ops(suite, size, traffic)
        facts["grid"] = SIZES[size]["grid"]
    elif name == "store-copy":
        picked = [rng.choice(sorted(suite.kernels))]
        ops = store_copy_ops(suite, machines, size, traffic, picked, trace_path)
        facts["roundtrip_kernel"] = ",".join(picked)
    else:
        ops = model_ops(suite, machines, size, golden.get("criterion1", {}))
        facts["ranks"] = SIZES[size]["ranks"]
    rng.shuffle(ops)
    return Workload(ops, facts)
