#!/usr/bin/env python3
"""stencilmem benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload stencil-sweep --seed 1 --seconds 20 --trace 0

A run repeats the workload's fixed operation list ("a pass") until
``--seconds`` have passed, and between passes measures the set-up in fresh
interpreters. Each operation starts when the previous one has finished. Every
output is checked in every pass. The first pass is the census: it counts
events and runs and is not timed. Between operations a fixed calibration
loop samples the host's speed, and ``wall_s`` and ``setup_s`` are scaled
by it. With
``--trace 1`` untraced passes take turns with traced passes, which record a
span for every call into a public function of the six modules, and the run
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(machine facts, counts, every metric, failures) is printed above it and
written to ``.bench_out/`` in the checkout, together with the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
SETUP_PROBES = 11       # fresh interpreters per run; setup_s is their median
TRACED_SETUPS = 5       # in-process set-ups under tracing, for load times
MIN_PASSES = 3
CAL_EVERY = 0.1         # seconds between two samples of the host's speed
# what `calibrate` takes on the reference host, a quiet 2-vCPU x86-64 VM with
# Python 3.11; `wall_s` and `setup_s` are scaled to that host's speed
CAL_REF_S = 0.003

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cachesim.replay.always.runs_per_s": "1/s",
    "cachesim.replay.claim.runs_per_s": "1/s",
    "cachesim.replay.nt.runs_per_s": "1/s",
    "cachesim.replay.levels.runs_per_s": "1/s",
    "cachesim.replay.self_s": "s",
    "cachesim.gen.events_per_s": "1/s",
    "cachesim.dump_trace.events_per_s": "1/s",
    "cachesim.load_trace.events_per_s": "1/s",
    "cachesim.store_ratio.s": "s",
    "cachesim.halo_copy.s": "s",
    "cachesim.read_lines": "count",
    "cachesim.write_lines": "count",
    "cachesim.wa_avoided_lines": "count",
    "cachesim.events": "count",
    "cachesim.runs": "count",
    "cachesim.events_per_run": "ratio",
    "cachesim.claim.evaded_fraction": "ratio",
    "cachesim.self_s": "s",
    "kernels.load_suite.ms": "ms",
    "kernels.derive_stream_counts.calls": "count",
    "kernels.derive_stream_counts.us": "us",
    "kernels.self_ms": "ms",
    "balance.scenario_table.calls": "count",
    "balance.scenario_table.us": "us",
    "balance.layer_condition.calls": "count",
    "balance.layer_condition.us": "us",
    "balance.self_ms": "ms",
    "decomp.predict_rank_sweep.us_per_pred": "us",
    "decomp.decompose.calls": "count",
    "decomp.self_ms": "ms",
    "roofline.load_machine.ms": "ms",
    "roofline.kernel_runtime.us": "us",
    "roofline.self_ms": "ms",
    "cli.analyze.ms": "ms",
    "cli.prime-sweep.ms": "ms",
    "cli.compare.ms": "ms",
    "cli.self_ms": "ms",
    "oracle_max_delta_pct": "%",
    "ref_mean_err_pct": "%",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_pct": "%",
    "trace.spans": "count",
}
# printed and recorded, but not in the result line: each applies to only some
# workloads, and the result line carries every metric on every workload
REPORT_ONLY = {"events_per_s": "1/s", "predictions_per_s": "1/s",
               "failed_ratio": "ratio", "host_wall_s": "s",
               "host_setup_s": "s", "calibration_ms": "ms"}


def import_package():
    """Import ``stencilmem`` from this checkout's ``src``, and nothing else."""
    pkg = ROOT / "src" / "stencilmem"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run the benchmark from the "
                         f"root of a stencilmem checkout")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import stencilmem
    if Path(stencilmem.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported stencilmem from {stencilmem.__file__}, "
                         f"not from {pkg}")


def load_golden(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text())


def setup_probe(args) -> int:
    """Everything a run does before its first operation, in this interpreter."""
    import_package()
    import workloads
    workloads.build(args.workload, args.size, args.seed, load_golden(),
                    OUT_DIR / "trace.bin")
    return 0


_CAL_KEYS = [(i * 7919) % 3001 for i in range(3001)]
_CAL_LRU = OrderedDict.fromkeys(range(3001))


def calibrate() -> float:
    """Seconds for a fixed loop of LRU updates that uses no stencilmem code.

    It allocates nothing, so sampling it between operations does not slow
    them down (a version that built its own arrays cost the stencil sweep
    15%).
    """
    move = _CAL_LRU.move_to_end
    t0 = time.perf_counter()
    for _ in range(20):
        for key in _CAL_KEYS:
            move(key)
    return time.perf_counter() - t0


class SetupProbes:
    """Fresh interpreters that each do a run's whole set-up.

    The run spreads them between its passes: the machine's speed changes
    over seconds, and probes taken back to back would all land in one spell.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--size", args.size]
        self.times: list[float] = []
        self.failures: list[str] = []

    def done(self) -> bool:
        return len(self.times) + len(self.failures) >= SETUP_PROBES

    def one(self):
        if self.done():
            return
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            self.failures.append("setup probe took over 60 s")
            return
        self.times.append(time.perf_counter() - t0)
        if proc.returncode:
            self.failures.append(f"setup probe exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")


class Runner:
    """Runs passes over one workload and keeps what the metrics need."""

    def __init__(self, workload, tracing):
        self.wl = workload
        self.tracing = tracing
        self.originals = tracing.public_functions()
        self.capture = tracing.Capture()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict = {}       # op key -> last observation
        self.census: dict = {}         # op key -> (events, runs, traffic)
        self.cal: list[float] = []     # calibrate() times during timed passes
        self.last_cal = time.perf_counter()

    def run_pass(self, wrappers, census=False) -> float:
        patch = self.tracing.Patch(wrappers)
        elapsed = 0.0
        try:
            for op in self.wl.ops:
                self.capture.reset()
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # an operation that raises fails
                    elapsed += time.perf_counter() - t0
                    self._fail([f"{op.key}: {type(exc).__name__}: {exc}"])
                    continue
                elapsed += time.perf_counter() - t0
                if not census:
                    self.sample_speed()
                try:
                    problems, obs = op.check(out, self.capture.traffic)
                except Exception as exc:
                    problems, obs = [f"{op.key}: check raised {exc!r}"], None
                if problems:
                    self._fail(problems)
                self.observed[op.key] = obs
                if census:
                    self.census[op.key] = (self.capture.events, self.capture.runs,
                                           list(self.capture.traffic))
        finally:
            patch.restore()
        return elapsed

    def sample_speed(self):
        """Time `calibrate` once every CAL_EVERY seconds, between operations."""
        if time.perf_counter() - self.last_cal >= CAL_EVERY:
            self.cal.append(calibrate())
            self.last_cal = time.perf_counter()

    def _fail(self, problems):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.extend(problems[:2])

    def passes(self, seconds, modes, between) -> list[list[tuple]]:
        """(pass time, mean calibration time in that pass) per wrapper set;
        the sets take turns, so a slow spell of the machine hits each of them
        alike. `between` runs before each turn, outside the timed
        operations."""
        times = [[] for _ in modes]
        t_end = time.perf_counter() + seconds
        while len(times[0]) < MIN_PASSES or time.perf_counter() < t_end:
            between()
            for out, wrappers in zip(times, modes):
                n0 = len(self.cal)
                elapsed = self.run_pass(wrappers)
                if len(self.cal) == n0:     # a pass shorter than CAL_EVERY
                    self.cal.append(calibrate())
                out.append((elapsed, statistics.mean(self.cal[n0:])))
        return times


def scaled_mean(passes) -> float:
    """Mean pass time, each pass scaled to the reference host's speed."""
    return statistics.mean(t * CAL_REF_S / c for t, c in passes)


def census_counts(runner, line_bytes) -> dict:
    """Per-pass simulator counts, summed over operations; and per replay tag."""
    c = {"events": 0, "runs": 0, "read": 0, "write": 0, "avoided": 0,
         "claim_write": 0, "claim_avoided": 0, "tag_runs": {},
         "roundtrip_events": 0}
    for op in runner.wl.ops:
        events, runs, traffic = runner.census.get(op.key, (0, 0, []))
        c["events"] += events
        c["runs"] += runs
        if op.replay:
            c["tag_runs"][op.replay] = c["tag_runs"].get(op.replay, 0) + runs
        if op.replay == "levels":
            c["roundtrip_events"] += events
        for t in traffic:
            c["read"] += t.read_bytes // line_bytes
            c["write"] += t.write_bytes // line_bytes
            c["avoided"] += t.wa_avoided_bytes // line_bytes
            if op.replay == "claim":
                c["claim_write"] += t.write_bytes // line_bytes
                c["claim_avoided"] += t.wa_avoided_bytes // line_bytes
    c["predictions"] = sum(op.predictions for op in runner.wl.ops)
    c["sweep_predictions"] = sum(op.predictions for op in runner.wl.ops
                                 if op.key.startswith("prime-sweep/"))
    return c


def accuracy(runner, refs) -> dict:
    """Model error against the simulator and against the reference CSVs."""
    out = {}
    deltas = {k: abs(runner.observed[k].bytes_per_it - ref) / ref * 100
              for k, ref in refs.items() if runner.observed.get(k) is not None}
    if deltas:
        worst = max(deltas, key=deltas.get)
        out["oracle_max_delta_pct"] = deltas[worst]
        runner.wl.facts["oracle_worst_op"] = worst
    errors = [e for op in runner.wl.ops if op.key.startswith("compare/")
              for e in (runner.observed.get(op.key) or [])]
    if errors:
        out["ref_mean_err_pct"] = sum(errors) / len(errors)
    return out


def _rate(work, per):
    """work / per, and 0 where the workload did none of it."""
    return work / per if per > 0 else 0.0


def layer_metrics(tot, setup_tot, n, counts, traced_wall, untraced_wall,
                  op_seconds) -> dict:
    """Per-layer metrics from the span totals of `n` traced passes."""
    sweep_preds = counts["sweep_predictions"] * n
    m = {f"cachesim.replay.{tag}.runs_per_s":
         _rate(counts["tag_runs"].get(tag, 0) * n,
               tot.self_time(f"cachesim.simulate*:{tag}"))
         for tag in ("always", "claim", "nt", "levels")}
    m.update({
        "cachesim.replay.self_s": tot.self_time("cachesim.simulate*") / n,
        "cachesim.gen.events_per_s": _rate(
            counts["events"] * n, tot.incl("cachesim.gen_trace_blocks")),
        "cachesim.dump_trace.events_per_s": _rate(
            counts["roundtrip_events"] * n, tot.self_time("cachesim.dump_trace")),
        "cachesim.load_trace.events_per_s": _rate(
            counts["roundtrip_events"] * n, tot.incl("cachesim.load_trace")),
        "cachesim.store_ratio.s": tot.incl("cachesim.store_ratio") / n,
        "cachesim.halo_copy.s": tot.incl("cachesim.halo_copy_experiment") / n,
        "cachesim.read_lines": counts["read"],
        "cachesim.write_lines": counts["write"],
        "cachesim.wa_avoided_lines": counts["avoided"],
        "cachesim.events": counts["events"],
        "cachesim.runs": counts["runs"],
        "cachesim.events_per_run": _rate(counts["events"], counts["runs"]),
        "cachesim.claim.evaded_fraction": _rate(counts["claim_avoided"],
                                                counts["claim_write"]),
        "cachesim.self_s": tot.self_time("cachesim.*") / n,
        "kernels.load_suite.ms": setup_tot.median_ms("kernels.load_suite"),
        "kernels.derive_stream_counts.calls":
            tot.calls("kernels.derive_stream_counts") / n,
        "kernels.derive_stream_counts.us": tot.mean_us("kernels.derive_stream_counts"),
        "kernels.self_ms": tot.self_time("kernels.*") / n * 1e3,
        "balance.scenario_table.calls": tot.calls("balance.scenario_table") / n,
        "balance.scenario_table.us": tot.mean_us("balance.scenario_table"),
        "balance.layer_condition.calls": tot.calls("balance.layer_condition") / n,
        "balance.layer_condition.us": tot.mean_us("balance.layer_condition"),
        "balance.self_ms": tot.self_time("balance.*") / n * 1e3,
        "decomp.predict_rank_sweep.us_per_pred":
            _rate(tot.incl("decomp.predict_rank_sweep") * 1e6, sweep_preds),
        "decomp.decompose.calls": tot.calls("decomp.decompose") / n,
        "decomp.self_ms": tot.self_time("decomp.*") / n * 1e3,
        "roofline.load_machine.ms": setup_tot.median_ms("roofline.load_machine"),
        "roofline.kernel_runtime.us": tot.mean_us("roofline.kernel_runtime"),
        "roofline.self_ms": tot.self_time("roofline.*") / n * 1e3,
        **{f"cli.{cmd}.ms": tot.mean_us(f"cli.main:{cmd}") / 1e3
           for cmd in ("analyze", "prime-sweep", "compare")},
        "cli.self_ms": tot.self_time("cli.*") / n * 1e3,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage_pct": _rate(tot.top * 100, op_seconds),
        "trace.spans": tot.count / n,
    })
    return m


def run(args, golden: dict) -> dict:
    """One benchmark run; returns the full record."""
    OUT_DIR.mkdir(exist_ok=True)
    import_package()
    import numpy
    import tracing
    import workloads

    trace_path = OUT_DIR / f"trace-{os.getpid()}.bin"
    wl = workloads.build(args.workload, args.size, args.seed, golden, trace_path)
    refs = workloads.oracle_refs(wl.ops)
    runner = Runner(wl, tracing)
    probes = SetupProbes(args)

    capture_only = runner.capture.wrappers(False, runner.originals)
    try:
        runner.run_pass(runner.capture.wrappers(True, runner.originals), census=True)
        traced, rec, setup_rec = [], None, None
        if not args.trace:
            untraced, = runner.passes(args.seconds, [capture_only], probes.one)
        else:
            rec = tracing.Recorder()
            untraced, traced = runner.passes(
                args.seconds, [capture_only, rec.wrappers(runner.originals,
                                                          runner.capture)],
                probes.one)
            setup_rec = tracing.Recorder()
            for _ in range(TRACED_SETUPS):
                patch = tracing.Patch(setup_rec.wrappers(runner.originals,
                                                         runner.capture))
                try:
                    workloads.build(args.workload, args.size, args.seed, golden,
                                    trace_path)
                finally:
                    patch.restore()
    finally:
        trace_path.unlink(missing_ok=True)
    while not probes.done():
        probes.one()
    runner.attempted += SETUP_PROBES
    runner.failed += len(probes.failures)
    runner.failures.extend(probes.failures[:5])

    counts = census_counts(runner, workloads.LINE_BYTES)
    # the mean, not the median, of the pass times: the host switches between
    # a fast and a slow spell for seconds at a time, and a median jumps
    # between the two where a mean follows the share of each. The calibration
    # loop, sampled through each pass, measures the host's speed in it;
    # scaling by it removes the drift of that speed within and across runs.
    speed = CAL_REF_S / statistics.mean(runner.cal)
    host_wall = statistics.mean(t for t, _ in untraced)
    wall = scaled_mean(untraced)
    report = {
        "wall_s": wall,
        "host_wall_s": host_wall,
        "calibration_ms": statistics.mean(runner.cal) * 1e3,
        "setup_s": statistics.median(probes.times) * speed,
        "host_setup_s": statistics.median(probes.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": runner.failed / runner.attempted,
    }
    if counts["events"]:
        report["events_per_s"] = counts["events"] / wall
    if counts["predictions"]:
        report["predictions_per_s"] = counts["predictions"] / wall
    report.update(accuracy(runner, refs))

    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        tot = tracing.SpanTotals(rec)
        layer = layer_metrics(tot, tracing.SpanTotals(setup_rec), len(traced),
                              counts, scaled_mean(traced), wall,
                              sum(t for t, _ in traced))
        layer["oracle_max_delta_pct"] = report.get("oracle_max_delta_pct", 0.0)
        layer["ref_mean_err_pct"] = report.get("ref_mean_err_pct", 0.0)
        rec.save(OUT_DIR / f"spans-{tag}.npz")
        setup_rec.save(OUT_DIR / f"spans-setup-{tag}.npz")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": report[k], "unit": u} for k, u in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace,
        "facts": {"nproc": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy.__version__, "platform": platform.platform(),
                  "repeats": len(untraced), "traced_repeats": len(traced),
                  "setup_probes": len(probes.times), "ops_per_pass": len(wl.ops),
                  "events_per_pass": counts["events"],
                  "runs_per_pass": counts["runs"],
                  "predictions_per_pass": counts["predictions"], **wl.facts},
        "report": {k: {"value": v, "unit": {**END_TO_END, **REPORT_ONLY,
                                            **PER_LAYER}[k]}
                   for k, v in report.items()},
        "pass_seconds": [t for t, _ in untraced],
        "pass_calibration_seconds": [c for _, c in untraced],
        "traced_pass_seconds": [t for t, _ in traced],
        "setup_seconds": probes.times,
        "calibration_seconds": runner.cal,
        "failures": runner.failures,
        "result": {"correct": runner.failed == 0, "attempted": runner.attempted,
                   "failed": runner.failed, "metrics": metrics},
    }
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="stencil-sweep, store-copy or model-sweep")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="picks the operation order and the store-copy "
                        "round-trip kernel")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few-second run for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         f"from {', '.join(workloads.WORKLOADS)}")
    record = run(args, load_golden())
    for name, m in record["report"].items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
