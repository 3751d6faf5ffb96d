#!/usr/bin/env python3
"""Record the golden simulator outputs the benchmark checks against.

    python3 bench/make_golden.py

Runs every simulator operation of ``stencil-sweep`` and ``store-copy`` once,
at both sizes and with every round-trip kernel a seed can pick, and writes
each operation's ``MemTraffic`` (and its float result, where it returns one)
to ``bench/golden.json``. The criterion-1 table in that file is published
data and is kept as it is. Record the goldens only from a commit whose
simulator output is known good: the benchmark then requires bit-identical
matches.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def record(size: str, trace_path: Path) -> dict:
    import tracing
    import workloads
    suite, machines = workloads.load_inputs()
    ops = (workloads.stencil_ops(suite, size, {})
           + workloads.store_copy_ops(suite, machines, size, {},
                                      sorted(suite.kernels), trace_path))
    capture = tracing.Capture()
    patch = tracing.Patch(capture.wrappers(False, tracing.public_functions()))
    out = {}
    try:
        for op in ops:
            capture.reset()
            value = op.call()
            out[op.key] = {
                "traffic": [workloads.traffic_tuple(t) for t in capture.traffic],
                "value": value if isinstance(value, float) else None}
    finally:
        patch.restore()
    return out


def dumps(obj, depth=0) -> str:
    """JSON with one line per operation record, so diffs stay readable."""
    if isinstance(obj, dict) and depth <= 2:
        pad = " " * (depth + 1)
        items = [f"{pad}{json.dumps(k)}: {dumps(v, depth + 1)}"
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    return json.dumps(obj, sort_keys=True)


def main() -> int:
    run.import_package()
    golden = run.load_golden()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        golden["traffic"] = {size: record(size, Path(tmp) / "trace.bin")
                             for size in ("full", "tiny")}
    run.GOLDEN.write_text(dumps(golden) + "\n")
    print(f"wrote {run.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
