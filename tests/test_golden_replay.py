"""Bit-identical replay: one sha256 over the traffic of a fixed matrix.

The matrix crosses every write policy with seeded random traces through
one to three fully associative cache levels (upper levels smaller and
larger than the last) at access sizes 1, 4 and 8 bytes, and with the 22
suite kernels at 40x20 under one level and under three levels. Any change
to the replay engine must leave the hash alone. A change that means to
alter simulated traffic re-records it with
``PYTHONPATH=src python tests/test_golden_replay.py`` and says why.
"""

import hashlib
import random

import numpy as np

from stencilmem.cachesim import (
    TRACE_DTYPE,
    AlwaysAllocate,
    AutoClaim,
    CacheLevelConfig,
    NtBypass,
    simulate,
    simulate_kernel,
)
from stencilmem.kernels import data_path, load_suite

LINE = 64
# AlwaysAllocate() twice: the fourth entry was once an inactive claim
# detector, which replayed as it, and the hash keeps its rows
POLICIES = (AlwaysAllocate(), AutoClaim(), AutoClaim(buffer_lines=2),
            AlwaysAllocate(), NtBypass(), NtBypass(combine_buffers=1))
# lines per level, first level first
TRACE_HIERARCHIES = ((16,), (4, 16), (32, 16), (4, 8, 16))
KERNEL_HIERARCHIES = ((48,), (8, 24, 48))
ACCESS_SIZES = (1, 4, 8)
TRACE_EVENTS = 2000
SPAN_LINES = 40
SEED = 20231


def levels(spec):
    return [CacheLevelConfig(capacity=n * LINE) for n in spec]


def random_trace(rng: random.Random, access_bytes: int) -> np.ndarray:
    """Scattered reads and writes mixed with whole-line and partial-line
    write sweeps, so that claims complete, age out and get read back."""
    elems = LINE // access_bytes
    events = []
    while len(events) < TRACE_EVENTS:
        line = rng.randrange(SPAN_LINES) * LINE
        kind = rng.randrange(4)
        if kind == 0:
            events.append((line + rng.randrange(elems) * access_bytes,
                           rng.randrange(2)))
        else:
            count = elems if kind == 1 else rng.randrange(1, elems + 1)
            first = rng.randrange(elems - count + 1)
            events += [(line + (first + i) * access_bytes, 1) for i in range(count)]
    return np.array(events[:TRACE_EVENTS], dtype=TRACE_DTYPE)


def traffic_matrix() -> list[tuple[int, int, int]]:
    rng = random.Random(SEED)
    out = []
    for access_bytes in ACCESS_SIZES:
        trace = random_trace(rng, access_bytes)
        for spec in TRACE_HIERARCHIES:
            for policy in POLICIES:
                t = simulate([trace], levels(spec), policy, access_bytes)
                out.append((t.read_bytes, t.write_bytes, t.wa_avoided_bytes))
    suite = load_suite(data_path("cloverleaf_tiny.json"))
    for kernel in suite:
        grid = kernel.arrays[0].grid.resized(40, 20)
        for spec in KERNEL_HIERARCHIES:
            for policy in POLICIES:
                t = simulate_kernel(kernel, grid, levels(spec), policy)
                out.append((t.read_bytes, t.write_bytes, t.wa_avoided_bytes))
    return out


def traffic_sha256() -> str:
    return hashlib.sha256(repr(traffic_matrix()).encode()).hexdigest()


GOLDEN = '493e477b8a0a8b49c9c3c666ffe897306e843ea6af449843306e3816c4d8a0be'


def test_replay_traffic_unchanged():
    assert traffic_sha256() == GOLDEN


if __name__ == "__main__":
    print(f"GOLDEN = {traffic_sha256()!r}")
