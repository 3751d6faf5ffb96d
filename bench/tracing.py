"""Wrappers around the public functions of the six ``stencilmem`` modules.

The benchmark never edits the package. For a pass it replaces module
attributes with wrappers and puts the originals back afterwards. Every
module that imported a function by name (``cli`` -> ``load_suite``,
``decomp`` -> ``layer_condition``) gets the same wrapper, so calls between
the modules are seen too.

Two kinds of wrapper exist:

* capture wrappers, installed in every pass, keep the ``MemTraffic`` each
  simulator call returns (the golden check needs it) and, in the census
  pass, count the events and cache-line runs of every generated trace block;
* span wrappers, installed only in traced passes, record (name, start, end,
  parent) for every call into a public function.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import itertools
import json
import time
from array import array
from pathlib import Path

import numpy as np

import stencilmem
from stencilmem import balance, cachesim, cli, decomp, kernels, roofline
from workloads import LINE_BYTES, policy_tag

MODULES = {"kernels": kernels, "balance": balance, "cachesim": cachesim,
           "decomp": decomp, "roofline": roofline, "cli": cli}
LINE_SHIFT = np.uint64(LINE_BYTES.bit_length() - 1)
# items pulled from a per-event generator per span; trace blocks come one at
# a time
EVENT_BATCH = 4096
SIMULATORS = ("simulate_kernel", "simulate")


def public_functions() -> dict[str, object]:
    """``module.function`` -> function, for every public function defined in
    the six modules."""
    out = {}
    for mname, mod in MODULES.items():
        for name, fn in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                out[f"{mname}.{name}"] = fn
    return out


class Patch:
    """Replace functions by wrappers in every package module holding them."""

    def __init__(self, wrappers: dict[int, object]):
        # keyed by id() of the original function: module namespaces also hold
        # unhashable values
        self.undo = []
        for mod in (stencilmem, *MODULES.values()):
            for name, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self.undo.append((mod, name, val))
                    setattr(mod, name, w)

    def restore(self):
        for mod, name, val in reversed(self.undo):
            setattr(mod, name, val)
        self.undo = []


class Capture:
    """Simulator results of the current operation, plus the census counts."""

    def __init__(self):
        self.traffic: list = []
        self.events = 0
        self.runs = 0

    def reset(self):
        self.traffic = []
        self.events = self.runs = 0

    def wrap_simulator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = fn(*args, **kwargs)
            self.traffic.append(t)
            return t
        return wrapper

    def wrap_counting(self, fn):
        """Count events and runs (consecutive events on one cache line) of
        every trace block a generator yields."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            last = None
            for addrs, writes in fn(*args, **kwargs):
                if addrs.size:
                    lines = addrs >> LINE_SHIFT
                    self.events += int(addrs.size)
                    self.runs += int(np.count_nonzero(lines[1:] != lines[:-1]))
                    self.runs += int(lines[0] != last)
                    last = lines[-1]
                yield addrs, writes
        return wrapper

    def wrappers(self, census: bool, originals: dict[str, object]) -> dict:
        w = {id(originals[f"cachesim.{n}"]):
             self.wrap_simulator(originals[f"cachesim.{n}"]) for n in SIMULATORS}
        if census:
            fn = originals["cachesim.gen_trace_blocks"]
            w[id(fn)] = self.wrap_counting(fn)
        return w


def _replay_tag(sig, args, kwargs) -> str:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return policy_tag(bound.arguments["policy"], list(bound.arguments["levels"]))


class Recorder:
    """Spans kept in memory as parallel arrays, written out at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, qualname: str, fn, capture: Capture):
        if qualname in (f"cachesim.{n}" for n in SIMULATORS):
            sig = inspect.signature(fn)
            inner = capture.wrap_simulator(fn)
            return self._span(inner, lambda a, k: self.name_id(
                f"{qualname}:{_replay_tag(sig, a, k)}"))
        if qualname == "cli.main":
            return self._span(fn, lambda a, k: self.name_id(
                f"cli.main:{(a[0] if a else k.get('argv'))[0]}"))
        nid = self.name_id(qualname)
        if inspect.isgeneratorfunction(fn):
            batch = 1 if qualname == "cachesim.gen_trace_blocks" else EVENT_BATCH
            return self._generator(fn, nid, batch)
        return self._span(fn, lambda a, k: nid)

    def _span(self, fn, name_of):
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(name_of(args, kwargs))
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
        return wrapper

    def _generator(self, fn, nid, batch):
        """Time each pull of `batch` items; the consumer's span is the parent."""
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def pull():
                while True:
                    i = len(start)
                    name.append(nid)
                    parent.append(stack[-1])
                    start.append(0)
                    end.append(0)
                    stack.append(i)
                    t0 = clock()
                    try:
                        chunk = list(itertools.islice(it, batch))
                    finally:
                        end[i] = clock()
                        start[i] = t0
                        stack.pop()
                    yield from chunk
                    if len(chunk) < batch:
                        return
            return pull()
        return wrapper

    def wrappers(self, originals: dict[str, object], capture: Capture) -> dict:
        return {id(fn): self.wrap(q, fn, capture) for q, fn in originals.items()}

    def arrays(self):
        """(name ids, parents, durations in ns) as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32), end - start)

    def save(self, path: Path):
        np.savez_compressed(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 names=np.array(json.dumps(self.names)))


class SpanTotals:
    """Per-name aggregates of one recorder. Methods take ``fnmatch`` patterns
    over span names; times are in seconds unless the name says otherwise."""

    def __init__(self, rec: Recorder):
        name, parent, dur = rec.arrays()
        n = len(rec.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self.names = rec.names
        self._calls = np.bincount(name, minlength=n)
        self._incl = np.bincount(name, weights=dur, minlength=n) / 1e9
        self._self = np.bincount(name, weights=dur - child, minlength=n) / 1e9
        self.top = float(dur[~has_parent].sum()) / 1e9
        self.count = int(dur.size)
        self._name = name
        self._dur = dur

    def _ids(self, pattern) -> list[int]:
        return [i for i, nm in enumerate(self.names) if fnmatch.fnmatchcase(nm, pattern)]

    def calls(self, pattern) -> int:
        return int(sum(self._calls[i] for i in self._ids(pattern)))

    def incl(self, pattern) -> float:
        return float(sum(self._incl[i] for i in self._ids(pattern)))

    def self_time(self, pattern) -> float:
        """Span time not covered by child spans."""
        return float(sum(self._self[i] for i in self._ids(pattern)))

    def mean_us(self, pattern) -> float:
        calls = self.calls(pattern)
        return self.incl(pattern) / calls * 1e6 if calls else 0.0

    def median_ms(self, pattern) -> float:
        durs = self._dur[np.isin(self._name, self._ids(pattern))]
        return float(np.median(durs)) / 1e6 if durs.size else 0.0
