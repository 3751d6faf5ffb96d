"""The benchmark under ``bench/`` calls the package through module attributes
(``cachesim.simulate_kernel``) and names the public functions it traces as
``module.function`` strings. This test reads those names from the benchmark
sources and checks that each still exists, so a change that deletes or moves
one fails here, in well under a second, rather than in a benchmark run.
"""

import ast
import inspect
from pathlib import Path

import pytest

from stencilmem import balance, cachesim, cli, decomp, kernels, roofline

BENCH = Path(__file__).parents[1] / "bench"
MODULES = {"kernels": kernels, "balance": balance, "cachesim": cachesim,
           "decomp": decomp, "roofline": roofline, "cli": cli}
# Totals methods of bench/run.py that take a traced function's span name
SPAN_LOOKUPS = {"incl", "mean_us", "self_time"}


def bench_names() -> tuple[set[tuple[str, str]], set[str]]:
    """(module, attribute) pairs the benchmark reads, and the
    ``module.function`` names it looks up among the traced functions."""
    attributes, traced = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                attributes.add((node.value.id, node.attr))
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "originals"):
                key = node.slice
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    traced.add(key.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in SPAN_LOOKUPS and node.args):
                arg = node.args[0]
                if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        and "*" not in arg.value):
                    traced.add(arg.value)
    return attributes, traced


ATTRIBUTES, TRACED = bench_names()


def test_bench_sources_are_read():
    assert ("cachesim", "simulate_kernel") in ATTRIBUTES
    assert "cachesim.gen_trace_blocks" in TRACED


@pytest.mark.parametrize("module, name", sorted(ATTRIBUTES),
                         ids=[f"{m}.{n}" for m, n in sorted(ATTRIBUTES)])
def test_attribute_exists(module, name):
    assert hasattr(MODULES[module], name)


@pytest.mark.parametrize("qualname", sorted(TRACED))
def test_traced_function_is_public_in_its_module(qualname):
    # bench/tracing.py wraps only public functions a module defines itself
    module, name = qualname.split(".")
    fn = getattr(MODULES[module], name, None)
    assert inspect.isfunction(fn) and not name.startswith("_")
    assert fn.__module__ == MODULES[module].__name__


def test_claim_detector_reads_as_active():
    # bench/workloads.policy_tag reads this one instance attribute to tag a
    # replay as "claim"; it is a class constant, no longer a field
    assert cachesim.AutoClaim().active is True
