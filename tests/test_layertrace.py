"""The benchmark's layer tracer still finds every function it wraps.

`bench/layertrace.py` names functions of the package by module and name and
replaces every binding of each while a trace runs.  Deleting or renaming one
of them breaks `bench/run.py --trace 1`, which the tier-1 suite does not
run; this test loads the tracer by path and enters and leaves it once.  The
bindings that `bench/test_bench.py` reads directly are checked as well, and
so are the `LPResult` fields the tracer's `solve_lp` counters read.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import types

import nervecert.cli  # noqa: F401  (the tracer wraps cli functions too)

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "bench_layertrace", os.path.join(BENCH_DIR, "layertrace.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute and function default of every package module."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "nervecert" or name.startswith("nervecert.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, types.FunctionType):
                out[name, attr, "__defaults__"] = value.__defaults__
    return out


def test_every_traced_layer_resolves_and_is_restored():
    layertrace = _load_layertrace()
    originals = {
        (layer, name): getattr(sys.modules[f"nervecert.{layer}"], name)
        for layer, names in layertrace.LAYERS.items()
        for name in names
    }
    before = _bindings()
    with layertrace.LayerTrace():
        for (layer, name), original in originals.items():
            traced = getattr(sys.modules[f"nervecert.{layer}"], name)
            assert traced.__wrapped__ is original, f"{layer}.{name}"
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, changed


def test_bindings_the_bench_tests_read_exist():
    from nervecert import certificates, cli, convex, nerve, witness

    assert callable(convex.solve_lp)
    for module in (witness, cli, certificates):
        assert module.hulls_intersect is convex.hulls_intersect, module.__name__
    assert nerve.nerve_matches.__defaults__[0] is nerve.nerve_helly


def test_the_tracer_reads_the_hull_lp_results():
    # `_on_linprog_solve_lp` reads the status, x and objective of `LPResult`.
    from nervecert import convex

    layertrace = _load_layertrace()
    with layertrace.LayerTrace() as trace:
        assert convex.hulls_intersect([(0, 0), (1, 1)], [(0, 1), (1, 0)])
        assert not convex.hulls_intersect([(0, 0), (1, 0)], [(0, 1), (1, 1)])
    metrics = trace.metrics()
    assert metrics["convex.hulls_intersect.calls"] == 2
    assert metrics["convex.hulls_intersect.hits"] == 1
    assert metrics["linprog.solve_lp.calls"] == 2
    assert metrics["linprog.solve_lp.infeasible"] == 1
    assert metrics["linprog.solve_lp.max_bits"] >= 1
