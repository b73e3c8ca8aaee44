"""The entry points the benchmark's tracer wraps still exist.

perfbench/tracer.py rebinds barloop functions and methods by module
attribute and reads work counters off their results.  This test loads
the tracer from its file, installs it, and checks that every entry it
names resolves and that a chains call and a bar call are counted, both
read through the window's hi and rank, so that a renamed or moved entry
point or window member fails here rather than only in the slow benchmark
test.  Nothing under perfbench/ is changed.
"""

import importlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = (
    "cli", "monoids", "rewrite", "simplicial", "dgcoalg", "exactlin",
    "weqcheck", "barcobar", "loopgroup",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_every_entry_point_and_counts_chains():
    for name in MODULES:
        importlib.import_module(f"barloop.{name}")
    tracing = _load_tracer()
    dgcoalg = sys.modules["barloop.dgcoalg"]
    barcobar = sys.modules["barloop.barcobar"]
    originals = dgcoalg.chains, barcobar.bar
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, _ in tracing.FUNCTIONS:
            assert hasattr(getattr(sys.modules[module], attr), "__wrapped__")
        for module, cls_name, method, _, _ in tracing.METHODS:
            cls = getattr(sys.modules[module], cls_name)
            assert hasattr(cls.__dict__[method], "__wrapped__")
        simplicial = sys.modules["barloop.simplicial"]
        monoids = sys.modules["barloop.monoids"]
        z3 = monoids.FiniteMonoid.cyclic(3)
        dgcoalg.chains(simplicial.nerve(z3), 3)
        barcobar.bar(monoids.monoid_algebra(z3), 3)
        _, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert counts["dgcoalg.chains_cells"] == 1 + 2 + 4 + 8
    assert counts["barcobar.bar_cells"] == 1 + 2 + 4 + 8
    assert (dgcoalg.chains, barcobar.bar) == originals
