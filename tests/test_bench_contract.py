"""The entry points the benchmark's tracer wraps still exist.

perfbench/tracer.py rebinds barloop functions and methods by module
attribute and reads work counters off their results.  This test loads
the tracer from its file, installs it, and checks that every entry it
names resolves and that a chains call and a bar call are counted, both
read through the window's hi and rank, and that one completion is
counted through the wrapped ``complete`` and ``RewriteSystem.normal_form``,
so that a renamed or moved entry point or window member, or a normal
form that bypasses the wrapped method, fails here rather than only in
the slow benchmark test.  Nothing under perfbench/ is changed.
"""

import contextlib
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


def _import_barloop():
    """The barloop modules the tracer wraps, by short name."""
    return {name: importlib.import_module(f"barloop.{name}")
            for name in MODULES}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@contextlib.contextmanager
def _tracing():
    """The tracer module and an installed Tracer, uninstalled on exit."""
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracing, tracer
    finally:
        tracer.uninstall()


def test_tracer_wraps_every_entry_point_and_counts_chains():
    bl = _import_barloop()
    dgcoalg, barcobar = bl["dgcoalg"], bl["barcobar"]
    originals = dgcoalg.chains, barcobar.bar
    with _tracing() as (tracing, tracer):
        for module, attr, _ in tracing.FUNCTIONS:
            assert hasattr(getattr(sys.modules[module], attr), "__wrapped__")
        for module, cls_name, method, _, _ in tracing.METHODS:
            cls = getattr(sys.modules[module], cls_name)
            assert hasattr(cls.__dict__[method], "__wrapped__")
        z3 = bl["monoids"].FiniteMonoid.cyclic(3)
        dgcoalg.chains(bl["simplicial"].nerve(z3), 3)
        barcobar.bar(bl["monoids"].monoid_algebra(z3), 3)
        _, counts = tracer.take()
    assert counts["dgcoalg.chains_cells"] == 1 + 2 + 4 + 8
    assert counts["barcobar.bar_cells"] == 1 + 2 + 4 + 8
    assert (dgcoalg.chains, barcobar.bar) == originals


def test_tracer_counts_the_work_of_one_completion():
    """Completing Z[Z/4] from its table takes 58 steps, each one normal
    form through the wrapped method, and keeps 9 rules."""
    bl = _import_barloop()
    monoids, rewrite = bl["monoids"], bl["rewrite"]
    with _tracing() as (_, tracer):
        z4 = monoids.FiniteMonoid.cyclic(4)
        assert rewrite.complete(monoids.monoid_algebra(z4)).complete
        _, counts = tracer.take()
    assert {k: v for k, v in counts.items() if k.startswith("rewrite.")} == {
        "rewrite.complete_calls": 1,
        "rewrite.steps": 58,
        "rewrite.rules": 9,
        "rewrite.normal_form_calls": 58,
    }
