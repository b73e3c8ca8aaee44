"""Span recorder for the traced run, built from the benchmark's files only.

``Tracer.install`` wraps barloop's public entry points without touching
the package source.  A module-level function is wrapped by rebinding its
name in every loaded barloop module that holds it, so calls through
``from .x import f`` see the wrapper too; a few methods are wrapped at
class level.  ``uninstall`` restores every original binding.

Each call becomes one span: (operation id, span id, parent span id, name,
start, end, self time, status).  Self time is the span's duration minus
the durations of its child spans, and the bookkeeping a child does after
its own clock stops is charged to no span.  Spans stay in memory until
the benchmark writes them out at the end of the run.  Work counters
(matrix sizes, rewrite steps, words enumerated, ...) are read off the
arguments and results at the same boundaries; they are deterministic.
"""

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


def _nnz(matrix):
    return sum(len(row) - row.count(0) for row in matrix.to_rows())


def _count_snf(counts, args, kwargs, result, exc, parent):
    m = args[0] if args else kwargs["m"]
    counts["exactlin.snf_calls"] += 1
    counts["exactlin.snf_entries"] += m.rows * m.cols
    counts["exactlin.snf_nnz"] += _nnz(m)
    counts["exactlin.snf_max_dim"] = max(
        counts["exactlin.snf_max_dim"], m.rows, m.cols
    )


def _window_cells(window):
    return sum(window.rank(n) for n in range(window.hi + 1))


def _count_chains(counts, args, kwargs, result, exc, parent):
    if exc is None:
        counts["dgcoalg.chains_cells"] += _window_cells(result)


def _count_simplices(counts, args, kwargs, result, exc, parent):
    # Nested enumerations (a quotient asks its base) count once.
    if exc is None and parent != "simplicial.n_simplices":
        counts["simplicial.simplices"] += len(result)


def _count_basis(counts, args, kwargs, result, exc, parent):
    if exc is None:
        counts["rewrite.basis_words"] += len(result)
    elif type(exc).__name__ == "CapExceeded":
        counts["rewrite.cap_hits"] += 1


def _count_complete(counts, args, kwargs, result, exc, parent):
    if exc is None:
        counts["rewrite.complete_calls"] += 1
        counts["rewrite.steps"] += result.steps_used
        counts["rewrite.rules"] += len(result.rules)


def _count_normal_form(counts, args, kwargs, result, exc, parent):
    counts["rewrite.normal_form_calls"] += 1


def _count_group_completion(counts, args, kwargs, result, exc, parent):
    if exc is None and type(result).__name__ == "Exhausted":
        counts["monoids.exhausted"] += 1


def _count_bar(counts, args, kwargs, result, exc, parent):
    if exc is None:
        counts["barcobar.bar_cells"] += _window_cells(result)


def _count_kan(counts, args, kwargs, result, exc, parent):
    if exc is None:
        counts["loopgroup.kan_generators"] += sum(lv.rank() for lv in result)


# (module, function, counter) for module-level functions; the span is
# named "<module>.<function>" without the "barloop." prefix.
FUNCTIONS = [
    ("barloop.exactlin.core", "smith_normal_form", _count_snf),
    ("barloop.exactlin.core", "homology_window", None),
    ("barloop.exactlin.core", "mapping_cone", None),
    ("barloop.dgcoalg", "chains", _count_chains),
    ("barloop.dgcoalg", "nerve_chains_map", None),
    ("barloop.dgcoalg", "cone_quasi_iso_window", None),
    ("barloop.rewrite", "complete", _count_complete),
    ("barloop.rewrite", "basis_in_degree", _count_basis),
    ("barloop.monoids", "group_completion", _count_group_completion),
    ("barloop.barcobar", "bar", _count_bar),
    ("barloop.barcobar", "cobar", None),
    ("barloop.barcobar", "extended_cobar", None),
    ("barloop.barcobar", "nerve_bar_iso_check", None),
    ("barloop.barcobar", "unit_check", None),
    ("barloop.barcobar", "counit_check", None),
    ("barloop.loopgroup", "kan_loop_group", _count_kan),
    ("barloop.loopgroup", "h0_compare", None),
    ("barloop.weqcheck", "weq_verdict", None),
    ("barloop.cli", "run", None),
]

# (module, class, method, span name, counter) wrapped at class level.
METHODS = [
    ("barloop.rewrite", "RewriteSystem", "normal_form",
     "rewrite.RewriteSystem.normal_form", _count_normal_form),
    ("barloop.dgcoalg", "CoalgebraMap", "validate",
     "dgcoalg.CoalgebraMap.validate", None),
]

# Every simplicial-set class that defines n_simplices gets one span name.
SIMPLICES_MODULE = "barloop.simplicial"


def _span_name(module, attr):
    short = module.split(".")[1]
    return f"{short}.{attr}"


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording -------------------------------------------------------------

    def _call(self, name, fn, counter, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, 0.0, name]
        self._next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._finish(name, frame, parent, start, counter, args, kwargs,
                         None, exc)
            raise
        self._finish(name, frame, parent, start, counter, args, kwargs,
                     result, None)
        return result

    def _finish(self, name, frame, parent, start, counter, args, kwargs,
                result, exc):
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        parent_id = parent[0] if parent else None
        status = "ok" if exc is None else type(exc).__name__
        self.spans.append(
            (self.op, frame[0], parent_id, name, start, end,
             duration - frame[1], status)
        )
        if counter is not None:
            parent_name = parent[2] if parent else None
            counter(self.counts, args, kwargs, result, exc, parent_name)
        if parent is not None:
            parent[1] += perf_counter() - start

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, counter, args, kwargs)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the timed entry points of the loaded barloop modules."""
        loaded = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "barloop" or key.startswith("barloop.")
        ]
        for module, attr, counter in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(_span_name(module, attr), original, counter)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        for module, cls_name, method, name, counter in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._patch(cls, method,
                        self._wrap(name, cls.__dict__[method], counter))
        simplicial = sys.modules[SIMPLICES_MODULE]
        for _, cls in inspect.getmembers(simplicial, inspect.isclass):
            if cls.__module__ == SIMPLICES_MODULE and "n_simplices" in vars(cls):
                self._patch(cls, "n_simplices", self._wrap(
                    "simplicial.n_simplices", vars(cls)["n_simplices"],
                    _count_simplices,
                ))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self):
        """Spans and counters recorded since the last take."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(int)
        return spans, counts


# Per-layer times: metric -> span names whose self times it sums.
SELF_TIMES = {
    "exactlin.snf_s": ("exactlin.smith_normal_form",),
    "exactlin.homology_self_s": ("exactlin.homology_window",),
    "exactlin.cone_s": ("exactlin.mapping_cone",),
    "dgcoalg.chains_s": ("dgcoalg.chains",),
    "dgcoalg.nerve_map_s": ("dgcoalg.nerve_chains_map",),
    "dgcoalg.map_validate_s": ("dgcoalg.CoalgebraMap.validate",),
    "dgcoalg.cone_check_self_s": ("dgcoalg.cone_quasi_iso_window",),
    "simplicial.n_simplices_s": ("simplicial.n_simplices",),
    "rewrite.basis_s": ("rewrite.basis_in_degree",),
    "rewrite.complete_s": ("rewrite.complete",),
    "rewrite.normal_form_s": ("rewrite.RewriteSystem.normal_form",),
    "monoids.group_completion_s": ("monoids.group_completion",),
    "barcobar.bar_s": ("barcobar.bar",),
    "barcobar.cobar_s": ("barcobar.cobar", "barcobar.extended_cobar"),
    "barcobar.iso_check_self_s": ("barcobar.nerve_bar_iso_check",),
    "barcobar.unit_check_self_s": ("barcobar.unit_check",),
    "barcobar.counit_check_self_s": ("barcobar.counit_check",),
    "loopgroup.kan_s": ("loopgroup.kan_loop_group",),
    "loopgroup.h0_compare_s": ("loopgroup.h0_compare",),
    "weqcheck.weq_self_s": ("weqcheck.weq_verdict",),
    "cli.self_s": ("cli.run",),
}

COUNTERS = [
    "exactlin.snf_calls",
    "exactlin.snf_entries",
    "exactlin.snf_nnz",
    "exactlin.snf_max_dim",
    "dgcoalg.chains_cells",
    "simplicial.simplices",
    "rewrite.basis_words",
    "rewrite.cap_hits",
    "rewrite.complete_calls",
    "rewrite.steps",
    "rewrite.rules",
    "rewrite.normal_form_calls",
    "monoids.exhausted",
    "barcobar.bar_cells",
    "loopgroup.kan_generators",
]


def layer_metrics(spans, counts):
    """Per-layer self times and counters of one traced pass."""
    self_by_name = defaultdict(float)
    cap_hit_s = 0.0
    for _, _, _, name, _, _, self_s, status in spans:
        self_by_name[name] += self_s
        if name == "rewrite.basis_in_degree" and status == "CapExceeded":
            cap_hit_s += self_s
    out = {
        metric: sum(self_by_name[n] for n in names)
        for metric, names in SELF_TIMES.items()
    }
    out["rewrite.cap_hit_s"] = cap_hit_s
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    steps = out["rewrite.steps"]
    out["rewrite.rules_per_step"] = out["rewrite.rules"] / steps if steps else 0.0
    return out
