"""The chain layer builds only what its caller reads.

The Alexander-Whitney coproduct of a chain window is computed one degree
at a time, each time a caller walks it, and kept by no window; it must
equal, term for term and in order, the eager construction that walks
face_formal from the simplex for every front and back face.  Homology
callers and weq never trigger it, cobar walks each degree once, a weq
question builds each nerve's chain window once, and nerve_chains_map
maps between the windows it is given.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barloop import barcobar, cli, dgcoalg, weqcheck
from barloop.barcobar import (
    bar,
    cobar,
    counit_check,
    extended_cobar,
    unit_check,
)
from barloop.dgcoalg import DgCoalgebraWindow, chains, nerve_chains_map
from barloop.exactlin import ChainComplexWindow, basis_window, homology_window
from barloop.monoids import (
    FiniteMonoid,
    MonoidMap,
    monoid_algebra,
    random_monoid,
)
from barloop.rewrite import PresentedDgAlgebra
from barloop.simplicial import (
    FormalSimplex,
    NerveSimplicialSet,
    boundary_delta3,
    collapsed_boundary_delta3,
    minimal_sphere,
    nerve,
    rp2_model,
)
from barloop.weqcheck import weq_verdict
from checks import coproduct as all_degrees, holds_no_coproduct
from laws import validate_coalgebra
from quotient_oracle import QuotientSimplicialSet


def eager_chains(k, hi):
    """Oracle: the chain window and every degree's coproduct, built up
    front with each face reached by a separate walk of face_formal."""
    bases = [k.n_simplices(n) for n in range(hi + 1)]

    def boundary(n, sid, below):
        for i in range(n + 1):
            f = k.face(sid, i)
            if not f.word:
                yield below[f.base], (-1 if i % 2 else 1)

    def columns(n, below, bounds):
        return (boundary(n, sid, below) for sid in bases[n])

    comp = basis_window(bases, columns, str)
    index = comp.index

    coproduct = {}
    for n in range(hi + 1):
        per_degree = []
        for sid in bases[n]:
            terms = []
            for p in range(n + 1):
                front = FormalSimplex(sid, ())
                for m in range(n, p, -1):
                    front = k.face_formal(front, m)
                back = FormalSimplex(sid, ())
                for _ in range(p):
                    back = k.face_formal(back, 0)
                if front.word or back.word:
                    continue
                terms.append(
                    (p, index[p][front.base], index[n - p][back.base])
                )
            per_degree.append(terms)
        coproduct[n] = per_degree
    return comp, coproduct


def labels(window):
    return {
        n: [window.label(n, i) for i in range(window.rank(n))]
        for n in range(window.hi + 1)
    }


def assert_matches_eager(k, hi):
    c = chains(k, hi)
    comp, coproduct = eager_chains(k, hi)
    assert all_degrees(c) == coproduct
    assert c.complex.ranks == comp.ranks
    assert labels(c.complex) == labels(comp)
    for n in range(1, hi + 1):
        assert c.complex.boundary(n) == comp.boundary(n)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(seed=st.integers(0, 59), hi=st.integers(1, 5))
def test_chains_match_eager_oracle_on_random_nerves(seed, hi):
    assert_matches_eager(nerve(random_monoid(seed)), hi)


@pytest.mark.parametrize(
    "k",
    [
        minimal_sphere(1),
        minimal_sphere(2),
        minimal_sphere(3),
        rp2_model(),
        collapsed_boundary_delta3(),
        nerve(FiniteMonoid.cyclic(3)),
        # nerves whose faces repeat and cancel in the boundary
        nerve(FiniteMonoid.left_zero_with_unit(3)),
        nerve(FiniteMonoid.chain_of_idempotents(4)),
        nerve(FiniteMonoid.idempotent_pair()),
        # a front face nondegenerate where its back face is not
        QuotientSimplicialSet(
            boundary_delta3(), {"0", "1", "2", "3", "03", "13", "23"}
        ),
    ],
    ids=["sphere1", "sphere2", "sphere3", "rp2", "delta3-collapsed",
         "nerve-z3", "nerve-left-zero3", "nerve-idempotents4",
         "nerve-idempotent-pair", "delta3-collapsed-into-3"],
)
def test_chains_match_eager_oracle_on_fixed_sets(k):
    assert_matches_eager(k, 5)


def _record_coproduct_calls(monkeypatch, *modules):
    """Make the modules build their coalgebra windows with a coproduct
    function that records each degree it is asked for; returns that
    record and the windows built."""
    calls, windows = [], []

    class Recording(DgCoalgebraWindow):
        def __init__(self, comp, coproduct):
            def recorded(n):
                calls.append(n)
                return coproduct(n)

            super().__init__(comp, recorded)
            windows.append(self)

    for module in modules:
        monkeypatch.setattr(module, "DgCoalgebraWindow", Recording)
    return calls, windows


def test_homology_of_chains_builds_no_coproduct(monkeypatch):
    walked = []
    cut_rows = NerveSimplicialSet.cut_rows

    def counted(self, n, basis, index):
        walked.append(n)
        return cut_rows(self, n, basis, index)

    monkeypatch.setattr(NerveSimplicialSet, "cut_rows", counted)
    calls, _ = _record_coproduct_calls(monkeypatch, dgcoalg)
    c = chains(nerve(FiniteMonoid.cyclic(3)), 6)
    homology_window(c.complex)
    assert walked == [] and calls == []
    # a later law check reads every degree once, with one cut_rows call
    # per degree, and the window keeps none of it for the next reader
    assert validate_coalgebra(c).ok
    assert calls == list(range(7))
    assert walked == list(range(7))
    assert validate_coalgebra(c).ok
    assert calls == walked == list(range(7)) * 2


def test_homology_of_bar_builds_no_coproduct(monkeypatch):
    calls, _ = _record_coproduct_calls(monkeypatch, barcobar)
    w = bar(monoid_algebra(FiniteMonoid.cyclic(3)), 4)
    homology_window(w.complex)
    assert calls == []
    assert validate_coalgebra(w).ok
    assert calls == list(range(5))


def exterior_on_x():
    return PresentedDgAlgebra([("x", 1)], [({(0, 0): 1}, {})], {}, {0: 0})


@pytest.mark.parametrize(
    "build, degrees, count",
    [
        (lambda: cobar(chains(minimal_sphere(2), 6)), range(1, 7), 1),
        (lambda: cobar(chains(nerve(FiniteMonoid.cyclic(3)), 4)), range(1, 5), 1),
        (lambda: extended_cobar(minimal_sphere(1), 4), range(1, 5), 1),
        (lambda: extended_cobar(collapsed_boundary_delta3(), 3), range(1, 4), 1),
        # the bar window runs one degree above the counit's window
        (lambda: counit_check(exterior_on_x(), 5), range(1, 7), 1),
        # the unit reads the chains' coproduct, never its bar window's
        (lambda: unit_check(chains(minimal_sphere(2), 6)), range(1, 7), 2),
    ],
    ids=["cobar-sphere2", "cobar-z3", "extended-sphere1",
         "extended-delta3-collapsed", "counit-exterior", "unit-sphere2"],
)
def test_cobar_walks_each_coproduct_degree_once(
    monkeypatch, build, degrees, count
):
    """cobar, extended_cobar, counit_check and unit_check read each
    positive degree of one coalgebra window's coproduct in one walk, build
    `count` coalgebra windows, and no window holds any coproduct
    afterwards (unit_check builds the chains and their bar window)."""
    calls, windows = _record_coproduct_calls(monkeypatch, barcobar, dgcoalg)
    assert build()
    assert calls == list(degrees)
    assert len(windows) == count
    assert all(map(holds_no_coproduct, windows))


def _windows_built_by_weq(monkeypatch, f):
    built = []

    def counted(k, hi):
        built.append(hi)
        return chains(k, hi)

    monkeypatch.setattr(weqcheck, "chains", counted)
    verdict = weq_verdict(f, hi=3)
    assert verdict.kind == "certified-equivalent"
    return built


def test_weq_builds_each_nerve_chain_window_once(monkeypatch):
    f = MonoidMap.identity(FiniteMonoid.cyclic(3))
    assert _windows_built_by_weq(monkeypatch, f) == [3]


def test_weq_reuses_the_invariants_of_an_equal_target(monkeypatch):
    """An endomorphism's source and target are one monoid, also when the
    target is an equal copy; a collapse still builds both nerves."""
    z3, copy = FiniteMonoid.cyclic(3), FiniteMonoid.cyclic(3)
    assert copy is not z3 and copy == z3
    f = MonoidMap(z3, copy, [0, 1, 2])
    assert _windows_built_by_weq(monkeypatch, f) == [3]
    f = MonoidMap(FiniteMonoid.idempotent_pair(), FiniteMonoid.trivial(),
                  [0, 0])
    assert _windows_built_by_weq(monkeypatch, f) == [3, 3]


def test_homology_and_weq_commands_build_no_coproduct(monkeypatch, capsys):
    """homology rests on d∘d = 0 and weq on cone acyclicity; neither
    reads a coproduct."""
    calls, _ = _record_coproduct_calls(monkeypatch, dgcoalg)
    assert cli.run(["homology", "z3", "--window", "0..6"]) == 0
    capsys.readouterr()
    verdict = weq_verdict(MonoidMap.identity(FiniteMonoid.cyclic(3)), hi=3)
    assert verdict.kind == "certified-equivalent"
    assert calls == []


def test_weq_rejects_a_non_homomorphism(capsys):
    code = cli.run(["weq", "idempotent", "z2", "--images", "0,1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["error"] == {
        "kind": "invalid-input",
        "message": "f(b * b) does not match the product of images",
    }


def test_nerve_chains_map_needs_matching_windows_with_bases():
    z3 = FiniteMonoid.cyclic(3)
    f = MonoidMap.identity(z3)
    c3, c4 = chains(nerve(z3), 3), chains(nerve(z3), 4)
    with pytest.raises(ValueError, match="same degree"):
        nerve_chains_map(f, c3, c4)
    comp = c3.complex
    loaded = DgCoalgebraWindow(
        ChainComplexWindow(comp.hi, comp.ranks, comp.boundaries),
        all_degrees(c3).__getitem__,
    )
    assert loaded.complex.bases is None
    with pytest.raises(ValueError, match="keep their bases"):
        nerve_chains_map(f, loaded, c3)
    with pytest.raises(ValueError, match="keep their bases"):
        nerve_chains_map(f, c3, loaded)
    assert nerve_chains_map(f, c3, c3).validate().ok


def test_windows_name_basis_elements_only_when_read(monkeypatch):
    """Homology never names a basis element; cobar names each generator
    by the label function given to basis_window."""
    named = []

    def spying_basis_window(bases, boundary, label):
        def spy(b):
            named.append(b)
            return label(b)

        return basis_window(bases, boundary, spy)

    monkeypatch.setattr(dgcoalg, "basis_window", spying_basis_window)
    monkeypatch.setattr(barcobar, "basis_window", spying_basis_window)
    z3 = FiniteMonoid.cyclic(3)
    c = chains(nerve(z3), 6)
    homology_window(c.complex)
    homology_window(bar(monoid_algebra(z3), 4).complex)
    assert named == []
    om = cobar(c)
    tuples = [t for n in range(1, 7) for t in c.complex.bases[n]]
    assert [lbl for lbl, _ in om.generators] == [str(t) for t in tuples]
    assert named == tuples


def test_short_coproduct_fails_on_first_read():
    """A package reader sees a short degree as soon as it walks it."""
    c = chains(nerve(FiniteMonoid.cyclic(3)), 3)
    full = all_degrees(c)

    def short(n):
        return full[n][:-1] if n == 2 else full[n]

    w = DgCoalgebraWindow(c.complex, short)
    assert next(w.deltas(2)) == full[2][0]
    with pytest.raises(ValueError, match="missing columns in degree 2"):
        cobar(w)


@pytest.mark.parametrize("change", [-1, 1], ids=["fewer", "more"])
def test_streamed_coproduct_reads_check_the_rank(change):
    """deltas() must not end quietly where a builder yields too few or
    too many term lists; the check reads both windows through it with
    zip(strict=True)."""
    c = chains(nerve(FiniteMonoid.cyclic(3)), 3)
    full = all_degrees(c)

    def miscounted(n):
        terms = full[n]
        if n == 2:
            terms = terms[:-1] if change < 0 else terms + terms[:1]
        yield from terms

    w = DgCoalgebraWindow(c.complex, miscounted)
    assert list(w.deltas(1)) == full[1]
    with pytest.raises(ValueError, match="missing columns in degree 2"):
        list(w.deltas(2))
    assert holds_no_coproduct(w)

