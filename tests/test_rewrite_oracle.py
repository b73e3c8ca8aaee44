"""Completion and normal forms against the sorting versions they replaced.

``sorting_rewrite`` holds the previous ``complete`` and
``RewriteSystem.normal_form`` verbatim.  The current ones must give the
same rules (coefficient, left-hand side, right-hand side in insertion
order), ``steps_used``, completeness flag, normal forms (with their dict
order) and reduction traces.  Budgets stay at 200 or below and every
input is reduced mod m, because the old code runs away otherwise.

Also here: an oracle for completion at sizes the unit tests never reach
(the table presentation of a finite monoid is already confluent), and
the zero-coefficient inputs that made the old normal form loop forever.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sorting_rewrite as old
from barloop import rewrite
from barloop.barcobar import extended_cobar
from barloop.cli import _algebra_inputs
from barloop.loopgroup import pi1_presentation
from barloop.errors import BarloopError, CapExceeded
from barloop.monoids import (
    FiniteMonoid,
    MonoidPresentation,
    group_ring,
    monoid_algebra,
    random_monoid,
)
from barloop.rewrite import (
    PresentedDgAlgebra,
    adjoin_inverses,
    basis_in_degree,
    basis_size,
    complete,
    h0_ring,
    poly_iadd_term,
)
from barloop.weqcheck import bundled_complexes
from checks import poly

SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


def _rules(rsys):
    return [(r.coeff, r.lhs, list(r.rhs.items())) for r in rsys.rules]


def _random_poly(alg, rng, terms=4, length=5):
    """A polynomial reduced mod the modulus, with no zero term."""
    p = {}
    if not alg.generators:
        length = 0
    for _ in range(rng.randint(0, terms)):
        word = tuple(
            rng.randrange(len(alg.generators))
            for _ in range(rng.randint(0, length))
        )
        poly_iadd_term(p, word, rng.randint(-9, 9), alg.modulus)
    return p


def _assert_same(alg, budget, seed):
    """Completion and normal forms of alg agree with the sorting code."""
    new = complete(alg, budget)
    ref = old.complete(alg, budget)
    assert _rules(new) == _rules(ref)
    assert (new.steps_used, new.complete) == (ref.steps_used, ref.complete)
    ref_sys = old.RewriteSystem(alg, ref.rules, ref.complete, ref.steps_used)
    rng = random.Random(seed)
    inputs = [_random_poly(alg, rng) for _ in range(12)]
    for l, r in alg.relations:
        inputs += [dict(l), dict(r)]
    for p in inputs:
        trace, ref_trace = [], []
        got = new.normal_form(p, trace=trace)
        want = ref_sys.normal_form(p, trace=ref_trace)
        assert list(got.items()) == list(want.items())
        assert trace == ref_trace


@st.composite
def monoid_algebras(draw):
    m = random_monoid(draw(st.integers(0, 59)))
    return monoid_algebra(m, modulus=draw(st.sampled_from([None, 2, 3])))


@SETTINGS
@given(monoid_algebras(), st.integers(0, 200), st.integers(0, 10**6))
def test_monoid_algebras_match_sorting_completion(alg, budget, seed):
    _assert_same(alg, budget, seed)


@st.composite
def free_algebras(draw):
    """Free algebras on two or three generators with a few homogeneous
    relations, random coefficients (so non-unit leads) and a modulus."""
    modulus = draw(st.sampled_from([None, 2, 3, 4, 6, 9]))
    degrees = draw(st.lists(st.integers(0, 1), min_size=2, max_size=3))
    alg = PresentedDgAlgebra(
        [(f"x{i}", d) for i, d in enumerate(degrees)], modulus=modulus
    )
    words = st.lists(
        st.integers(0, len(degrees) - 1), max_size=3
    ).map(tuple)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(
            st.tuples(words, st.integers(-6, 6)), min_size=1, max_size=3
        ))
        degree = alg.word_degree(terms[0][0])
        p = {}
        for w, c in terms:
            if alg.word_degree(w) == degree:
                poly_iadd_term(p, w, c, modulus)
        if p:
            relations.append((p, {}))
    alg.relations = relations
    return alg


@SETTINGS
@given(free_algebras(), st.integers(0, 200), st.integers(0, 10**6))
def test_free_algebras_match_sorting_completion(alg, budget, seed):
    _assert_same(alg, budget, seed)


@st.composite
def localizations(draw):
    """A monoid algebra with c - g inverted, g a generator."""
    alg = draw(monoid_algebras())
    if not alg.generators:
        return alg
    g = draw(st.integers(0, len(alg.generators) - 1))
    element = {}
    poly_iadd_term(element, (), draw(st.integers(1, 3)), alg.modulus)
    poly_iadd_term(element, (g,), -1, alg.modulus)
    return adjoin_inverses(alg, [element])


@SETTINGS
@given(localizations(), st.integers(0, 200), st.integers(0, 10**6))
def test_localizations_match_sorting_completion(alg, budget, seed):
    _assert_same(alg, budget, seed)


def _bundled_algebras():
    out = dict(_algebra_inputs())
    complexes = bundled_complexes()
    for name in ("sphere1", "sphere2", "rp2", "boundary-delta3-collapsed"):
        om = extended_cobar(complexes[name], 2)
        out[f"extended-cobar-{name}"] = om
        out[f"h0-{name}"] = h0_ring(om)
    out["group-ring-pi1-rp2"] = group_ring(
        pi1_presentation(complexes["rp2"])
    )[0]
    return out


@pytest.mark.parametrize("name", sorted(_bundled_algebras()))
def test_bundled_algebras_match_sorting_completion(name):
    alg = _bundled_algebras()[name]
    for budget in (0, 7, 50, 200):
        _assert_same(alg, budget, seed=budget)


def _three_letters(modulus, relations):
    """Degree-0 generators x0, x1, x2 with relations {word: coeff} = 0."""
    alg = PresentedDgAlgebra(
        [("x0", 0), ("x1", 0), ("x2", 0)], modulus=modulus
    )
    alg.relations = [(poly(alg, terms), {}) for terms in relations]
    return alg


def test_retired_left_hand_sides_leave_the_probed_lengths():
    """Over Z with x1*x0*x1 = 0 and x1*x1 = -1, x0*x1 -> 0 retires the
    only length-3 left-hand side and x0 -> 0 retires x0*x1; the finished
    system probes exactly the lengths its rules have."""
    alg = _three_letters(None, [
        {("x1", "x0", "x1"): 1},
        {("x1", "x1"): 1, (): 1},
    ])
    _assert_same(alg, 100_000, seed=3)
    rsys = complete(alg)
    assert rsys.describe() == ["x0 -> 0", "x1*x1 -> -1"]
    assert set(rsys._lhs_lengths) == {len(r.lhs) for r in rsys.rules}
    assert set(rsys._lhs_lengths) == {1, 2}


def test_many_rules_with_one_left_hand_side_match_sorting_completion():
    """Over Z/9 with 3*x2 = 0 and 2*x2*x0*x1 + 5 = 0, completion keeps
    adding the constant rules 3 -> 0 and 6 -> 0: budget 200 ends with 68
    rules of only 4 distinct forms, 66 of them with the empty left-hand
    side."""
    alg = _three_letters(9, [{("x2",): 3}, {("x2", "x0", "x1"): 2, (): 5}])
    _assert_same(alg, 200, seed=9)
    rsys = complete(alg, 200)
    assert not rsys.complete
    assert len(rsys.rules) == 68
    forms = {(r.coeff, r.lhs, tuple(r.rhs.items())) for r in rsys.rules}
    assert len(forms) == 4
    empty = [r for r in rsys.rules if not r.lhs]
    assert len(empty) == 66
    assert rsys._by_lhs[()] == empty  # in rule order


def _sizes_and_listings(rsys):
    """Per degree 0..3, basis_size and the length of basis_in_degree at
    a cap of 10**12 (None when it raises CapExceeded)."""
    out = []
    for degree in range(4):
        try:
            listed = len(basis_in_degree(rsys, degree, cap=10**12))
        except CapExceeded:
            listed = None
        out.append((basis_size(rsys, degree), listed))
    return out


@pytest.mark.parametrize("name", sorted(_bundled_algebras()))
def test_basis_size_counts_the_listed_basis_of_bundled_algebras(name):
    rsys = complete(_bundled_algebras()[name])
    assert rsys.complete and not rsys.has_nonunit_leads
    for size, listed in _sizes_and_listings(rsys):
        assert size == listed


def _random_algebra(rng):
    """A group ring of a random presentation, or a free graded algebra on
    generators of degree 0 and 1 with random homogeneous monomial
    relations, some of them with a non-unit coefficient."""
    ngens = rng.randint(1, 3)

    def word():
        return tuple(rng.randrange(ngens) for _ in range(rng.randint(0, 3)))

    if rng.random() < 0.5:
        labels = [f"g{i}" for i in range(ngens)]
        rels = [
            (tuple(labels[g] for g in word()), tuple(labels[g] for g in word()))
            for _ in range(rng.randint(0, 3))
        ]
        return group_ring(MonoidPresentation(labels, rels), "'")[0]
    alg = PresentedDgAlgebra(
        [(f"x{i}", rng.randint(0, 1)) for i in range(ngens)]
    )
    rels = []
    for _ in range(rng.randint(0, 3)):
        u, v = word(), word()
        if u != v and alg.word_degree(u) == alg.word_degree(v):
            rels.append(({u: rng.choice([1, 1, 2])}, {v: 1}))
    alg.relations = rels
    return alg


def test_basis_size_counts_the_listed_basis_of_random_presentations():
    # a small budget: completion's step budget does not bound zero
    # S-polynomials, and some of these systems never complete
    rng = random.Random(20261019)
    sizes = set()
    for _ in range(120):
        rsys = complete(_random_algebra(rng), budget=100)
        if not rsys.complete or rsys.has_nonunit_leads:
            for degree in range(4):
                with pytest.raises(BarloopError):
                    basis_size(rsys, degree)
            continue
        for size, listed in _sizes_and_listings(rsys):
            assert size == listed
            sizes.add(size)
    # finite and infinite bases both occur
    assert None in sizes and len(sizes) > 3


def _monoid_word(m, nontriv, e):
    return () if e == m.identity else (nontriv.index(e),)


@pytest.mark.parametrize(
    "m",
    [FiniteMonoid.cyclic(n) if n > 1 else FiniteMonoid.trivial()
     for n in range(1, 17)]
    + [random_monoid(s) for s in range(40)],
)
def test_table_presentation_completes_to_itself(m):
    """The table rules g*h -> gh are already confluent: completion keeps
    one rule per pair of non-identity elements, the basis in degree 0 is
    the elements, and normal forms multiply by the table."""
    n = m.order()
    rsys = complete(monoid_algebra(m))
    assert rsys.complete
    assert len(rsys.rules) == (n - 1) ** 2
    assert all(len(r.lhs) == 2 for r in rsys.rules)
    basis = basis_in_degree(rsys, 0)
    assert len(basis) == n
    nontriv = [i for i in range(n) if i != m.identity]
    elements = {_monoid_word(m, nontriv, e): e for e in range(n)}
    assert set(basis) == set(elements)
    for u, a in elements.items():
        for v, b in elements.items():
            product = _monoid_word(m, nontriv, m.table[a][b])
            assert rsys.normal_form({u + v: 1}) == {product: 1}


class _BoundedTrace(list):
    """A trace that fails instead of growing without end."""

    def append(self, step):
        if len(self) >= 100:
            raise AssertionError("normal form does not terminate")
        super().append(step)


def test_normal_form_drops_coefficients_that_vanish_mod_m():
    """Over Z/4 with x*x -> -3*x, a coefficient 4 or -8 on x*x is zero;
    it used to be reduced by a zero multiple of the rule forever."""
    alg = PresentedDgAlgebra([("x", 0)], modulus=4)
    alg.relations = [(poly(alg, {("x", "x"): 1}), poly(alg, {("x",): -3}))]
    rsys = complete(alg)
    assert rsys.describe() == ["x*x -> -3*x"]
    xx, x = alg.word("x", "x"), alg.word("x")
    assert rsys.normal_form({xx: 4}, trace=_BoundedTrace()) == {}
    trace = _BoundedTrace()
    assert rsys.normal_form({xx: -8, x: 1}, trace=trace) == {x: 1}
    assert trace == []
    trace = _BoundedTrace()
    assert rsys.normal_form({xx: 5}, trace=trace) == {x: 1}
    assert trace == [(0, 0, xx)]


@pytest.mark.parametrize("budget", [100_000, 7, 39])
def test_normal_form_keys_each_queued_monomial_once(monkeypatch, budget):
    """One normal_form call computes the order key of each monomial it
    queues once: the input's monomials and every monomial a reduction
    adds, read off the trace."""
    alg = monoid_algebra(FiniteMonoid.cyclic(12))
    rsys = complete(alg, budget)
    rng = random.Random(budget)
    p = {}
    for _ in range(8):
        word = tuple(rng.randrange(len(alg.generators)) for _ in range(5))
        poly_iadd_term(p, word, rng.randint(1, 9))
    keyed = []
    order_key = PresentedDgAlgebra.order_key

    def spy(self, word):
        keyed.append(word)
        return order_key(self, word)

    monkeypatch.setattr(PresentedDgAlgebra, "order_key", spy)
    trace = []
    rsys.normal_form(p, trace=trace)
    queued = set(p)
    for ri, pos, w in trace:
        rule = rsys.rules[ri]
        queued.update(
            w[:pos] + w2 + w[pos + len(rule.lhs):] for w2 in rule.rhs
        )
    assert trace
    assert sorted(keyed) == sorted(queued)


@pytest.mark.parametrize("budget", [100_000, 7, 39])
def test_completion_builds_one_rewrite_system(monkeypatch, budget):
    """complete grows a single RewriteSystem in place: no system per new
    rule, none to test one rule, none rebuilt at the end."""
    built = []
    init = rewrite.RewriteSystem.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rewrite.RewriteSystem, "__init__", spy)
    rsys = complete(monoid_algebra(FiniteMonoid.cyclic(12)), budget)
    assert built == [rsys]


@pytest.mark.parametrize("budget", [100_000, 7, 39])
def test_completion_pairs_only_rules_that_share_a_letter(monkeypatch, budget):
    """Two nonempty left-hand sides with no letter in common neither
    overlap nor contain one another, so completion never asks for their
    superpositions; the rules and steps stay those of the sorting code.
    At budget 39 the budget runs out with the first kept rule sharing no
    letter with the new one, which still ends the pairing after it."""
    alg = monoid_algebra(FiniteMonoid.cyclic(12))
    pairs = []
    superpositions = rewrite._superpositions

    def spy(l1, l2):
        pairs.append((l1, l2))
        return superpositions(l1, l2)

    monkeypatch.setattr(rewrite, "_superpositions", spy)
    rsys = complete(alg, budget)
    assert pairs
    assert all(set(l1) & set(l2) for l1, l2 in pairs if l1 and l2)
    ref = old.complete(alg, budget)
    assert _rules(rsys) == _rules(ref)
    assert (rsys.steps_used, rsys.complete) == (ref.steps_used, ref.complete)
