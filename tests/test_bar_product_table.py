"""Bar windows from a product table against per-request normalization.

``normalizing_bar`` keeps the previous ``_IdealBasis.mult`` and ``diff``
verbatim: they normalized a product or a differential once per bar word
that contained it.  The current ones fill a table on first request.  Bar
windows built on either must have the same bases, labels, boundaries and
coproducts, and both maps must give the same coordinates, in the same
order, on every pair of ideal basis words.  ``normalizing_bar`` also
keeps the previous ``_bar_data``, which added each boundary term on its
own and looked up every cut of a bar word; the current one must build
the same window from the same ideal basis.

Also here: the number of normal forms a nerve/bar certification takes,
which no longer grows with the window, and the check an algebra gets
where it enters a window: it must have no modulus, since windows and
homology are over Z, and d must square to zero on the quotient.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normalizing_bar as old
from checks import assert_same_coalgebra_window
from barloop.barcobar import (
    _bar_data,
    _IdealBasis,
    bar,
    cobar,
    counit_check,
    nerve_bar_iso_check,
)
from barloop.cli import _algebra_inputs
from barloop.dgcoalg import chains
from barloop.errors import BarloopError, InfiniteRank, NotACycle
from barloop.monoids import FiniteMonoid, monoid_algebra, random_monoid
from barloop.rewrite import (
    PresentedDgAlgebra,
    RewriteSystem,
    complex_window,
    require_complete,
)
from barloop.simplicial import minimal_sphere

SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


def _exterior(modulus=None):
    return PresentedDgAlgebra(
        [("x", 1)], [({(0, 0): 1}, {})], {}, {0: 0}, modulus
    )


def _free_dg(modulus=None):
    # free on x, y, z of degrees 1, 3, 5 with d y = 3 x x and
    # d z = x y + y x, so that d∘d = 0 and bar boundaries have
    # differential terms
    return PresentedDgAlgebra(
        [("x", 1), ("y", 3), ("z", 5)],
        [],
        {1: {(0, 0): 3}, 2: {(0, 1): 1, (1, 0): 1}},
        {0: 0, 1: 0, 2: 0},
        modulus,
    )


def assert_same_bar(algebra, hi, cap=10_000):
    rsys = require_complete(algebra, 100_000)
    new_ib = _IdealBasis(algebra, rsys, hi - 1, cap)
    old_ib = old.IdealBasis(algebra, rsys, hi - 1, cap)
    assert new_ib.basis == old_ib.basis
    words = [w for n in sorted(new_ib.basis) for w in new_ib.basis[n]]
    for w1 in words:
        assert list(new_ib.diff(w1).items()) == list(old_ib.diff(w1).items())
        for w2 in words:
            assert list(new_ib.mult(w1, w2).items()) == list(
                old_ib.mult(w1, w2).items()
            )
    new = _bar_data(new_ib, hi, cap)
    reference = _bar_data(old_ib, hi, cap)
    assert_same_coalgebra_window(new, reference)
    # the window builder against its per-term predecessor
    assert_same_coalgebra_window(new, old._bar_data(new_ib, hi, cap))


@SETTINGS
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_monoid_algebra_bars_match_the_normalizing_oracle(seed, hi):
    assert_same_bar(monoid_algebra(random_monoid(seed)), hi)


@pytest.mark.parametrize(
    "monoid",
    [
        FiniteMonoid.cyclic(5),
        FiniteMonoid.left_zero_with_unit(3),
        FiniteMonoid.chain_of_idempotents(4),
    ],
    ids=["z5", "left-zero3", "chain4"],
)
def test_fixed_monoid_algebra_bars_match(monoid):
    assert_same_bar(monoid_algebra(monoid), 4)


@pytest.mark.parametrize(
    "name, algebra, hi",
    [("exterior", _exterior(), 7)]
    + [(name, alg, 4) for name, alg in sorted(_algebra_inputs().items())],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_named_algebra_bars_match(name, algebra, hi):
    assert_same_bar(algebra, hi)


def test_free_dg_algebra_bars_match():
    assert_same_bar(_free_dg(), 7)


def test_windows_over_z_refuse_a_modulus():
    """Over Z/m the bar boundaries would only vanish mod m, and homology
    reads every window over Z; so bar, complex_window and counit_check
    refuse a modulus where the algebra enters."""
    for m in (2, 3, 4):
        for build, alg in (
            (bar, monoid_algebra(FiniteMonoid.cyclic(3), m)),
            (bar, _free_dg(m)),
            (complex_window, _free_dg(m)),
            (counit_check, _exterior(m)),
        ):
            with pytest.raises(BarloopError, match=f"has modulus {m}$"):
                build(alg, 4)


def _d_squared_is_not_zero():
    # free on x, y, z of degrees 1, 2, 3 with d z = y and d y = x
    return PresentedDgAlgebra(
        [("x", 1), ("y", 2), ("z", 3)],
        [],
        {1: {(0,): 1}, 2: {(1,): 1}},
        {0: 0, 1: 0, 2: 0},
    )


def _d_does_not_descend():
    # y y = 0 with d y = x: d(y y) = x y + y x is not in the ideal
    return PresentedDgAlgebra(
        [("x", 1), ("y", 2)], [({(1, 1): 1}, {})], {1: {(0,): 1}}, {0: 0, 1: 0}
    )


ENTRIES = [bar, complex_window, counit_check]


@pytest.mark.parametrize("build", ENTRIES, ids=lambda f: f.__name__)
def test_an_algebra_that_is_not_a_dg_algebra_is_refused(build):
    with pytest.raises(NotACycle, match=r"^d\(d z\) = x, not 0$"):
        build(_d_squared_is_not_zero(), 5)
    with pytest.raises(
        NotACycle,
        match=r"^relation y\*y = 0: d\(lhs - rhs\) = y\*x \+ x\*y, not 0$",
    ):
        build(_d_does_not_descend(), 5)


@pytest.mark.parametrize("build", ENTRIES, ids=lambda f: f.__name__)
def test_dg_algebras_pass_the_entry_check(build):
    for alg in (_free_dg(), _exterior()):
        assert build(alg, 5)


def test_bar_of_the_sphere_cobar_matches():
    # the bar that unit_check builds for the 2-sphere
    c = chains(minimal_sphere(2), 8)
    assert_same_bar(cobar(c), c.hi)


def _sphere2_cobar():
    return cobar(chains(minimal_sphere(2), 16))


@pytest.mark.parametrize(
    "build, hi",
    [
        (lambda: monoid_algebra(FiniteMonoid.cyclic(3)), 9),
        (lambda: monoid_algebra(FiniteMonoid.left_zero_with_unit(5)), 5),
        (lambda: monoid_algebra(FiniteMonoid.chain_of_idempotents(5)), 5),
        (lambda: monoid_algebra(FiniteMonoid.cyclic(4)), 5),
        (_sphere2_cobar, 16),
        (_free_dg, 9),
    ],
    ids=["z3-hi9", "left-zero5-hi5", "chain5-hi5", "z4-hi5",
         "sphere2-cobar-hi16", "free-dg-hi9"],
)
def test_bars_match_at_the_benchmark_shapes(build, hi):
    # left-zero: a product w r0 = w lands in the block of another head
    # than its own; the sphere's cobar fills blocks of many shifted
    # degrees; the free dg algebra has differential terms
    assert_same_bar(build(), hi)


@pytest.mark.parametrize(
    "build, hi",
    [(lambda: monoid_algebra(FiniteMonoid.cyclic(3)), 9),
     (_sphere2_cobar, 16)],
    ids=["z3-hi9", "sphere2-cobar-hi16"],
)
def test_each_bar_word_asks_for_one_product_and_one_differential(
    monkeypatch, build, hi
):
    algebra = build()
    asked = {"mult": 0, "diff": 0}
    for name in asked:
        original = getattr(_IdealBasis, name)

        def spy(self, *args, name=name, original=original):
            asked[name] += 1
            return original(self, *args)

        monkeypatch.setattr(_IdealBasis, name, spy)
    bw = bar(algebra, hi)
    words = sum(bw.rank(n) for n in range(1, hi + 1))
    assert 0 < asked["mult"] <= words
    assert 0 < asked["diff"] <= words


def test_the_bar_word_cap_counts_words():
    # Z/3 has 2**n bar words in degree n; degree 7 fills its cap of 128
    # exactly, and one word more than a cap of 127 sits inside the
    # second head's block
    z3 = monoid_algebra(FiniteMonoid.cyclic(3))
    with pytest.raises(
        InfiniteRank, match=r"^more than 100 bar words in degree 7$"
    ):
        bar(z3, 9, cap=100)
    assert bar(z3, 7, cap=128).rank(7) == 128
    with pytest.raises(
        InfiniteRank, match=r"^more than 127 bar words in degree 7$"
    ):
        bar(z3, 7, cap=127)


def _normal_forms(monkeypatch):
    calls = [0]
    original = RewriteSystem.normal_form

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RewriteSystem, "normal_form", counted)
    return calls


@pytest.mark.parametrize(
    "monoid, count",
    [
        (FiniteMonoid.cyclic(5), 151),
        (FiniteMonoid.left_zero_with_unit(5), 210),
    ],
    ids=["z5", "left-zero5"],
)
def test_nerve_bar_check_normal_forms_do_not_grow_with_the_window(
    monkeypatch, monoid, count
):
    # completion (131 and 180 normal forms) plus one per product of two
    # ideal basis words and one per differential (20 and 30), whatever
    # the window
    calls = _normal_forms(monkeypatch)
    seen = []
    for hi in range(2, 6):
        calls[0] = 0
        assert nerve_bar_iso_check(monoid, hi).ok
        seen.append(calls[0])
    assert seen == [count] * 4
