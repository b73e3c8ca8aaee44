"""Bar/cobar windows, the adjunction maps, and derived localization."""

import tracemalloc

import pytest

import permutation_iso_check as oracle
from laws import validate_coalgebra, validate_complex

from barloop import barcobar, rewrite
from barloop.barcobar import (
    bar,
    cobar,
    counit_check,
    extended_cobar,
    nerve_bar_iso_check,
    unit_check,
)
from barloop.dgcoalg import chains
from barloop.errors import (
    CapExceeded,
    InfiniteRank,
    MismatchAt,
    NotCoaugmented,
    NotConnected,
    NotSimplyConnected,
)
from barloop.exactlin import IntMatrix, homology_window
from barloop.monoids import FiniteMonoid, monoid_algebra, random_monoid
from barloop.rewrite import (
    PresentedDgAlgebra,
    basis_in_degree,
    complete,
    complex_window,
    h0_ring,
    ring_iso_certify,
)
from barloop.simplicial import (
    boundary_delta3,
    collapsed_boundary_delta3,
    minimal_sphere,
    nerve,
    point,
)
from barloop.weqcheck import bundled_monoids
from checks import holds_no_coproduct, poly


def exterior_on_x(degree=1):
    return PresentedDgAlgebra(
        [("x", degree)],
        [({(0, 0): 1}, {})],
        {},
        {0: 0},
    )


def test_bar_of_trivial_algebra_is_ground_ring():
    b = bar(monoid_algebra(FiniteMonoid.trivial()), 4)
    assert [b.rank(n) for n in range(5)] == [1, 0, 0, 0, 0]
    assert validate_coalgebra(b).ok


def test_bar_of_exterior_generator_has_rank_one_in_even_degrees():
    b = bar(exterior_on_x(1), 6)
    assert [b.rank(n) for n in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    for n in range(1, 7):
        assert b.complex.boundary(n) == IntMatrix.zeros(b.rank(n - 1), b.rank(n))
    assert validate_coalgebra(b).ok


def test_bar_of_free_degree_zero_generator_is_infinite_rank():
    free_t = PresentedDgAlgebra([("t", 0)], [], {}, {0: 1})
    with pytest.raises(InfiniteRank):
        bar(free_t, 2, cap=50)


def test_bar_cap_hit_does_not_claim_an_infinite_ideal():
    # Degree 0 of the ideal is the single word b, but the algebra's degree
    # 0 has two monomials, more than a cap of 1 lets it list.
    alg = monoid_algebra(FiniteMonoid.idempotent_pair())
    with pytest.raises(InfiniteRank, match="within the cap") as e:
        bar(alg, 3, cap=1)
    assert "finite" not in str(e.value)


def test_bar_validates_on_monoid_algebras():
    for m in (
        FiniteMonoid.cyclic(2),
        FiniteMonoid.cyclic(3),
        FiniteMonoid.idempotent_pair(),
        FiniteMonoid.left_zero_with_unit(2),
    ):
        b = bar(monoid_algebra(m), 4)
        validate_complex(b.complex)
        assert validate_coalgebra(b).ok
        assert b.rank(1) == m.order() - 1


def test_nerve_bar_dictionary_is_bit_exact():
    for m in (
        FiniteMonoid.cyclic(2),
        FiniteMonoid.cyclic(3),
        FiniteMonoid.idempotent_pair(),
        FiniteMonoid.left_zero_with_unit(3),
    ):
        cert = nerve_bar_iso_check(m, 4)
        assert cert.ok and cert.status == "certified"


def test_nerve_bar_dictionary_on_random_monoids():
    for seed in range(20260814, 20260814 + 12):
        m = random_monoid(seed)
        cert = nerve_bar_iso_check(m, 3)
        assert cert.ok, m.elements


def test_cobar_of_circle_is_free_on_t():
    om = cobar(chains(minimal_sphere(1), 4))
    assert om.generators == [("t", 0)]
    assert om.relations == []
    assert not om.differential


def test_cobar_of_sphere2_has_polynomial_homology():
    om = cobar(chains(minimal_sphere(2), 6))
    assert om.generators == [("e", 1)]
    w = complex_window(om, 5)
    table = homology_window(w)
    for n in range(5):
        assert table[n].group() == (1, ()), f"degree {n}"


def test_cobar_of_sphere3_alternates():
    om = cobar(chains(minimal_sphere(3), 7))
    assert om.generators == [("e", 2)]
    table = homology_window(complex_window(om, 6))
    for n in range(6):
        want = (1, ()) if n % 2 == 0 else (0, ())
        assert table[n].group() == want, f"degree {n}"


def test_cobar_differential_squares_to_zero():
    for m in (
        FiniteMonoid.cyclic(2),
        FiniteMonoid.cyclic(3),
        FiniteMonoid.idempotent_pair(),
        FiniteMonoid.left_zero_with_unit(2),
    ):
        om = cobar(chains(nerve(m), 5))
        for g in range(len(om.generators)):
            dd = om.differentiate(om.differentiate({(g,): 1}))
            assert dd == {}, om.gen_label(g)


def test_cobar_rejects_unreduced_windows():
    with pytest.raises(NotCoaugmented):
        cobar(chains(boundary_delta3(), 3))


def test_collapsed_boundary_cobar_presentation():
    k = collapsed_boundary_delta3()
    om = cobar(chains(k, 4))
    degrees = sorted(deg for _, deg in om.generators)
    assert degrees == [0, 0, 0, 1, 1, 1, 1]
    # the 123 triangle sees all three surviving edges and one cup term
    g = {lbl: i for i, (lbl, _) in enumerate(om.generators)}
    d123 = om.differential[g["123"]]
    assert d123 == {
        (g["12"],): -1,
        (g["13"],): 1,
        (g["23"],): -1,
        (g["12"], g["23"]): -1,
    }


def test_collapsed_boundary_h0_is_integers():
    om = cobar(chains(collapsed_boundary_delta3(), 4))
    ring = h0_ring(om)
    rsys = complete(ring)
    assert rsys.complete
    assert basis_in_degree(rsys, 0) == [()]


def test_counit_quasi_iso_for_exterior_algebra():
    verdict = counit_check(exterior_on_x(1), 4)
    assert verdict.kind == "quasi-iso"


def test_counit_quasi_iso_for_free_algebra_on_x():
    free_x = PresentedDgAlgebra([("x", 1)], [], {}, {0: 0})
    verdict = counit_check(free_x, 4)
    assert verdict.kind == "quasi-iso"


def test_counit_requires_connected_algebra():
    with pytest.raises(NotConnected):
        counit_check(monoid_algebra(FiniteMonoid.cyclic(2)), 3)


def test_counit_lists_each_degree_once(monkeypatch):
    listed = []
    original = barcobar.basis_in_degree

    def recording(rsys, degree, cap=10_000):
        listed.append((id(rsys), degree))
        return original(rsys, degree, cap)

    monkeypatch.setattr(barcobar, "basis_in_degree", recording)
    monkeypatch.setattr(rewrite, "basis_in_degree", recording)
    # degrees 0..4 of the algebra and of the cobar of its bar
    assert counit_check(exterior_on_x(1), 4).kind == "quasi-iso"
    assert len(listed) == len(set(listed)) == 10


def test_counit_cap_errors():
    # degree 0 is listed for the connectedness test and raises as is
    with pytest.raises(
        CapExceeded, match="^more than 0 irreducible monomials in degree 0$"
    ):
        counit_check(exterior_on_x(1), 3, cap=0)
    # higher degrees are listed for the augmentation ideal
    two = PresentedDgAlgebra([("x", 1), ("y", 1)], [], {}, {0: 0, 1: 0})
    with pytest.raises(
        InfiniteRank,
        match="^cannot list the augmentation ideal within the cap: more "
        "than 1 irreducible monomials in degree 1$",
    ):
        counit_check(two, 3, cap=1)


def test_unit_quasi_iso_for_trivial_coalgebra():
    verdict = unit_check(chains(point(), 3))
    assert verdict.kind == "quasi-iso"


def test_unit_quasi_iso_for_sphere2():
    verdict = unit_check(chains(minimal_sphere(2), 4))
    assert verdict.kind == "quasi-iso"


def test_unit_quasi_iso_for_sphere3():
    verdict = unit_check(chains(minimal_sphere(3), 5))
    assert verdict.kind == "quasi-iso"


def test_unit_signs_on_bar_with_deconcatenation():
    # the bar of the exterior algebra has nontrivial reduced coproducts,
    # exercising the alternating k(k-1)/2 signs of the unit
    c = bar(exterior_on_x(1), 4)
    verdict = unit_check(c)
    assert verdict.kind == "quasi-iso"


def test_unit_rejects_non_simply_connected_windows():
    with pytest.raises(NotSimplyConnected):
        unit_check(chains(minimal_sphere(1), 3))
    with pytest.raises(NotSimplyConnected):
        unit_check(chains(nerve(FiniteMonoid.cyclic(2)), 3))


def test_extended_cobar_of_sphere2_is_plain_cobar():
    om = extended_cobar(minimal_sphere(2), 5)
    assert om.generators == [("e", 1)]
    assert om.relations == []


def test_extended_cobar_of_circle_is_laurent():
    om = extended_cobar(minimal_sphere(1), 4)
    assert [lbl for lbl, _ in om.generators] == ["t", "t_inv"]
    laurent = PresentedDgAlgebra(
        [("x", 0), ("y", 0)],
        [({(0, 1): 1}, {(): 1}), ({(1, 0): 1}, {(): 1})],
        {},
        {0: 1, 1: 1},
    )
    f = {
        "t": poly(laurent, {("x",): 1, (): -1}),
        "t_inv": poly(laurent, {("y",): 1}),
    }
    g = {
        "x": poly(om, {("t",): 1, (): 1}),
        "y": poly(om, {("t_inv",): 1}),
    }
    cert = ring_iso_certify(om, laurent, f, g)
    assert cert.ok and cert.status == "certified"


def test_extended_cobar_needs_reduced_input():
    with pytest.raises(NotCoaugmented):
        extended_cobar(boundary_delta3(), 3)


def _corrupt_bar_window(monkeypatch, corrupt):
    """Make nerve_bar_iso_check compare against a damaged bar window."""
    original = barcobar._bar_data

    def damaged(*args):
        window = original(*args)
        corrupt(window)
        return window

    monkeypatch.setattr(barcobar, "_bar_data", damaged)


def corrupt_boundary(window):
    """Add 1 to every entry of the degree-2 boundary matrix."""
    rows = window.complex.boundaries[2].to_rows()
    window.complex.boundaries[2] = IntMatrix.from_rows(
        [[x + 1 for x in row] for row in rows]
    )


def corrupt_coproduct(window):
    """Count the first coproduct term of every degree-2 element twice, as
    the window's builder yields it, so every reader sees the damage."""
    build = window._coproduct_of

    def damaged(n):
        for terms in build(n):
            if n == 2:
                terms = terms[:1] + terms
            yield terms

    window._coproduct_of = damaged


def test_nerve_bar_check_reports_disagreeing_differentials(monkeypatch):
    _corrupt_bar_window(monkeypatch, corrupt_boundary)
    m = FiniteMonoid.cyclic(3)
    with pytest.raises(MismatchAt, match="differentials disagree") as e:
        nerve_bar_iso_check(m, 3)
    assert e.value.degree == 2
    assert e.value.element == chains(nerve(m), 3).complex.label(2, 0)


def test_nerve_bar_check_reports_disagreeing_coproducts(monkeypatch):
    _corrupt_bar_window(monkeypatch, corrupt_coproduct)
    m = FiniteMonoid.cyclic(3)
    with pytest.raises(MismatchAt, match="coproducts disagree") as e:
        nerve_bar_iso_check(m, 3)
    assert e.value.degree == 2
    assert e.value.element == chains(nerve(m), 3).complex.label(2, 0)


def _certificate(check, m, hi):
    cert = check(m, hi)
    return cert.ok, cert.status, cert.details


def test_nerve_bar_check_agrees_with_the_permutation_oracle():
    monoids = list(bundled_monoids().values()) + [
        FiniteMonoid.chain_of_idempotents(3),
        FiniteMonoid.left_zero_with_unit(3),
    ]
    monoids += [random_monoid(seed) for seed in range(32)]
    for m in monoids:
        for hi in (3, 4):
            want = _certificate(oracle.nerve_bar_iso_check, m, hi)
            assert want[0]
            got = _certificate(nerve_bar_iso_check, m, hi)
            assert got == want, (m.elements, hi)


def _first_mismatch(check, m, hi):
    with pytest.raises(MismatchAt) as e:
        check(m, hi)
    return str(e.value), e.value.degree, e.value.element


@pytest.mark.parametrize(
    "corrupt", [corrupt_boundary, corrupt_coproduct],
    ids=["boundary", "coproduct"],
)
@pytest.mark.parametrize(
    "m", [FiniteMonoid.cyclic(3), FiniteMonoid.left_zero_with_unit(2)],
    ids=["z3", "left-zero2"],
)
def test_nerve_bar_check_fails_where_the_oracle_fails(monkeypatch, corrupt, m):
    _corrupt_bar_window(monkeypatch, corrupt)
    want = _first_mismatch(oracle.nerve_bar_iso_check, m, 3)
    assert _first_mismatch(nerve_bar_iso_check, m, 3) == want


def test_nerve_bar_check_rejects_a_bar_basis_in_another_order(monkeypatch):
    """A bar window whose degree-2 basis lists two words swapped is the
    same coalgebra in another basis order: the permutation oracle
    certifies it, the check by position does not.  The bar builds each
    column from positions, so the swapped window takes its boundaries
    from the true one, with the two rows and columns swapped."""
    original = barcobar.basis_window

    def swapped(bases, columns, label):
        true = original(bases, columns, label)
        bases[2][0], bases[2][1] = bases[2][1], bases[2][0]

        def pos(n, i):
            return 1 - i if n == 2 and i < 2 else i

        def permuted(n, below, bounds):
            d = true.boundary(n)
            for j in range(d.cols):
                yield [(pos(n - 1, i), c) for i, c in d.column(pos(n, j))]

        return original(bases, permuted, label)

    monkeypatch.setattr(barcobar, "basis_window", swapped)
    m = FiniteMonoid.cyclic(3)
    assert oracle.nerve_bar_iso_check(m, 3).ok
    with pytest.raises(MismatchAt, match="is not bar word 0") as e:
        nerve_bar_iso_check(m, 3)
    assert e.value.degree == 2
    assert e.value.element == str(chains(nerve(m), 3).complex.bases[2][0])


@pytest.mark.parametrize("change", [-1, 1], ids=["fewer", "more"])
def test_nerve_bar_check_reads_every_coproduct_column(monkeypatch, change):
    def corrupt(window):
        build = window._coproduct_of

        def miscounted(n):
            terms = list(build(n))
            if n == 2:
                terms = terms[:-1] if change < 0 else terms + terms[:1]
            yield from terms

        window._coproduct_of = miscounted

    _corrupt_bar_window(monkeypatch, corrupt)
    with pytest.raises(ValueError, match="missing columns in degree 2"):
        nerve_bar_iso_check(FiniteMonoid.cyclic(3), 3)


def test_nerve_bar_check_keeps_no_coproduct(monkeypatch):
    windows = []

    def keep(window):
        windows.append(window)
        return window

    for name in ("chains", "bar"):
        original = getattr(barcobar, name)
        monkeypatch.setattr(
            barcobar, name, lambda *a, original=original: keep(original(*a))
        )
    assert nerve_bar_iso_check(FiniteMonoid.left_zero_with_unit(3), 4).ok
    assert len(windows) == 2
    assert all(holds_no_coproduct(w) for w in windows)


def test_nerve_bar_check_peak_memory():
    # 6.92 MB when both windows kept every degree's coproduct lists
    m = FiniteMonoid.left_zero_with_unit(5)
    tracemalloc.start()
    try:
        assert nerve_bar_iso_check(m, 5).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6
