"""Bar/cobar windows, the adjunction maps, and derived localization."""

import pytest

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
from checks import coproduct, poly


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
    assert b.validate().ok


def test_bar_of_exterior_generator_has_rank_one_in_even_degrees():
    b = bar(exterior_on_x(1), 6)
    assert [b.rank(n) for n in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    for n in range(1, 7):
        assert b.complex.boundary(n).is_zero()
    assert b.validate().ok


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
        b.complex.validate()
        assert b.validate().ok
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


def test_nerve_bar_check_reports_disagreeing_differentials(monkeypatch):
    def corrupt(window):
        rows = window.complex.boundaries[2].to_rows()
        window.complex.boundaries[2] = IntMatrix.from_rows(
            [[x + 1 for x in row] for row in rows]
        )

    _corrupt_bar_window(monkeypatch, corrupt)
    m = FiniteMonoid.cyclic(3)
    with pytest.raises(MismatchAt, match="differentials disagree") as e:
        nerve_bar_iso_check(m, 3)
    assert e.value.degree == 2
    assert e.value.element == chains(nerve(m), 3).label(2, 0)


def test_nerve_bar_check_reports_disagreeing_coproducts(monkeypatch):
    def corrupt(window):
        for terms in coproduct(window)[2]:
            p, i1, i2, c = terms[0]
            terms[0] = (p, i1, i2, c + 1)

    _corrupt_bar_window(monkeypatch, corrupt)
    m = FiniteMonoid.cyclic(3)
    with pytest.raises(MismatchAt, match="coproducts disagree") as e:
        nerve_bar_iso_check(m, 3)
    assert e.value.degree == 2
    assert e.value.element == chains(nerve(m), 3).label(2, 0)
