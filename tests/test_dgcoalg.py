"""Chain coalgebras of simplicial sets: coproducts, filtrations, maps."""

import itertools

import pytest

from barloop import barcobar, cli, dgcoalg, weqcheck
from barloop.barcobar import cobar, counit_check, unit_check
from barloop.dgcoalg import (
    CoalgebraMap,
    DgCoalgebraWindow,
    chains,
    cone_quasi_iso_window,
    filtered_quasi_iso_window,
    nerve_chains_map,
)
from barloop.errors import (
    MismatchAt,
    NotAHomomorphism,
    NotCoaugmented,
)
from barloop.exactlin import (
    ChainComplexWindow,
    IntMatrix,
    homology_window,
    mapping_cone,
)
from barloop.monoids import FiniteMonoid, MonoidMap
from barloop.rewrite import PresentedDgAlgebra
from barloop.simplicial import (
    boundary_delta3,
    minimal_sphere,
    nerve,
    point,
)
from barloop.weqcheck import (
    bundled_complexes,
    bundled_monoids,
    weq_verdict,
)
from checks import assert_stored_form, coproduct, identity_matrix
from filtration_oracle import filtered_map_fault, filtration_fault
from laws import validate_coalgebra, validate_complex


def test_circle_chains_window():
    c = chains(minimal_sphere(1), 3)
    assert [c.rank(n) for n in range(4)] == [1, 1, 0, 0]
    assert c.complex.boundary(1) == IntMatrix.zeros(1, 1)
    # the loop's coproduct has only its two end terms: no reduced part
    assert coproduct(c)[1] == [[(0, 0, 0), (1, 0, 0)]]
    assert validate_coalgebra(c).ok


def test_sphere_chains_ranks_and_homology():
    c = chains(minimal_sphere(2), 4)
    assert [c.rank(n) for n in range(5)] == [1, 0, 1, 0, 0]
    assert validate_coalgebra(c).ok
    table = homology_window(c.complex)
    assert table[0].group() == (1, ())
    assert table[1].group() == (0, ())
    assert table[2].group() == (1, ())
    assert table[3].group() == (0, ())


def test_nerve_z2_coproduct_of_gg_is_frozen_three_terms():
    c = chains(nerve(FiniteMonoid.cyclic(2)), 3)
    # (g,g) maps to (g,g)x1 + gxg + 1x(g,g); every degree has rank 1
    assert coproduct(c)[2] == [[(0, 0, 0), (1, 0, 0), (2, 0, 0)]]


def test_nerve_z2_homology_periodic():
    c = chains(nerve(FiniteMonoid.cyclic(2)), 6)
    assert validate_coalgebra(c).ok
    table = homology_window(c.complex)
    assert table[0].group() == (1, ())
    for n in range(1, 6):
        want = (0, (2,)) if n % 2 else (0, ())
        assert table[n].group() == want, f"degree {n}"
        assert table[n].exact
    assert not table[6].exact


def test_nerve_z3_homology():
    # Closed form H_*(BZ/m) = Z, Z/m, 0, Z/m, ... for m = 2..5 at the
    # windows production uses.  The top degree is partial: it is the
    # kernel of d_hi, whose rank follows from rationally acyclic chains,
    # rk d_{n+1} = rank C_n - rk d_n for n >= 1.
    for m, hi in [(2, 6), (3, 4), (4, 4), (5, 4)]:
        c = chains(nerve(FiniteMonoid.cyclic(m)), hi)
        assert [c.rank(n) for n in range(hi + 1)] == [
            (m - 1) ** n for n in range(hi + 1)
        ]
        assert validate_coalgebra(c).ok
        table = homology_window(c.complex)
        assert table[0].group() == (1, ())
        for n in range(1, hi):
            want = (0, (m,)) if n % 2 else (0, ())
            assert table[n].group() == want, f"Z/{m} degree {n}"
            assert table[n].exact
        rk_d = 0
        for n in range(1, hi):
            rk_d = (m - 1) ** n - rk_d
        assert table[hi].group() == ((m - 1) ** hi - rk_d, ())
        assert table[hi].describe().endswith("(partial)")


def test_every_constructed_window_validates():
    """d∘d = 0 and the coalgebra laws, which no command re-checks on a
    simplicial set's chains, hold on every bundled complex (window 4
    reaches each finite one's top dimension) and on the nerve of every
    bundled monoid at window 5."""
    sets = bundled_complexes()
    assert len(sets) == 12
    sets["boundary-delta3"] = boundary_delta3()
    for name, k in sets.items():
        c = chains(k, 4)
        validate_complex(c.complex)
        assert validate_coalgebra(c).ok, name
    for name, m in bundled_monoids().items():
        c = chains(nerve(m), 5)
        validate_complex(c.complex)
        assert validate_coalgebra(c).ok, name


def test_the_cone_check_rejects_blocks_that_do_not_commute_with_d():
    # In the chains of BZ/2, d_2 = 2 and d_3 = 0, so f_1 d_2 = d_2 f_2
    # fails for f_2 = 3 f_1; the cone's d∘d breaks on src_2 = cone_3.
    c = chains(nerve(FiniteMonoid.cyclic(2)), 4).complex
    blocks = {n: identity_matrix(1) for n in range(5)}
    blocks[2] = IntMatrix.from_rows([[3]])
    with pytest.raises(MismatchAt, match="^d∘d != 0 from degree 3$"):
        validate_complex(mapping_cone(blocks, c, c))


@pytest.fixture
def checked_cones(monkeypatch):
    """Every cone that cone_quasi_iso_window certifies, from any caller,
    is first checked for d∘d = 0, which holds exactly when its blocks
    form a chain map, and every boundary of the cone it builds is
    checked to be in the stored form that mapping_cone hands the
    IntMatrix constructor unchecked; the list holds the top degree of
    each."""
    certify = dgcoalg.cone_quasi_iso_window
    build = dgcoalg.mapping_cone
    seen = []

    def checked(blocks, src, dst):
        validate_complex(mapping_cone(blocks, src, dst))
        seen.append(src.hi)
        return certify(blocks, src, dst)

    def stored(blocks, src, dst):
        cone = build(blocks, src, dst)
        for n in range(1, cone.hi + 1):
            assert_stored_form(cone.boundary(n))
        return cone

    for module in (barcobar, dgcoalg, weqcheck):
        monkeypatch.setattr(module, "cone_quasi_iso_window", checked)
    monkeypatch.setattr(dgcoalg, "mapping_cone", stored)
    return seen


def automorphisms(m):
    """Every automorphism of a finite monoid, the identity included."""
    others = [e for e in range(m.order()) if e != m.identity]
    for perm in itertools.permutations(others):
        images = list(range(m.order()))
        for e, v in zip(others, perm):
            images[e] = v
        try:
            yield MonoidMap(m, m, images).validate()
        except NotAHomomorphism:
            pass


def test_weq_cones_are_chain_complexes(checked_cones):
    """weq_verdict builds its cone unchecked: MonoidMap.validate makes
    N(f) simplicial, so the nerve chain map is a chain map."""
    monoids = dict(bundled_monoids(), z5=FiniteMonoid.cyclic(5))
    automorphism_counts = {}
    for name, m in monoids.items():
        maps = list(automorphisms(m))
        automorphism_counts[name] = len(maps)
        for f in maps + [MonoidMap.collapse(m)]:
            weq_verdict(f, 5)
    assert automorphism_counts == {
        "trivial": 1, "z2": 1, "z3": 2, "z4": 2, "idempotent": 1,
        "left-zero": 2, "z5": 4,
    }
    # one cone per automorphism; a collapse reaches its cone only when
    # the nerve homology agrees (trivial, idempotent and left-zero)
    assert len(checked_cones) == 13 + 3


# the spheres and windows that unit_check's cones and filtrations are
# checked on
UNIT_WINDOWS = [(2, hi) for hi in range(3, 9)] + [(3, 7)]


def test_adjunction_cones_are_chain_complexes(checked_cones):
    """counit_check's counit is a dg algebra map once its algebra passed
    the entry check, and each graded piece of unit_check's unit is a
    chain map, so neither checks its cones."""
    exterior = PresentedDgAlgebra([("x", 1)], [({(0, 0): 1}, {})], {}, {0: 0})
    assert counit_check(exterior, 6)
    assert checked_cones == [6]
    for dim, hi in UNIT_WINDOWS:
        checked_cones.clear()
        verdict = unit_check(chains(minimal_sphere(dim), hi))
        assert verdict
        # one cone per filtration level
        assert checked_cones == [hi] * verdict.detail["levels_checked"]


def test_paper_suite_cones_are_chain_complexes(checked_cones, capsys):
    """paper-suite reaches cones through its weq and prop34 cases."""
    assert cli.run(["paper-suite", "--seed", "1"]) == 0
    capsys.readouterr()
    # prop34: the counit's cone and the unit's five level cones at hi 3;
    # weq: the idempotent squash at hi 4 and the identity of Z/3 at hi 3
    # (nerve homology refutes the collapse of Z/2 before any cone)
    assert checked_cones == [3] * 6 + [4, 3]


@pytest.mark.parametrize("dim, hi", UNIT_WINDOWS)
def test_unit_check_filtrations_are_admissible_and_preserved(
    monkeypatch, dim, hi
):
    """filtered_quasi_iso_window checks no filtration: unit_check's
    levels and weights, rebuilt here, are admissible and the unit, a map
    of dg coalgebras, preserves them."""
    seen = []
    graded = barcobar.filtered_quasi_iso_window

    def spy(f, src_levels, dst_levels):
        seen.append((f, src_levels, dst_levels))
        return graded(f, src_levels, dst_levels)

    monkeypatch.setattr(barcobar, "filtered_quasi_iso_window", spy)
    c = chains(minimal_sphere(dim), hi)
    assert unit_check(c)
    [(f, levels, weights)] = seen
    om = cobar(c)
    assert f.src is c
    assert levels == skeletal(c)
    assert weights == {
        (n, j): sum(om.gen_degree(g) + 1 for w in tup for g in w)
        for n in range(hi + 1)
        for j, tup in enumerate(f.dst.complex.bases[n])
    }
    assert filtered_map_fault(f, levels, weights) is None
    assert f.validate().ok


@pytest.mark.parametrize("kind", ["identity", "collapse"])
@pytest.mark.parametrize("name", sorted(bundled_monoids()))
def test_nerve_chains_maps_of_bundled_monoids_validate(name, kind):
    """weq reads these maps only through the mapping cone; the coalgebra
    map laws stay checked here."""
    f = getattr(MonoidMap, kind)(bundled_monoids()[name])
    src, dst = chains(nerve(f.src), 4), chains(nerve(f.dst), 4)
    assert nerve_chains_map(f, src, dst).validate().ok


def test_corrupted_coproduct_is_detected():
    c = chains(nerve(FiniteMonoid.cyclic(2)), 3)
    cop = coproduct(c)
    # dropping one interior term breaks coassociativity asymmetrically
    cop[3][0] = [t for t in cop[3][0] if t[0] != 2]
    bad = DgCoalgebraWindow(c.complex, cop.__getitem__)
    report = validate_coalgebra(bad)
    assert not report.ok
    assert any("coassociativity" in v for v in report.violations)


def test_missing_counit_term_is_detected():
    c = chains(nerve(FiniteMonoid.cyclic(2)), 3)
    cop = coproduct(c)
    cop[2][0] = [t for t in cop[2][0] if t[0] != 0]
    bad = DgCoalgebraWindow(c.complex, cop.__getitem__)
    report = validate_coalgebra(bad)
    assert any("Delta != id" in v for v in report.violations)


def skeletal(c):
    """Skeletal levels: each element at its degree."""
    return {(n, j): n for n in range(c.hi + 1) for j in range(c.rank(n))}


def identity_map(c):
    blocks = {
        n: identity_matrix(c.rank(n)) for n in range(c.hi + 1)
    }
    return CoalgebraMap(c, c, blocks)


def test_skeletal_filtration_levels():
    # one level per degree up to the top nonempty one: S^2 has no
    # 3-simplex, the nerve of Z/2 one simplex in every degree
    for c, checked in ((chains(minimal_sphere(2), 3), 3),
                       (chains(nerve(FiniteMonoid.cyclic(2)), 4), 5)):
        levels = skeletal(c)
        assert c.rank(0) == 1 and levels[(0, 0)] == 0
        verdict = filtered_quasi_iso_window(identity_map(c), levels, levels)
        assert verdict.detail == {"levels_checked": checked, "window_hi": c.hi}


def test_skeletal_filtration_needs_coaugmentation():
    c = chains(boundary_delta3(), 2)
    assert c.rank(0) == 4
    with pytest.raises(NotCoaugmented):
        filtration_fault(c, skeletal(c))


def _first_fault(c, levels):
    fault = filtered_map_fault(identity_map(c), levels, skeletal(c))
    assert fault is not None
    return fault


def test_admissible_filtration_violations_are_reported():
    # one input per fault kind; the check reports the first fault only
    c = chains(nerve(FiniteMonoid.cyclic(2)), 3)
    levels = skeletal(c)
    levels[(1, 0)] = 0
    assert _first_fault(c, levels) == (
        "level 0 must be exactly the coaugmentation; degree 1 element "
        f"{c.complex.label(1, 0)} has level 0"
    )
    # d(g,g) = 2g
    levels = skeletal(c)
    levels[(1, 0)] = 3
    assert _first_fault(c, levels) == (
        "differential raises the level on degree 2 element "
        f"{c.complex.label(2, 0)}"
    )
    # d(g,g,g) = 0, but (g) x (g,g) is a term of its coproduct
    levels = skeletal(c)
    levels[(3, 0)] = 2
    assert _first_fault(c, levels) == (
        "coproduct is not sub-additive on degree 3 element "
        f"{c.complex.label(3, 0)}"
    )


def test_filtration_levels_are_complete_and_nonnegative():
    c = chains(nerve(FiniteMonoid.cyclic(2)), 3)
    levels = skeletal(c)
    del levels[(2, 0)]
    assert _first_fault(c, levels) == "no level for degree 2 element 0"
    levels = skeletal(c)
    levels[(2, 0)] = -1
    with pytest.raises(ValueError, match="filtration levels must be >= 0"):
        filtered_map_fault(identity_map(c), skeletal(c), levels)


def test_identity_map_is_filtered_quasi_iso():
    c = chains(nerve(FiniteMonoid.cyclic(2)), 4)
    f = identity_map(c)
    assert f.validate().ok
    verdict = filtered_quasi_iso_window(f, skeletal(c), skeletal(c))
    assert verdict.kind == "quasi-iso"
    assert bool(verdict)


def test_sphere_to_point_fails_at_level_two():
    src = chains(minimal_sphere(2), 4)
    dst = chains(point(), 4)
    blocks = {0: IntMatrix.from_rows([[1]])}
    f = CoalgebraMap(src, dst, blocks)
    assert f.validate().ok
    verdict = filtered_quasi_iso_window(f, skeletal(src), skeletal(dst))
    assert verdict.kind == "fails"
    assert verdict.level == 2
    assert verdict.degree == 2
    assert not verdict


def test_map_raising_levels_is_rejected():
    c = chains(minimal_sphere(2), 3)
    f = identity_map(c)
    lo = {(0, 0): 0, (2, 0): 2}
    high = {(0, 0): 0, (2, 0): 3}
    assert filtered_map_fault(f, lo, high) == (
        "map raises filtration level on degree 2 element "
        f"{c.complex.label(2, 0)}"
    )
    # lowering levels is admissible, but the graded pieces then differ
    assert filtered_quasi_iso_window(f, high, lo).kind == "fails"


def test_nerve_naturality_of_chains():
    z4, z2 = FiniteMonoid.cyclic(4), FiniteMonoid.cyclic(2)
    mmap = MonoidMap(z4, z2, [0, 1, 0, 1]).validate()
    f = nerve_chains_map(mmap, chains(nerve(z4), 4), chains(nerve(z2), 4))
    assert f.validate().ok


def test_collapse_of_idempotent_pair_is_quasi_iso_by_cone():
    m = FiniteMonoid.idempotent_pair()
    mmap = MonoidMap.collapse(m)
    f = nerve_chains_map(
        mmap, chains(nerve(m), 5), chains(nerve(mmap.dst), 5)
    )
    assert f.validate().ok
    blocks = {n: f.block(n) for n in range(6)}
    ok, degree = cone_quasi_iso_window(blocks, f.src.complex, f.dst.complex)
    assert ok and degree is None
    # but the skeletal associated graded distinguishes them
    verdict = filtered_quasi_iso_window(f, skeletal(f.src), skeletal(f.dst))
    assert verdict.kind == "fails"


def vertices(count):
    """Group-like vertices and nothing above them; a single vertex is the
    coaugmentation, and two have none."""
    comp = ChainComplexWindow(
        1, {0: count, 1: 0}, {1: IntMatrix.zeros(count, 0)}
    )
    cop = {0: [[(0, i, i)] for i in range(count)], 1: []}
    return DgCoalgebraWindow(comp, cop.__getitem__)


def test_coalgebra_map_reports_each_broken_law():
    one, two = vertices(1), vertices(2)

    def violations(src, dst, rows):
        blocks = {0: IntMatrix.from_rows(rows)}
        return CoalgebraMap(src, dst, blocks).validate().violations

    assert violations(two, two, [[1, 0], [0, 1]]) == []
    assert violations(two, two, [[1, 0], [0, 0]]) == [
        "counit is not preserved"
    ]
    assert violations(two, two, [[1, 2], [0, -1]]) == [
        "coproduct is not preserved on degree 0 element deg0#1"
    ]
    # two vertices have no coaugmentation, so swapping them is a map
    assert violations(two, two, [[0, 1], [1, 0]]) == []
    assert violations(one, one, [[1]]) == []
    assert violations(one, one, [[0]]) == [
        "counit is not preserved", "coaugmentation is not preserved"
    ]
    assert violations(one, two, [[1], [0]]) == [
        "target has no coaugmentation"
    ]


def test_coalgebra_map_reports_a_broken_chain_map():
    c = chains(nerve(FiniteMonoid.cyclic(2)), 3)
    blocks = {n: identity_matrix(c.rank(n)) for n in range(4)}
    blocks[2] = IntMatrix.from_rows([[3]])
    report = CoalgebraMap(c, c, blocks).validate()
    assert report.violations[0] == "not a chain map in degree 2"
