"""Loop group levels, fundamental group presentations, and the degree-zero
ring comparison."""

import itertools

import pytest
from checks import abelianization
from laws import validate_simplicial
from loop_group_oracle import check_group_identities

from barloop import loopgroup
from barloop.dgcoalg import chains
from barloop.errors import MismatchAt, NotReduced
from barloop.exactlin import homology_window
from barloop.loopgroup import (
    free_inverse,
    free_reduce,
    group_ring,
    h0_compare,
    kan_loop_group,
    pi1_presentation,
)
from barloop.monoids import FiniteMonoid, MonoidPresentation, group_completion
from barloop.simplicial import (
    FormalSimplex,
    SimplicialSet,
    boundary_delta3,
    collapsed_boundary_delta3,
    minimal_sphere,
    nerve,
    point,
    rp2_model,
)
from barloop.weqcheck import bundled_complexes


def test_free_words_reduce():
    w = free_reduce([("a", 1), ("b", 1), ("b", -1), ("a", -1), ("c", 1)])
    assert w == (("c", 1),)
    assert free_inverse(w) == (("c", -1),)
    assert free_reduce(w + free_inverse(w)) == ()


def test_point_loop_group_is_trivial():
    for level in kan_loop_group(point(), 3):
        assert level.rank() == 0


def test_circle_loop_group_levels():
    levels = kan_loop_group(minimal_sphere(1), 3)
    assert [lv.rank() for lv in levels] == [1, 1, 1, 1]
    assert levels[0].labels == ["t"]
    assert levels[1].labels == ["s1*t"]
    assert levels[2].labels == ["s2*s1*t"]
    # the one generator is sent to the one below by every face
    assert levels[1].faces[0] == [(("t", 1),), (("t", 1),)]
    assert levels[2].faces[0] == [(("s1*t", 1),)] * 3
    # degeneracies shift the tower up
    assert levels[0].degeneracies[0] == [(("s1*t", 1),)]


def test_circle_level_zero_only():
    levels = kan_loop_group(minimal_sphere(1), 0)
    assert len(levels) == 1
    assert levels[0].rank() == 1
    assert levels[0].labels == ["t"]
    assert levels[0].faces == [[]]


def test_sphere_loop_group_levels():
    levels = kan_loop_group(minimal_sphere(2), 2)
    assert [lv.rank() for lv in levels] == [0, 1, 2]
    assert levels[1].labels == ["e"]
    assert set(levels[2].labels) == {"s1*e", "s2*e"}
    # the generator in level 1 has trivial faces: they all land in rank 0
    assert levels[1].faces[0] == [(), ()]


def test_projective_plane_loop_group():
    levels = kan_loop_group(rp2_model(), 1)
    assert levels[0].labels == ["e"]
    assert set(levels[1].labels) == {"sigma", "s1*e"}
    sig = levels[1].labels.index("sigma")
    # d0 [sigma] = [d1 sigma][d0 sigma]^{-1} = e^{-1}, d1 [sigma] = [d2] = e
    assert levels[1].faces[sig] == [(("e", -1),), (("e", 1),)]


def test_nerve_loop_group_ranks_double():
    # one nondegenerate simplex per dimension upstairs gives 2^n downstairs
    levels = kan_loop_group(nerve(FiniteMonoid.cyclic(2)), 3)
    assert [lv.rank() for lv in levels] == [1, 2, 4, 8]


def test_collapsed_boundary_loop_group_validates():
    levels = kan_loop_group(collapsed_boundary_delta3(), 2)
    assert levels[0].rank() == 3
    assert levels[1].rank() == 4 + 3 * 1  # triangles plus s1 of each edge


@pytest.mark.parametrize(
    "k",
    [minimal_sphere(2), rp2_model(), collapsed_boundary_delta3()],
    ids=["sphere2", "rp2", "delta3-collapsed"],
)
def test_levels_list_no_more_degeneracy_words_than_their_rank(monkeypatch, k):
    """Each level lists degeneracy words only for dimensions that have
    simplices, so it never lists more words than it has generators."""
    listed = []
    combinations = itertools.combinations

    def recording(pool, r):
        words = list(combinations(pool, r))
        listed.append(len(words))
        return iter(words)

    calls = []
    level_simplices = loopgroup._free_level_simplices

    def level(k, d):
        listed.clear()
        out = level_simplices(k, d)
        calls.append((d, sum(listed), len(out)))
        return out

    monkeypatch.setattr(itertools, "combinations", recording)
    monkeypatch.setattr(loopgroup, "_free_level_simplices", level)
    for hi in (1, 4, 9):
        calls.clear()
        kan_loop_group(k, hi)
        assert [d for d, _, _ in calls] == list(range(1, hi + 3))
        assert all(words <= rank for _, words, rank in calls), calls


@pytest.mark.parametrize("name", sorted(bundled_complexes()))
def test_bundled_loop_groups_satisfy_the_group_identities(name):
    """kan_loop_group checks none of the simplicial group identities; the
    oracle checks them here on every bundled complex, which includes the
    nerve of every bundled monoid, with level 4's d_i s_j included."""
    check_group_identities(kan_loop_group(bundled_complexes()[name], 5))


@pytest.mark.parametrize(
    "k",
    [minimal_sphere(2), rp2_model(), collapsed_boundary_delta3()],
    ids=["sphere2", "rp2", "delta3-collapsed"],
)
def test_one_letter_images_are_read_directly(k):
    """Every face and degeneracy word in the levels is reduced, so the
    image of a one-letter word is the word listed for its generator: the
    oracle reads it straight off the level."""
    words = [
        w
        for level in kan_loop_group(k, 4)
        for per_gen in (*level.faces, *level.degeneracies)
        for w in per_gen
    ]
    assert words
    assert all(free_reduce(w) == w for w in words)


class OneBadFace(SimplicialSet):
    """A simplicial set with one face of one simplex replaced."""

    def __init__(self, base, sid, i, face):
        self.base, self.sid, self.i, self.bad = base, sid, i, face

    def n_simplices(self, n):
        return self.base.n_simplices(n)

    def dim(self, sid):
        return self.base.dim(sid)

    def face(self, sid, i):
        if (sid, i) == (self.sid, self.i):
            return self.bad
        return self.base.face(sid, i)


def test_a_corrupted_face_breaks_a_group_identity():
    k = nerve(FiniteMonoid.cyclic(3))
    assert k.face((1, 1, 1), 0) == FormalSimplex((1, 1), ())
    bad = OneBadFace(k, (1, 1, 1), 0, FormalSimplex((1, 2), ()))
    assert not validate_simplicial(bad, 3).ok
    levels = kan_loop_group(bad, 2)
    with pytest.raises(MismatchAt, match=r"d0 d1 = d0 d0 at level 2 on "
                       r"\(1, 1, 1\)"):
        check_group_identities(levels)


@pytest.mark.parametrize(
    "damage",
    [lambda w: w + w, free_inverse, lambda w: ()],
    ids=["two-letters", "inverse", "empty"],
)
def test_a_degeneracy_off_the_generators_is_rejected(damage):
    """Every degeneracy sends a generator to a generator; one sent to any
    other word breaks s_i s_j = s_{j+1} s_i."""
    levels = kan_loop_group(minimal_sphere(2), 3)
    check_group_identities(levels)
    degeneracies = levels[1].degeneracies[0]
    degeneracies[0] = damage(degeneracies[0])
    with pytest.raises(MismatchAt, match="s0 s1 = s2 s0 at level 1 on e$"):
        check_group_identities(levels)


def test_loop_group_requires_reduced():
    with pytest.raises(NotReduced):
        kan_loop_group(boundary_delta3(), 1)


def test_circle_pi1_is_free_on_one():
    pres = pi1_presentation(minimal_sphere(1))
    assert pres.generators == ["t"]
    assert pres.relations == []


def test_sphere_pi1_is_trivial():
    pres = pi1_presentation(minimal_sphere(2))
    assert pres.generators == []
    comp = group_completion(pres)
    assert comp.order == 1


def test_collapsed_boundary_pi1_is_trivial():
    comp = group_completion(pi1_presentation(collapsed_boundary_delta3()))
    assert comp.order == 1


def test_projective_plane_pi1_has_two_elements():
    pres = pi1_presentation(rp2_model())
    assert ((), ("e", "e")) in pres.relations
    comp = group_completion(pres)
    assert comp.order == 2


def test_cyclic_nerve_pi1_recovers_the_group():
    for n in (2, 3, 4):
        comp = group_completion(pi1_presentation(nerve(FiniteMonoid.cyclic(n))))
        assert comp.order == n


def relation_labels(alg):
    return [
        tuple(tuple(alg.gen_label(g) for g in w) for w in (*lhs, *rhs))
        for lhs, rhs in alg.relations
    ]


def test_both_inverse_adjunctions_keep_labels_and_relation_order():
    # group_ring adjoins inverses for h0_compare (suffix "_inv") and for
    # group_completion (suffix "'") alike: the new relations follow the
    # old ones, g.g' = 1 before g'.g = 1
    pres = pi1_presentation(nerve(FiniteMonoid.idempotent_pair()))
    assert pres.generators == ["(1,)"]
    assert pres.relations == [(("(1,)",), ("(1,)", "(1,)"))]
    for suffix in ("_inv", "'"):
        g_inv = "(1,)" + suffix
        alg, inv = group_ring(pres, suffix)
        assert inv == {"(1,)": g_inv}
        assert [lbl for lbl, _ in alg.generators] == ["(1,)", g_inv]
        assert relation_labels(alg) == [
            (("(1,)",), ("(1,)", "(1,)")),
            (("(1,)", g_inv), ()),
            ((g_inv, "(1,)"), ()),
        ]
    # a label already taken is primed, and each generator's two
    # relations stay together
    alg, inv = group_ring(MonoidPresentation(["g", "g_inv"], []))
    assert inv == {"g": "g_inv'", "g_inv": "g_inv_inv"}
    assert [lbl for lbl, _ in alg.generators] == [
        "g", "g_inv", "g_inv'", "g_inv_inv"
    ]
    assert relation_labels(alg) == [
        (("g", "g_inv'"), ()),
        (("g_inv'", "g"), ()),
        (("g_inv", "g_inv_inv"), ()),
        (("g_inv_inv", "g_inv"), ()),
    ]


HUREWICZ_CASES = [
    minimal_sphere(1),
    minimal_sphere(2),
    minimal_sphere(3),
    rp2_model(),
    collapsed_boundary_delta3(),
    nerve(FiniteMonoid.trivial()),
    nerve(FiniteMonoid.cyclic(2)),
    nerve(FiniteMonoid.cyclic(3)),
    nerve(FiniteMonoid.cyclic(4)),
    nerve(FiniteMonoid.idempotent_pair()),
    nerve(FiniteMonoid.left_zero_with_unit(2)),
]


def test_abelianized_pi1_matches_first_homology():
    for k in HUREWICZ_CASES:
        ab = abelianization(pi1_presentation(k))
        h1 = homology_window(chains(k, 2).complex)[1]
        assert h1.exact
        assert ab == h1.group(), f"{k}: {ab} vs {h1.describe()}"


def test_abelianization_of_free_and_torsion_presentations():
    assert abelianization(pi1_presentation(minimal_sphere(1))) == (1, ())
    assert abelianization(pi1_presentation(rp2_model())) == (0, (2,))


def test_group_ring_of_the_circle():
    alg, inv = group_ring(pi1_presentation(minimal_sphere(1)))
    assert inv == {"t": "t_inv"}
    assert [lbl for lbl, _ in alg.generators] == ["t", "t_inv"]
    assert all(d == 0 for _, d in alg.generators)


def test_h0_compare_circle():
    cert = h0_compare(minimal_sphere(1))
    assert cert.ok
    assert cert.status == "certified"


def test_h0_compare_sphere():
    cert = h0_compare(minimal_sphere(2))
    assert cert.ok


def test_h0_compare_collapsed_boundary():
    cert = h0_compare(collapsed_boundary_delta3())
    assert cert.ok


def test_h0_compare_projective_plane():
    cert = h0_compare(rp2_model())
    assert cert.ok


def test_ring_iso_checks_list_relations_then_generators():
    kinds = [c["kind"] for c in h0_compare(rp2_model()).details["checks"]]
    assert kinds == (
        ["f(relation of source) = 0"] * 3
        + ["g(relation of target) = 0"] * 3
        + ["g(f(e)) = e", "g(f(e_inv)) = e_inv"]
        + ["f(g(e)) = e", "f(g(e_inv)) = e_inv"]
    )


def test_loop_group_json_round_trip_shape():
    level = kan_loop_group(minimal_sphere(1), 1)[1]
    d = level.to_json_dict()
    assert d["level"] == 1
    assert d["generators"] == ["s1*t"]
    assert d["faces"] == [[[["t", 1]], [["t", 1]]]]
