"""Simplicial sets: word calculus, nerves, the collapsed boundary of the
3-simplex."""

import itertools

import pytest
from laws import validate_simplicial
from quotient_oracle import QuotientSimplicialSet
from recursive_units import nerve_normalize

from barloop.monoids import FiniteMonoid, random_monoid
from barloop.simplicial import (
    ExplicitSimplicialSet,
    FormalSimplex,
    SimplicialSet,
    boundary_delta3,
    collapsed_boundary_delta3,
    degeneracy_insert,
    face_through_degeneracies,
    minimal_sphere,
    nerve,
    point,
    rp2_model,
    strip_units,
)
from barloop.weqcheck import bundled_complexes


def test_degeneracy_insert_normal_form():
    assert degeneracy_insert((), 0) == (0,)
    assert degeneracy_insert((0,), 0) == (1, 0)
    assert degeneracy_insert((2, 0), 1) == (3, 1, 0)
    assert degeneracy_insert((3, 1), 2) == (4, 2, 1)


def test_face_through_degeneracies():
    # cancellation
    assert face_through_degeneracies((0,), 0) == ((), None)
    assert face_through_degeneracies((0,), 1) == ((), None)
    # pass-through with index shifts
    assert face_through_degeneracies((0,), 2) == ((0,), 1)
    assert face_through_degeneracies((3, 1), 2) == ((2,), None)
    assert face_through_degeneracies((3, 0), 5) == ((3, 0), 3)


def _sphere3_faces(word):
    faces = {("e", i): FormalSimplex("*", (1, 0)) for i in range(4)}
    faces[("e", 3)] = FormalSimplex("*", word)
    return faces


def test_explicit_set_rejects_a_face_word_that_does_not_decrease():
    # minimal_sphere(3) with one face word out of normal form
    with pytest.raises(ValueError, match=r"face 3 of 'e' has degeneracy "
                       r"word \(0, 1\), not strictly decreasing"):
        ExplicitSimplicialSet([("*", 0), ("e", 3)], _sphere3_faces((0, 1)))
    ExplicitSimplicialSet([("*", 0), ("e", 3)], _sphere3_faces((1, 0)))


def test_validate_reports_a_face_word_that_does_not_decrease():
    # Wraps rather than subclasses an ExplicitSimplicialSet, whose
    # constructor would reject the overridden face.
    class BadWord(SimplicialSet):
        def __init__(self, base):
            self.base = base

        def n_simplices(self, n):
            return self.base.n_simplices(n)

        def dim(self, sid):
            return self.base.dim(sid)

        def face(self, sid, i):
            if (sid, i) == ("e", 3):
                return FormalSimplex("*", (0, 1))
            return self.base.face(sid, i)

    k = BadWord(minimal_sphere(3))
    assert validate_simplicial(k, 3).violations[0] == (
        "face 3 of 'e' has degeneracy word (0, 1), not strictly decreasing"
    )
    assert validate_simplicial(minimal_sphere(3), 3).ok


def test_minimal_spheres_validate():
    for n in (1, 2, 3):
        s = minimal_sphere(n)
        assert len(s.n_simplices(0)) == 1
        report = validate_simplicial(s, n + 1)
        assert report.ok, report.violations
        assert len(s.n_simplices(n)) == 1
        assert len(s.n_simplices(0)) == 1
        for m in range(1, n):
            assert s.n_simplices(m) == []


def test_sphere_one_uses_edge_label_t():
    s = minimal_sphere(1)
    assert s.n_simplices(1) == ["t"]
    assert s.face("t", 0) == FormalSimplex("*", ())
    assert s.face("t", 1) == FormalSimplex("*", ())


def test_nerve_counts_and_validity():
    for m, order in (
        (FiniteMonoid.cyclic(2), 2),
        (FiniteMonoid.cyclic(3), 3),
        (FiniteMonoid.idempotent_pair(), 2),
        (FiniteMonoid.left_zero_with_unit(2), 3),
    ):
        k = nerve(m)
        assert len(k.n_simplices(0)) == 1
        for n in range(4):
            assert len(k.n_simplices(n)) == (order - 1) ** n
        report = validate_simplicial(k, 3)
        assert report.ok, report.violations[:3]


def test_nerve_idempotent_faces():
    k = nerve(FiniteMonoid.idempotent_pair())
    b = k.monoid.elements.index("b")
    for i in range(3):
        assert k.face((b, b), i) == FormalSimplex((b,), ())


def test_nerve_group_face_degenerates():
    k = nerve(FiniteMonoid.cyclic(2))
    g = k.monoid.elements.index("g")
    assert k.face((g, g), 1) == FormalSimplex((), (0,))
    assert k.face((g, g), 0) == FormalSimplex((g,), ())


def test_corrupted_face_map_caught():
    k = boundary_delta3()
    simplices = [(sid, k.dim(sid)) for n in range(3) for sid in k.n_simplices(n)]
    faces = {
        (sid, i): k.face(sid, i)
        for sid, n in simplices if n
        for i in range(n + 1)
    }
    faces[("012", 0)] = FormalSimplex("13", ())
    with pytest.raises(
        ValueError, match=r"^face identity fails on '012': d0 d1 != d0 d0$"
    ):
        ExplicitSimplicialSet(simplices, faces)


def test_explicit_set_rejects_a_face_of_the_wrong_dimension():
    faces = _sphere3_faces((1, 0))
    faces[("e", 2)] = FormalSimplex("*", (0,))
    with pytest.raises(
        ValueError, match=r"^face 2 of 'e' has dimension 1, expected 2$"
    ):
        ExplicitSimplicialSet([("*", 0), ("e", 3)], faces)


def test_explicit_set_rejects_a_degeneracy_past_its_dimension():
    # s_2 s_1 of a vertex: neither acts; d_0 would push through both
    # and look for a face of the vertex
    faces = _sphere3_faces((1, 0))
    faces[("e", 1)] = FormalSimplex("*", (2, 1))
    with pytest.raises(
        ValueError,
        match=r"^face 1 of 'e' has degeneracy word \(2, 1\), out of range "
        r"in dimension 2$",
    ):
        ExplicitSimplicialSet([("*", 0), ("e", 3)], faces)


def test_boundary_delta3_validates():
    k = boundary_delta3()
    assert len(k.n_simplices(0)) != 1
    report = validate_simplicial(k, 2)
    assert report.ok
    assert [len(k.n_simplices(n)) for n in range(3)] == [4, 6, 4]


def test_collapsed_boundary_delta3_shape():
    q = collapsed_boundary_delta3()
    assert len(q.n_simplices(0)) == 1
    assert [len(q.n_simplices(n)) for n in range(3)] == [1, 3, 4]
    report = validate_simplicial(q, 2)
    assert report.ok, report.violations


def test_collapsed_boundary_delta3_matches_the_quotient_oracle():
    got = collapsed_boundary_delta3()
    want = QuotientSimplicialSet(
        boundary_delta3(), {"0", "1", "2", "3", "01", "02", "03"}
    )
    for n in range(5):
        assert got.n_simplices(n) == want.n_simplices(n)
        for sid in got.n_simplices(n):
            assert got.dim(sid) == want.dim(sid) == n
            for i in range(n + 1 if n else 0):
                assert got.face(sid, i) == want.face(sid, i)
        assert got.to_json_dict(n) == want.to_json_dict(n)


def test_rp2_model_validates():
    k = rp2_model()
    assert len(k.n_simplices(0)) == 1
    assert validate_simplicial(k, 2).ok


def test_point_and_json_round_trip():
    assert len(point().n_simplices(0)) == 1
    k = rp2_model()
    assert validate_simplicial(k, 2).ok
    edge = {"base": "*", "degens": []}
    assert k.to_json_dict(2) == {
        "simplices": [
            {"id": "*", "dim": 0, "faces": []},
            {"id": "e", "dim": 1, "faces": [edge, edge]},
            {"id": "sigma", "dim": 2, "faces": [
                {"base": "e", "degens": []},
                {"base": "*", "degens": [0]},
                {"base": "e", "degens": []},
            ]},
        ],
        "reduced": True,
    }


def test_nerve_json_materialization():
    k = nerve(FiniteMonoid.cyclic(2))
    assert validate_simplicial(k, 3).ok
    d = k.to_json_dict(3)
    assert [s["id"] for s in d["simplices"]] == [
        "()", "(1,)", "(1, 1)", "(1, 1, 1)"
    ]
    assert d["simplices"][3]["faces"] == [
        {"base": "(1, 1)", "degens": []},
        {"base": "(1,)", "degens": [0]},
        {"base": "(1,)", "degens": [1]},
        {"base": "(1, 1)", "degens": []},
    ]


def _strictly_decreasing(word):
    return all(a > b for a, b in zip(word, word[1:]))


def _words_stay_decreasing(k, top):
    """Build every formal simplex of dimension <= top that the
    degeneracies reach from the nondegenerate simplices of k, and check
    that face_formal and degeneracy_insert give a strictly decreasing
    word on each of them."""
    level = [FormalSimplex(b) for b in k.n_simplices(0)]
    for n in range(top + 1):
        above = (
            [FormalSimplex(b) for b in k.n_simplices(n + 1)] if n < top else []
        )
        for fs in dict.fromkeys(level):
            for i in range(n + 1):
                if n:
                    f = k.face_formal(fs, i)
                    assert _strictly_decreasing(f.word), (fs, i, f)
                d = FormalSimplex(fs.base, degeneracy_insert(fs.word, i))
                assert _strictly_decreasing(d.word), (fs, i, d)
                above.append(d)
        level = above


def test_face_and_degeneracy_words_stay_decreasing():
    for k in bundled_complexes().values():
        _words_stay_decreasing(k, 4)
    for seed in range(40):
        k = nerve(random_monoid(seed))
        _words_stay_decreasing(k, 4)


def test_strip_units_agrees_with_the_recursions_it_replaced():
    for m in (
        FiniteMonoid.cyclic(3),
        FiniteMonoid.idempotent_pair(),
        FiniteMonoid.left_zero_with_unit(2),
    ):
        k = nerve(m)
        for n in range(6):
            for tup in itertools.product(range(m.order()), repeat=n):
                want = nerve_normalize(k, tup)
                assert FormalSimplex(*strip_units(tup, m.identity)) == want
                if m.identity in tup or not n:
                    continue
                for i in range(1, n):
                    p = m.table[tup[i - 1]][tup[i]]
                    merged = tup[: i - 1] + (p,) + tup[i + 1 :]
                    assert k.face(tup, i) == nerve_normalize(k, merged)
