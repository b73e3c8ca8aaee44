"""Faces of nondegenerate simplices against the general face path.

``SimplicialSet.face_formal`` returns ``face(base, i)`` directly when the
formal simplex carries no degeneracies.  ``general_face_formal`` below is
the previous body, which pushed the face through the (empty) degeneracy
word and rebuilt the simplex from the composed word; both must agree on
every nondegenerate simplex up to dimension 4 and every face index, and
on the one-letter degeneracies of those up to dimension 3.

A nerve answers ``nondegenerate_faces`` and ``front_back_faces`` by tuple
slices and table lookups; both must equal the ``SimplicialSet`` methods
they override, which walk ``face`` and ``face_formal``, on the nerve of
every bundled monoid and of 40 random monoids up to dimension 4.
"""

import pytest
from quotient_oracle import QuotientSimplicialSet

from barloop.monoids import random_monoid
from barloop.simplicial import (
    FormalSimplex,
    NerveSimplicialSet,
    SimplicialSet,
    boundary_delta3,
    compose_degeneracies,
    face_through_degeneracies,
    nerve,
)
from barloop.weqcheck import bundled_complexes, bundled_monoids

TOP = 4


def general_face_formal(k, fs, i):
    word, rest = face_through_degeneracies(fs.word, i)
    if rest is None:
        return FormalSimplex(fs.base, word)
    inner = k.face(fs.base, rest)
    return FormalSimplex(
        inner.base, compose_degeneracies(word, inner.word)
    )


def assert_faces_agree(k):
    checked = 0
    for n in range(1, TOP + 1):
        for sid in k.n_simplices(n):
            fs = FormalSimplex(sid)
            for i in range(n + 1):
                got = k.face_formal(fs, i)
                assert isinstance(got, FormalSimplex)
                assert got == general_face_formal(k, fs, i)
                checked += 1
            if n < TOP:
                for j in range(n + 1):
                    dg = FormalSimplex(sid, (j,))
                    for i in range(n + 2):
                        assert k.face_formal(dg, i) == general_face_formal(
                            k, dg, i
                        )
    return checked


@pytest.mark.parametrize("name", sorted(bundled_complexes()))
def test_bundled_complexes(name):
    k = bundled_complexes()[name]
    assert_faces_agree(k)


@pytest.mark.parametrize("seed", range(40))
def test_nerves_of_random_monoids(seed):
    k = nerve(random_monoid(seed))
    assert_faces_agree(k)


@pytest.mark.parametrize(
    "sub",
    [{"0"}, {"0", "1", "01"}, {"0", "1", "2", "3", "01", "02", "03"}],
    ids=["vertex", "edge", "star"],
)
def test_quotients(sub):
    k = QuotientSimplicialSet(boundary_delta3(), sub)
    assert assert_faces_agree(k)


def assert_nerve_shortcuts_agree(m):
    k = nerve(m)
    assert isinstance(k, NerveSimplicialSet)
    for n in range(TOP + 1):
        for sid in k.n_simplices(n):
            if n:
                assert k.nondegenerate_faces(sid) == (
                    SimplicialSet.nondegenerate_faces(k, sid)
                )
            assert k.front_back_faces(sid) == (
                SimplicialSet.front_back_faces(k, sid)
            )


@pytest.mark.parametrize("name", sorted(bundled_monoids()))
def test_nerve_shortcuts_on_bundled_monoids(name):
    assert_nerve_shortcuts_agree(bundled_monoids()[name])


@pytest.mark.parametrize("seed", range(40))
def test_nerve_shortcuts_on_random_monoids(seed):
    assert_nerve_shortcuts_agree(random_monoid(seed))
