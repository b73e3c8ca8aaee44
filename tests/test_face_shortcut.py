"""Faces of nondegenerate simplices against the general face path.

``SimplicialSet.face_formal`` returns ``face(base, i)`` directly when the
formal simplex carries no degeneracies.  ``general_face_formal`` below is
the previous body, which pushed the face through the (empty) degeneracy
word and rebuilt the simplex from the composed word; both must agree on
every nondegenerate simplex up to dimension 4 and every face index, and
on the one-letter degeneracies of those up to dimension 3.

A nerve answers ``face_rows`` and ``cut_rows``, the rows a chain window
reads, by arithmetic on positions in product order; both must equal the
``SimplicialSet`` methods they override, which walk ``face`` and
``face_formal`` and look each face up, up to dimension 5 on the nerve of
every bundled monoid, of 40 random monoids, of the trivial monoid and
Z/2 (no or one non-identity element), and of Z/4 with its identity
moved to each index.  The contract the arithmetic reads is pinned too:
``n_simplices(n)`` lists simplex j as the base-k digits of j, and the
rows a chain window stores are the ints of its index.
"""

import pytest
from quotient_oracle import QuotientSimplicialSet

from barloop.dgcoalg import chains
from barloop.monoids import FiniteMonoid, random_monoid
from barloop.simplicial import (
    FormalSimplex,
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


def with_identity_at(m, slot):
    """m with its identity moved to index slot, the other elements
    keeping their order."""
    order = [e for e in range(m.order()) if e != m.identity]
    order.insert(slot, m.identity)
    new = {old: e for e, old in enumerate(order)}
    table = [[new[m.table[a][b]] for b in order] for a in order]
    return FiniteMonoid([m.elements[a] for a in order], slot, table)


def assert_nerve_positions_agree(m, top=5):
    k = nerve(m)
    bases = [k.n_simplices(n) for n in range(top + 1)]
    index = [{b: j for j, b in enumerate(basis)} for basis in bases]
    for n in range(top + 1):
        if n:
            got = [list(col) for col in k.face_rows(n, bases[n], index[n - 1])]
            assert got == list(
                SimplicialSet.face_rows(k, n, bases[n], index[n - 1])
            )
        assert list(k.cut_rows(n, bases[n], index)) == list(
            SimplicialSet.cut_rows(k, n, bases[n], index)
        )


@pytest.mark.parametrize("name", sorted(bundled_monoids()))
def test_nerve_shortcuts_on_bundled_monoids(name):
    assert_nerve_positions_agree(bundled_monoids()[name])


@pytest.mark.parametrize("seed", range(40))
def test_nerve_shortcuts_on_random_monoids(seed):
    assert_nerve_positions_agree(random_monoid(seed))


@pytest.mark.parametrize(
    "m", [FiniteMonoid.trivial(), FiniteMonoid.cyclic(2)], ids=["k0", "k1"]
)
def test_nerve_positions_with_no_or_one_letter(m):
    assert_nerve_positions_agree(m, top=6)


@pytest.mark.parametrize("slot", range(4))
def test_nerve_positions_with_the_identity_at_each_index(slot):
    m = with_identity_at(FiniteMonoid.cyclic(4), slot)
    assert m.identity == slot and m.elements[slot] == "1"
    assert_nerve_positions_agree(m)


@pytest.mark.parametrize("slot", range(4))
def test_nerve_lists_simplex_j_as_the_digits_of_j(slot):
    m = with_identity_at(FiniteMonoid.cyclic(4), slot)
    k = nerve(m)
    letters = [e for e in range(m.order()) if e != m.identity]
    for n in range(5):
        assert k.n_simplices(n) == [
            tuple(letters[j // 3 ** (n - 1 - t) % 3] for t in range(n))
            for j in range(3**n)
        ]


def test_nerve_chain_rows_are_the_index_ints():
    # above 256 an int computed afresh is a new object; the window must
    # store the ones its index holds
    c = chains(nerve(FiniteMonoid.cyclic(5)), 6)
    rows = [list(c.complex.index[n].values()) for n in range(7)]
    stored = [
        (r, rows[5]) for j in range(c.rank(6))
        for r, _ in c.complex.boundary(6).column(j)
    ]
    for terms in c.deltas(5):
        for p, front, back in terms:
            stored += [(front, rows[p]), (back, rows[5 - p])]
    assert max(r for r, _ in stored) > 256
    assert all(r is row_ints[r] for r, row_ints in stored)
