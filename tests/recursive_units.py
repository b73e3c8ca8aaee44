"""The two unit-stripping recursions that barloop.simplicial replaced.

``nerve_normalize`` is ``NerveSimplicialSet.normalize_tuple`` and
``localized_normalize`` is ``LocalizedSimplicialSet._znormalize``, copied
with the ``_reinterpret`` they called: each drops the first unit entry,
recurses on the rest and inserts that entry's degeneracy outside the
result.  The differential test in test_simplicial.py requires
``strip_units`` and the localized set's faces to agree with them.
"""

from barloop.simplicial import FormalSimplex, degeneracy_insert


def nerve_normalize(k, tup):
    """Formal simplex of the nerve k for a tuple that may contain
    identity entries."""
    e = k.monoid.identity
    for j, x in enumerate(tup):
        if x == e:
            inner = nerve_normalize(k, tup[:j] + tup[j + 1 :])
            return FormalSimplex(inner.base, degeneracy_insert(inner.word, j))
    return FormalSimplex(tup, ())


def _reinterpret(loc, c, tup):
    if loc._glued(tup):
        if loc.style == "edge-circle":
            return FormalSimplex(("k", loc.edges[c]), ())
        m = loc.base_set.monoid
        x = loc.edges[c][0]
        powers = tuple(m.power(x, a) for a in tup)
        inner = nerve_normalize(loc.base_set, powers)
        return FormalSimplex(("k", inner.base), inner.word)
    return FormalSimplex(("j", c, tup), ())


def localized_normalize(loc, c, tup):
    """Formal simplex of the localized set loc for an integer tuple of
    glued copy c that may contain zero entries."""
    for j, a in enumerate(tup):
        if a == 0:
            inner = localized_normalize(loc, c, tup[:j] + tup[j + 1 :])
            return FormalSimplex(inner.base, degeneracy_insert(inner.word, j))
    if not tup:
        return FormalSimplex(("k", loc.base_set.basepoint()), ())
    return _reinterpret(loc, c, tup)
