"""The unit-stripping recursion that barloop.simplicial replaced.

``nerve_normalize`` is ``NerveSimplicialSet.normalize_tuple``, copied:
it drops the first unit entry, recurses on the rest and inserts that
entry's degeneracy outside the result.  The differential test in
test_simplicial.py requires ``strip_units`` and the nerve's faces to
agree with it.
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
