"""The label-parsing completion check that barloop.weqcheck replaced.

``_induced_completion_bijective`` and its three helpers are copied
verbatim from the version that named each element of a completion table
by a word string, split the name on ``*`` and decoded each letter back
to a monoid element.  Only ``_completion_letters`` differs: group
completions no longer store the labels of their formal inverses, so it
reads them from ``group_ring`` with the suffix ``'``, which is how
``group_completion`` labels them.  The check runs on
``RewritingCompletion``: the completion of a monoid's table presentation
by rewriting, with the completed rules its table was built from; the
table is built here, since ``group_completion`` builds none.
test_weqcheck.py requires the current check to agree with this one on
every homomorphism among small monoids.
"""

from barloop.errors import MismatchAt
from barloop.monoids import (
    FiniteMonoid,
    MonoidPresentation,
    group_ring,
    inverse_label,
)
from barloop.rewrite import basis_in_degree, complete


class RewritingCompletion:
    """Group completion of MonoidPresentation.from_monoid(m) by rewriting:
    its table (monoid, of the given order) and its completed rules.

    The table is built on the irreducible degree-0 words, each labelled
    by its word string, the empty word by "1" primed past the letters;
    products are normal forms of concatenations."""

    def __init__(self, m):
        pres = MonoidPresentation.from_monoid(m)
        alg = group_ring(pres, "'")[0]
        self.rules = complete(alg)
        words = basis_in_degree(self.rules, 0)
        one = inverse_label("1", {lbl for lbl, _ in alg.generators}, "")
        idx = {w: i for i, w in enumerate(words)}
        table = []
        for u in words:
            row = []
            for v in words:
                (w,) = self.rules.normal_form({u + v: 1}).keys()
                row.append(idx[w])
            table.append(row)
        self.monoid = FiniteMonoid(
            [alg.word_str(w) if w else one for w in words], idx[()], table
        )
        self.order = len(words)


def _group_inverse(m, x):
    for y in range(m.order()):
        if m.table[x][y] == m.identity and m.table[y][x] == m.identity:
            return y
    raise MismatchAt(f"{m.elements[x]} has no inverse in a completion table")


def _completion_letters(c, m):
    """Letter decoding for the completion c of the monoid m: maps a
    generator or formal-inverse label back to (element index, exponent)."""
    letters = {}
    _, inverses = group_ring(MonoidPresentation.from_monoid(m), "'")
    for g, lbl in inverses.items():
        idx = m.elements.index(g)
        letters[g] = (idx, 1)
        letters[lbl] = (idx, -1)
    return letters


def _canonical_completion_image(c, m, elem):
    """Index in the completion table of the class of a monoid element."""
    if elem == m.identity:
        return c.monoid.identity
    alg = c.rules.algebra
    nf = c.rules.normal_form({(alg.gen_index(m.elements[elem]),): 1})
    if list(nf.values()) != [1]:
        return None
    (word,) = nf.keys()
    if not word:
        return c.monoid.identity
    return c.monoid.elements.index(alg.word_str(word))


def _induced_completion_bijective(f, cs, cd):
    """Whether the map induced on group completion tables is a bijection.

    Returns True/False, or None when the tables cannot be decoded (e.g.
    a completion carries no rules).
    """
    if cs.rules is None or cd.rules is None:
        return None
    src_letters = _completion_letters(cs, f.src)
    dst_m = cd.monoid
    seen = set()
    for idx, lbl in enumerate(cs.monoid.elements):
        acc = dst_m.identity
        if idx != cs.monoid.identity:
            for letter in lbl.split("*"):
                if letter not in src_letters:
                    return None
                elem, exp = src_letters[letter]
                img = _canonical_completion_image(cd, f.dst, f(elem))
                if img is None:
                    return None
                if exp == -1:
                    img = _group_inverse(dst_m, img)
                acc = dst_m.table[acc][img]
        seen.add(acc)
    return len(seen) == cs.monoid.order() == cd.monoid.order()
