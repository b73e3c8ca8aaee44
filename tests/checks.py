"""Assertions and builders shared by several test modules.

assert_smith_diagonal rechecks that a Smith normal form diagonal is in
normal form; assert_same_coalgebra_window compares two coalgebra
windows field by field; is_group says whether every element of a finite
monoid has a two-sided inverse; isomorphic_as_tables says whether two
finite monoids have isomorphic tables; quotient_table builds the table
of a group completion from its classes; coproduct reads every degree of
a coalgebra window's coproduct; poly builds a polynomial of a presented
algebra from label words; identity_matrix builds an identity IntMatrix;
assert_stored_form checks that a matrix holds its columns in the form
the IntMatrix constructor trusts; abelianization computes the
abelianized group of a presentation with the dense Smith normal form of
dense_smith.py, so it shares no code with the homology it is compared
against.
"""

from dense_smith import smith_kernel

from barloop.exactlin import IntMatrix
from barloop.monoids import FiniteMonoid
from barloop.rewrite import poly_iadd_term


def identity_matrix(n):
    """The n x n identity IntMatrix."""
    return IntMatrix.from_columns(n, ([(j, 1)] for j in range(n)))


def quotient_table(m, classes):
    """The FiniteMonoid m modulo the classes of a group completion:
    classes[a] is the position of the class of element a, each class is
    labelled by its first element, and the product of two classes is
    the class of the product of their first elements."""
    firsts = {}
    for a, c in enumerate(classes):
        firsts.setdefault(c, a)
    reps = [firsts[c] for c in range(len(firsts))]
    return FiniteMonoid(
        [m.elements[a] for a in reps],
        classes[m.identity],
        [[classes[m.table[a][b]] for b in reps] for a in reps],
    )


def coproduct(window):
    """Every degree's coproduct terms of a coalgebra window, one list per
    basis element, each degree read once through deltas."""
    return {n: list(window.deltas(n)) for n in range(window.hi + 1)}


def holds_no_coproduct(window):
    """The window keeps its complex and its coproduct builder, and no
    coproduct term it has built."""
    return set(vars(window)) == {"complex", "_coproduct_of"}


def poly(alg, terms):
    """Polynomial of the presented algebra alg from {label word: coeff}."""
    out = {}
    for w, c in terms.items():
        poly_iadd_term(out, alg.word(*w), c, alg.modulus)
    return out


def is_group(m):
    """Whether every element of the FiniteMonoid m has a two-sided
    inverse."""
    e = m.identity
    n = m.order()
    return all(
        any(m.table[i][j] == e and m.table[j][i] == e for j in range(n))
        for i in range(n)
    )


def isomorphic_as_tables(a, b):
    """Whether some bijection of elements carries the table of the
    FiniteMonoid a onto that of b: a backtracking search that extends a
    partial map one element at a time and drops it once a known product
    disagrees."""
    n = a.order()
    if n != b.order():
        return False
    images = [None] * n
    images[a.identity] = b.identity
    used = {b.identity}
    todo = [i for i in range(n) if i != a.identity]

    def consistent():
        for p in range(n):
            fp = images[p]
            if fp is None:
                continue
            for q in range(n):
                fq = images[q]
                if fq is None:
                    continue
                fr = images[a.table[p][q]]
                if fr is not None and b.table[fp][fq] != fr:
                    return False
        return True

    def extend(k):
        if k == len(todo):
            return True
        x = todo[k]
        for y in range(n):
            if y in used:
                continue
            images[x] = y
            used.add(y)
            if consistent() and extend(k + 1):
                return True
            images[x] = None
            used.discard(y)
        return False

    return extend(0)


def assert_smith_diagonal(m, d):
    """The Smith normal form diagonal d of the matrix m has length
    min(rows, cols), is nonnegative, has its zeros last, and each entry
    divides the next."""
    assert len(d) == min(m.rows, m.cols), "diagonal length is not min(rows, cols)"
    for i, x in enumerate(d):
        assert x >= 0, f"negative entry at position {i}"
    for i in range(len(d) - 1):
        assert d[i] or not d[i + 1], "zero before nonzero on the diagonal"
        assert not d[i] or d[i + 1] % d[i] == 0, (
            f"divisibility fails at position {i}"
        )


def assert_stored_form(m):
    """Every column of the matrix m is in stored form: its (row, coeff)
    pairs are sorted by row, the rows are distinct and in range(m.rows),
    and every coefficient is nonzero."""
    for j in range(m.cols):
        col = m.column(j)
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)), f"column {j} is not in row order"
        assert all(0 <= i < m.rows for i in rows), f"column {j} row range"
        assert all(c for _, c in col), f"column {j} stores a zero"


def assert_same_coalgebra_window(a, b):
    """Coalgebra windows a and b have the same degrees, ranks, bases,
    labels, boundaries and coproduct."""
    ca, cb = a.complex, b.complex
    assert ca.hi == cb.hi
    assert ca.ranks == cb.ranks
    assert ca.bases == cb.bases
    for n in range(ca.hi + 1):
        assert [ca.label(n, i) for i in range(ca.rank(n))] == [
            cb.label(n, i) for i in range(cb.rank(n))
        ], f"labels in degree {n}"
    for n in range(1, ca.hi + 1):
        assert ca.boundary(n) == cb.boundary(n), f"boundary in degree {n}"
    assert coproduct(a) == coproduct(b)


def abelianization(pres):
    """(free rank, torsion divisors >= 2) of the abelianized group of a
    presentation read as a group presentation: the cokernel of its
    relation matrix, one row per generator and one column u - v per
    relation u = v.  Compares directly against HomologyEntry.group()."""
    idx = {g: i for i, g in enumerate(pres.generators)}
    mat = [[0] * len(pres.relations) for _ in idx]
    for j, (u, v) in enumerate(pres.relations):
        for g in u:
            mat[idx[g]][j] += 1
        for g in v:
            mat[idx[g]][j] -= 1
    d = smith_kernel(mat, len(idx), len(pres.relations))
    nonzero = [x for x in d if x]
    return len(idx) - len(nonzero), tuple(x for x in nonzero if x >= 2)
