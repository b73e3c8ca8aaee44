"""Assertions shared by several test modules.

assert_smith_diagonal rechecks that a Smith normal form diagonal is in
normal form; assert_same_coalgebra_window compares two coalgebra
windows field by field; is_group says whether every element of a finite
monoid has a two-sided inverse.
"""


def is_group(m):
    """Whether every element of the FiniteMonoid m has a two-sided
    inverse."""
    e = m.identity
    n = m.order()
    return all(
        any(m.table[i][j] == e and m.table[j][i] == e for j in range(n))
        for i in range(n)
    )


def assert_smith_diagonal(m, s):
    """The diagonal of s, the SnfResult of the matrix m, has length
    min(rows, cols), is nonnegative, has its zeros last, and each entry
    divides the next."""
    d = s.d
    assert len(d) == min(m.rows, m.cols), "diagonal length is not min(rows, cols)"
    for i, x in enumerate(d):
        assert x >= 0, f"negative entry at position {i}"
    for i in range(len(d) - 1):
        assert d[i] or not d[i + 1], "zero before nonzero on the diagonal"
        assert not d[i] or d[i + 1] % d[i] == 0, (
            f"divisibility fails at position {i}"
        )


def assert_same_coalgebra_window(a, b):
    """Coalgebra windows a and b have the same degrees, ranks, bases,
    labels, boundaries, coproduct, counit and coaugmentation."""
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
    assert a.coproduct == b.coproduct
    assert a.counit == b.counit
    assert a.coaugmentation == b.coaugmentation
