"""Law checks that only the tests run.

The package builds its chain windows, coalgebra windows and simplicial
sets so that their laws hold by construction, and checks each input
where it enters; no command re-checks a law on what it derives.  These
are the checks the tests run instead, on every bundled input and on
random ones:

- ``validate_complex``: d∘d = 0 on a chain window, one column at a time,
  without forming a product; raises MismatchAt at the first degree that
  fails.
- ``validate_coalgebra``: the counit laws (the counit is 1 on every
  degree-0 element), coassociativity, the coderivation law with Koszul
  signs (d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy) and, when degree 0
  has one element, that it is group-like, on a dg coalgebra window.
- ``validate_simplicial``: the simplicial identities on every
  nondegenerate simplex up to a dimension, by the same per-simplex check
  (``_simplex_violations``) that ExplicitSimplicialSet runs on its input.

The last two return a ValidationReport listing every violation.
"""

from barloop.errors import MismatchAt, ValidationReport


def validate_complex(window):
    """Check d∘d == 0 on all composable pairs, one column at a time."""
    for n in range(2, window.hi + 1):
        d_below = window.boundaries[n - 1]
        below = [d_below.column(t) for t in range(d_below.cols)]
        d_n = window.boundaries[n]
        for j in range(d_n.cols):
            acc = {}
            for t, b in d_n.column(j):
                for i, x in below[t]:
                    acc[i] = acc.get(i, 0) + b * x
            if any(acc.values()):
                raise MismatchAt(f"d∘d != 0 from degree {n}", degree=n)
    return True


def validate_coalgebra(c):
    """Check the counit laws, coassociativity, the coderivation law and
    the coaugmentation of a dg coalgebra window, reading each degree's
    coproduct once."""
    cop = {n: list(c.deltas(n)) for n in range(c.hi + 1)}
    bad = []
    bad.extend(_check_counit(c, cop))
    bad.extend(_check_coassoc(c, cop))
    bad.extend(_check_coderivation(c, cop))
    if c.rank(0) == 1:
        bad.extend(_check_coaugmentation(cop))
    return ValidationReport(bad)


def _count(pairs):
    """{key: coefficient} of (key, coefficient) pairs, zeros dropped."""
    out = {}
    for key, coeff in pairs:
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def _d_of(c, n, j):
    """The (index, coeff) pairs of d of element j of degree n."""
    return c.complex.boundary(n).column(j) if 0 < n <= c.hi else ()


def _check_counit(c, cop):
    # the counit is 1 on every degree-0 element
    bad = []
    for n, per_element in cop.items():
        for j, terms in enumerate(per_element):
            left = _count((i2, 1) for p, _, i2 in terms if p == 0)
            right = _count((i1, 1) for p, i1, _ in terms if p == n)
            for side, got in (("counit (x) 1", left), ("1 (x) counit", right)):
                if got != {j: 1}:
                    bad.append(
                        f"({side}) Delta != id on degree {n} element "
                        f"{c.complex.label(n, j)}"
                    )
    return bad


def _check_coassoc(c, cop):
    bad = []
    for n, per_element in cop.items():
        for j, terms in enumerate(per_element):
            lhs = _count(
                ((q, p - q, k1, k2, i2), 1)
                for p, i1, i2 in terms
                for q, k1, k2 in cop[p][i1]
            )
            rhs = _count(
                ((p, q, i1, k1, k2), 1)
                for p, i1, i2 in terms
                for q, k1, k2 in cop[n - p][i2]
            )
            if lhs != rhs:
                bad.append(
                    f"coassociativity fails on degree {n} element "
                    f"{c.complex.label(n, j)}"
                )
    return bad


def _check_coderivation(c, cop):
    bad = []
    for n in range(1, c.hi + 1):
        for j, terms in enumerate(cop[n]):
            lhs = _count(
                (key, coeff)
                for i, coeff in _d_of(c, n, j)
                for key in cop[n - 1][i]
            )
            rhs = _count(
                [((p - 1, i, i2), c2)
                 for p, i1, i2 in terms for i, c2 in _d_of(c, p, i1)]
                + [((p, i1, i), (-1 if p % 2 else 1) * c2)
                   for p, i1, i2 in terms for i, c2 in _d_of(c, n - p, i2)]
            )
            if lhs != rhs:
                bad.append(
                    f"coderivation law fails on degree {n} element "
                    f"{c.complex.label(n, j)}"
                )
    return bad


def _check_coaugmentation(cop):
    # the one degree-0 element is the coaugmentation
    if _count((t, 1) for t in cop[0][0]) != {(0, 0, 0): 1}:
        return ["coaugmentation is not group-like"]
    return []


def validate_simplicial(k, up_to):
    """Check the simplicial identities on all nondegenerate simplices
    of dimension <= up_to."""
    bad = []
    for n in range(up_to + 1):
        for sid in k.n_simplices(n):
            bad.extend(k._simplex_violations(sid, n))
    return ValidationReport(bad)
