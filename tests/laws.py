"""Law checks that only the tests run.

The package builds its chain windows, coalgebra windows and simplicial
sets so that their laws hold by construction, and checks each input
where it enters; no command re-checks a law on what it derives.  These
are the checks the tests run instead, on every bundled input and on
random ones:

- ``validate_complex``: d∘d = 0 on a chain window, one column at a time,
  without forming a product; raises MismatchAt at the first degree that
  fails.
- ``validate_coalgebra``: the counit laws, coassociativity, the
  coderivation law with Koszul signs
  (d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy) and, when there is one,
  a group-like coaugmentation, on a dg coalgebra window.
- ``validate_simplicial``: the simplicial identities on every
  nondegenerate simplex up to a dimension, by the same per-simplex check
  (``_simplex_violations``) that ExplicitSimplicialSet runs on its input.

The last two return a ValidationReport listing every violation.
"""

from barloop.errors import MismatchAt, NotCoaugmented, ValidationReport


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
    the coaugmentation of a dg coalgebra window."""
    bad = []
    bad.extend(_check_counit(c))
    bad.extend(_check_coassoc(c))
    bad.extend(_check_coderivation(c))
    if c.coaugmentation is not None:
        bad.extend(_check_coaugmentation(c))
    return ValidationReport(bad)


def _check_counit(c):
    bad = []
    for n in range(c.hi + 1):
        for j in range(c.rank(n)):
            left = {}
            right = {}
            for p, i1, i2, coeff in c.delta(n, j):
                if p == 0:
                    left[i2] = left.get(i2, 0) + coeff * c.counit[i1]
                if p == n:
                    right[i1] = right.get(i1, 0) + coeff * c.counit[i2]
            want = {j: 1}
            if {k: v for k, v in left.items() if v} != want:
                bad.append(
                    f"(counit (x) 1) Delta != id on degree {n} "
                    f"element {c.label(n, j)}"
                )
            if {k: v for k, v in right.items() if v} != want:
                bad.append(
                    f"(1 (x) counit) Delta != id on degree {n} "
                    f"element {c.label(n, j)}"
                )
    return bad


def _check_coassoc(c):
    bad = []
    for n in range(c.hi + 1):
        for j in range(c.rank(n)):
            lhs = {}
            for p, i1, i2, coeff in c.delta(n, j):
                for q, k1, k2, c2 in c.delta(p, i1):
                    key = (q, p - q, k1, k2, i2)
                    lhs[key] = lhs.get(key, 0) + coeff * c2
            rhs = {}
            for p, i1, i2, coeff in c.delta(n, j):
                for q, k1, k2, c2 in c.delta(n - p, i2):
                    key = (p, q, i1, k1, k2)
                    rhs[key] = rhs.get(key, 0) + coeff * c2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                bad.append(
                    f"coassociativity fails on degree {n} element "
                    f"{c.label(n, j)}"
                )
    return bad


def _check_coderivation(c):
    bad = []
    for n in range(1, c.hi + 1):
        for j in range(c.rank(n)):
            lhs = {}
            for i, coeff in c._d_of(n, j):
                for p, i1, i2, c2 in c.delta(n - 1, i):
                    key = (p, i1, i2)
                    lhs[key] = lhs.get(key, 0) + coeff * c2
            rhs = {}
            for p, i1, i2, coeff in c.delta(n, j):
                for i, c2 in c._d_of(p, i1):
                    key = (p - 1, i, i2)
                    rhs[key] = rhs.get(key, 0) + coeff * c2
                sign = -1 if p % 2 else 1
                for i, c2 in c._d_of(n - p, i2):
                    key = (p, i1, i)
                    rhs[key] = rhs.get(key, 0) + sign * coeff * c2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                bad.append(
                    f"coderivation law fails on degree {n} element "
                    f"{c.label(n, j)}"
                )
    return bad


def _check_coaugmentation(c):
    bad = []
    i0 = c.coaugmentation
    if not (0 <= i0 < c.rank(0)):
        raise NotCoaugmented("coaugmentation index out of range")
    if c.counit[i0] != 1:
        bad.append("counit of the coaugmentation is not 1")
    terms = {
        (p, i1, i2): coeff for p, i1, i2, coeff in c.delta(0, i0) if coeff
    }
    if terms != {(0, i0, i0): 1}:
        bad.append("coaugmentation is not group-like")
    return bad


def validate_simplicial(k, up_to):
    """Check the simplicial identities on all nondegenerate simplices
    of dimension <= up_to."""
    bad = []
    for n in range(up_to + 1):
        for sid in k.n_simplices(n):
            bad.extend(k._simplex_violations(sid, n))
    return ValidationReport(bad)
