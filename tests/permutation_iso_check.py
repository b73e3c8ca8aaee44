"""The nerve/bar check that barloop.barcobar.nerve_bar_iso_check replaced.

``nerve_bar_iso_check`` below is the previous version, copied: it looks
up the bar word of every nerve simplex in the bar window's index, so the
two bases may list their elements in any order, maps every bar boundary
column and every bar coproduct term back through that permutation, and
compares coproducts as coefficient dicts, each degree listed once.  The
current check compares position by position and streams each
coproduct; test_barcobar.py requires both to give the same
certificate and the same first MismatchAt.
"""

from barloop.barcobar import bar
from barloop.dgcoalg import chains
from barloop.errors import MismatchAt
from barloop.monoids import monoid_algebra
from barloop.rewrite import IsoCertificate
from barloop.simplicial import nerve


def nerve_bar_iso_check(m, hi, budget=100_000, cap=10_000):
    """Certify that the chains of the nerve and the bar of the monoid
    algebra agree bit-exactly under (m1,..,mn) -> [m1-1 | .. | mn-1]."""
    k = nerve(m)
    cn = chains(k, hi)
    alg = monoid_algebra(m)
    bw = bar(alg, hi, budget, cap)
    bar_index = bw.complex.index

    perm = {}
    for n in range(hi + 1):
        nerve_basis = cn.complex.bases[n]
        if len(nerve_basis) != bw.rank(n):
            raise MismatchAt(
                f"rank {len(nerve_basis)} != {bw.rank(n)} in degree {n}",
                degree=n,
            )
        pos = []
        for tup in nerve_basis:
            bt = tuple(
                (alg.gen_index(m.elements[e]),) for e in tup
            )
            jj = bar_index[n].get(bt)
            if jj is None:
                raise MismatchAt(
                    f"no bar word for nerve simplex {tup}",
                    degree=n,
                    element=str(tup),
                )
            pos.append(jj)
        perm[n] = pos

    for n in range(1, hi + 1):
        dn, db = cn.complex.boundary(n), bw.complex.boundary(n)
        to_nerve = {b: a for a, b in enumerate(perm[n - 1])}
        for j in range(dn.cols):
            mapped = sorted((to_nerve[i], c) for i, c in db.column(perm[n][j]))
            if list(dn.column(j)) != mapped:
                raise MismatchAt(
                    "differentials disagree",
                    degree=n,
                    element=cn.complex.label(n, j),
                )
    for n in range(hi + 1):
        bar_terms = list(bw.deltas(n))
        for j, terms in enumerate(cn.deltas(n)):
            lhs = {}
            for p, i1, i2 in terms:
                key = (p, perm[p][i1], perm[n - p][i2])
                lhs[key] = lhs.get(key, 0) + 1
            rhs = {}
            for key in bar_terms[perm[n][j]]:
                rhs[key] = rhs.get(key, 0) + 1
            if lhs != rhs:
                raise MismatchAt(
                    "coproducts disagree",
                    degree=n,
                    element=cn.complex.label(n, j),
                )
    return IsoCertificate(
        True,
        "certified",
        {
            "hi": hi,
            "ranks": {str(n): cn.rank(n) for n in range(hi + 1)},
            "monoid_order": m.order(),
        },
    )
