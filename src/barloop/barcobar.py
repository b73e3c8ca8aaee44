"""Bar and cobar constructions on windows.

bar(A) is the tensor coalgebra on the shifted augmentation ideal of an
augmented dg algebra, with differential

    D[x1|..|xn] = - sum_i (-1)^{e_{i-1}} [x1|..|d xi|..|xn]
                  + sum_i (-1)^{e_i}     [x1|..|xi xi+1|..|xn]

where e_i is the sum of the first i shifted degrees and the product is
taken in the augmentation ideal.  cobar(C) is the free algebra on the
deshifted positive-degree part of a reduced coaugmented window, with

    d(s^{-1}x) = -s^{-1}(dx) + sum (-1)^{|x'|} (s^{-1}x')(s^{-1}x'')

over the reduced coproduct.  counit_check and unit_check certify the
two adjunction maps on windows; extended_cobar additionally inverts the
degree-0 cycles 1 + s^{-1}x attached to the 1-simplices of a reduced
simplicial set.
"""

from .dgcoalg import (
    CoalgebraMap,
    DgCoalgebraWindow,
    Verdict,
    chains,
    cone_quasi_iso_window,
    filtered_quasi_iso_window,
)
from .errors import (
    BarloopError,
    CapExceeded,
    InfiniteRank,
    MismatchAt,
    NotCoaugmented,
    NotConnected,
    NotSimplyConnected,
)
from .exactlin import IntMatrix, basis_window
from .monoids import monoid_algebra
from .rewrite import (
    IsoCertificate,
    PresentedDgAlgebra,
    adjoin_inverses,
    algebra_window,
    basis_in_degree,
    complex_window,
    poly_iadd_term,
    poly_mul,
    require_complete,
)
from .simplicial import nerve

__all__ = [
    "bar",
    "cobar",
    "extended_cobar",
    "nerve_bar_iso_check",
    "counit_check",
    "unit_check",
]


class _IdealBasis:
    """Monomial bases and structure maps of an augmentation ideal.

    Degree-0 basis elements stand for w - eps(w); in positive degrees the
    augmentation vanishes and the underline is the word itself.  Products
    and differentials are returned as coordinates in this basis, which
    amounts to normalizing and dropping the empty word.  Each product and
    each differential is normalized once, on first request; callers must
    not mutate the returned coordinates.

    ``words`` holds the irreducible words of degrees 0..top, unit
    included; a caller that has already listed the lowest degrees passes
    them in as ``listed``.
    """

    def __init__(self, algebra, rsys, top, cap, listed=()):
        self.alg = algebra
        self.rsys = rsys
        if algebra.augmentation is None:
            raise BarloopError("bar needs an augmented algebra")
        for i, (lbl, deg) in enumerate(algebra.generators):
            if deg > 0 and algebra.augmentation.get(i, 0):
                raise BarloopError(
                    f"augmentation does not vanish on positive-degree "
                    f"generator {lbl}"
                )
            if deg == 1:
                dg = algebra.differential.get(i)
                if dg and algebra.augment(rsys.normal_form(dict(dg))):
                    raise BarloopError(
                        f"augmentation is not a chain map on d({lbl})"
                    )
        self.words = list(listed)
        for n in range(len(self.words), max(top, 0) + 1):
            try:
                self.words.append(basis_in_degree(rsys, n, cap))
            except CapExceeded as exc:
                raise InfiniteRank(
                    f"cannot list the augmentation ideal within the cap: {exc}"
                ) from None
        self.basis = {
            n: [w for w in words if w] if n == 0 else words
            for n, words in enumerate(self.words)
        }
        self._products = {}
        self._differentials = {}

    def _ideal_coords(self, p):
        nf = self.rsys.normal_form(p)
        return {w: c for w, c in nf.items() if w}

    def mult(self, w1, w2):
        """Coordinates of the ideal product of two basis elements."""
        coords = self._products.get((w1, w2))
        if coords is None:
            e1, e2 = self.alg.augment({w1: 1}), self.alg.augment({w2: 1})
            p = {w1 + w2: 1}
            if e2:
                poly_iadd_term(p, w1, -e2)
            if e1:
                poly_iadd_term(p, w2, -e1)
            coords = self._products[(w1, w2)] = self._ideal_coords(p)
        return coords

    def diff(self, w):
        coords = self._differentials.get(w)
        if coords is None:
            coords = self._differentials[w] = self._ideal_coords(
                self.alg.differentiate({w: 1})
            )
        return coords


def _bar_data(ib, hi, cap):
    """Bar coalgebra window on degrees 0..hi over an ideal basis listed
    up to degree hi - 1; its complex keeps the basis tuples and their
    index maps.

    Degree n lists its words [w|r] by the shifted degree s = |w| + 1 of
    w, then by w, then by r in the order of degree n - s: the words led
    by w are one block, and [w|r] sits at off_n(w) + index(r).  With r0
    the first word of r and r' the rest, the terms of D at the first
    position, and those of D r signed by (-1)^s, give

        D[w|r] = -[dw|r] + (-1)^s ([w r0|r'] + [w|D r]).

    So column off_n(w) + i of d_n is column i of d_{n-s} moved to the
    block of w, plus each word w2 of dw at off_{n-1}(w2) + i and of
    w r0 at off_{n-1}(w2) + index(r'), where index(r') = i - off_{n-s}(r0):
    one product per block of r0, and no bar word sliced or hashed.
    """
    alg = ib.alg
    sdeg = {w: n + 1 for n, words in ib.basis.items() for w in words}

    bar_basis = [[()]]
    offsets = [{}]
    for n in range(1, hi + 1):
        out, off = [], {}
        for sd in range(1, n + 1):
            rests = bar_basis[n - sd]
            for w in ib.basis.get(sd - 1, ()):
                # counts words: fails where the (cap+1)-th would be listed
                if len(out) + len(rests) > cap:
                    raise InfiniteRank(
                        f"more than {cap} bar words in degree {n}"
                    )
                off[w] = len(out)
                out += [(w,) + rest for rest in rests]
        bar_basis.append(out)
        offsets.append(off)

    def columns(n, _rows, bounds):
        below = offsets[n - 1]
        for w in offsets[n]:
            s = sdeg[w]
            dw = [(below[w2], -c) for w2, c in ib.diff(w).items()]
            if s == n:
                yield dw
                continue
            sign = -1 if s % 2 else 1
            d_rest, shift = bounds[n - s], below[w]
            i = 0
            for r0 in offsets[n - s]:
                prod = ib.mult(w, r0).items()
                prod = [(below[w2], sign * c) for w2, c in prod]
                for i2 in range(len(bar_basis[n - s - sdeg[r0]])):
                    col = [(o + i, c) for o, c in dw]
                    col += [(o + i2, c) for o, c in prod]
                    col += [(shift + t, sign * c) for t, c in d_rest.column(i)]
                    yield col
                    i += 1

    comp = basis_window(
        bar_basis,
        columns,
        lambda t: "[" + "|".join(alg.word_str(w) for w in t) + "]",
    )
    bar_index = comp.index

    def coproduct(n):
        # deconcatenation: one term per cut of the bar word; the two end
        # cuts pair the word, at its own index j, with the empty word
        if n == 0:
            yield [(0, 0, 0)]
            return
        for j, tup in enumerate(bar_basis[n]):
            terms = [(0, 0, j)]
            p = 0
            for k in range(1, len(tup)):
                p += sdeg[tup[k - 1]]
                terms.append(
                    (p, bar_index[p][tup[:k]], bar_index[n - p][tup[k:]])
                )
            terms.append((n, j, 0))
            yield terms

    return DgCoalgebraWindow(comp, coproduct)


def bar(algebra, hi, budget=100_000, cap=10_000):
    """Bar coalgebra window of an augmented presented dg algebra, a dg
    coalgebra once require_complete has checked the algebra."""
    rsys = require_complete(algebra, budget)
    return _bar_data(_IdealBasis(algebra, rsys, hi - 1, cap), hi, cap)


def _cobar_with_gens(c):
    """(cobar algebra, generator of each (degree, index), reduced), from
    one walk of the window's coproduct: reduced[n][i] lists the coproduct
    terms of element i of degree n with both factors in positive degree."""
    if c.rank(0) != 1:
        raise NotCoaugmented(
            "cobar needs a reduced coaugmented coalgebra window"
        )
    # Conilpotent by degree alone: each reduced coproduct term has both
    # factors in degrees 1..n-1, so iterating it ends within n rounds.
    gens = []
    gen_of = {}
    for n in range(1, c.hi + 1):
        for i in range(c.rank(n)):
            gen_of[(n, i)] = len(gens)
            gens.append((c.complex.label(n, i), n - 1))
    labels = [lbl for lbl, _ in gens]
    if len(set(labels)) != len(labels):
        gens = [(f"{lbl}:{deg + 1}", deg) for lbl, deg in gens]

    differential = {}
    reduced = {}
    for n in range(1, c.hi + 1):
        d_n = c.complex.boundary(n)
        reduced[n] = []
        for i, terms in enumerate(c.deltas(n)):
            d = {}
            for j, coeff in d_n.column(i):
                if n == 1:
                    raise BarloopError(
                        "differential of a degree-1 element must vanish in "
                        "a reduced window"
                    )
                poly_iadd_term(d, (gen_of[(n - 1, j)],), -coeff)
            reduced[n].append(kept := [t for t in terms if 0 < t[0] < n])
            for p, i1, i2 in kept:
                poly_iadd_term(
                    d, (gen_of[(p, i1)], gen_of[(n - p, i2)]),
                    -1 if p % 2 else 1,
                )
            if d:
                differential[gen_of[(n, i)]] = d

    alg = PresentedDgAlgebra(
        gens, [], differential, {g: 0 for g in range(len(gens))}
    )
    return alg, gen_of, reduced


def cobar(c):
    """Cobar algebra of a reduced coaugmented coalgebra window: free on
    one generator of degree n-1 per degree-n basis element."""
    alg, _, _ = _cobar_with_gens(c)
    return alg


def extended_cobar(k, hi):
    """Cobar of the chains of a reduced simplicial set, with the group-like
    cycles 1 + s^{-1}x inverted for every nondegenerate 1-simplex x."""
    c = chains(k, hi)
    alg, gen_of, _ = _cobar_with_gens(c)
    gens = [gen_of[(1, i)] for i in range(c.rank(1))]
    if not gens:
        return alg
    return adjoin_inverses(
        alg,
        [{(): 1, (g,): 1} for g in gens],
        [f"{alg.gen_label(g)}_inv" for g in gens],
    )


def nerve_bar_iso_check(m, hi, budget=100_000, cap=10_000):
    """Certify that the chains of the nerve and the bar of the monoid
    algebra agree bit-exactly under (m1,..,mn) -> [m1-1 | .. | mn-1]:
    position by position, in bases, boundaries and the coproduct lists
    the builders yield, which deltas() drops once compared."""
    k = nerve(m)
    cn = chains(k, hi)
    alg = monoid_algebra(m)
    bw = bar(alg, hi, budget, cap)
    letter = {
        e: (alg.gen_index(x),)
        for e, x in enumerate(m.elements)
        if e != m.identity
    }
    spell = letter.__getitem__

    for n in range(hi + 1):
        nerve_basis, bar_basis = cn.complex.bases[n], bw.complex.bases[n]
        if len(nerve_basis) != len(bar_basis):
            raise MismatchAt(
                f"rank {len(nerve_basis)} != {len(bar_basis)} in degree {n}",
                degree=n,
            )
        for j, tup in enumerate(nerve_basis):
            if tuple(map(spell, tup)) != bar_basis[j]:
                raise MismatchAt(
                    f"nerve simplex {tup} is not bar word {j} of degree {n}",
                    degree=n,
                    element=str(tup),
                )

    for n in range(1, hi + 1):
        dn, db = cn.complex.boundary(n), bw.complex.boundary(n)
        if dn != db:
            j = next(j for j in range(dn.cols) if dn.column(j) != db.column(j))
            raise MismatchAt(
                "differentials disagree",
                degree=n,
                element=cn.complex.label(n, j),
            )
    for n in range(hi + 1):
        pairs = zip(cn.deltas(n), bw.deltas(n), strict=True)
        for j, (lhs, rhs) in enumerate(pairs):
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


def counit_check(algebra, hi, budget=100_000, cap=10_000):
    """Certify the counit cobar(bar(A)) -> A on degrees 0..hi by cone
    acyclicity: bar words of length one map to the elements they suspend,
    longer words map to zero.  Once require_complete has checked A, the
    counit is a dg algebra map, so its cone needs no check."""
    rsys_a = require_complete(algebra, budget)
    degree0 = basis_in_degree(rsys_a, 0, cap)
    if degree0 != [()]:
        raise NotConnected(
            "counit comparison needs a connected algebra: degree 0 must be "
            "spanned by the unit"
        )
    # one listing of degrees 0..hi serves the bar and the algebra window
    ib = _IdealBasis(algebra, rsys_a, hi, cap, [degree0])
    bw = _bar_data(ib, hi + 1, cap)
    om, gen_of, _ = _cobar_with_gens(bw)

    images = {}
    for (n, i), g in gen_of.items():
        tup = bw.complex.bases[n][i]
        images[g] = {tup[0]: 1} if len(tup) == 1 else {}

    aw = algebra_window(rsys_a, ib.words)
    ow = complex_window(om, hi, budget, cap)

    def column(n, word):
        acc = {(): 1}
        for g in word:
            acc = poly_mul(acc, images[g])
            if not acc:
                break
        return [
            (aw.index[n][w], c) for w, c in rsys_a.normal_form(acc).items()
        ]

    blocks = {
        n: IntMatrix.from_columns(
            aw.rank(n), (column(n, word) for word in ow.bases[n])
        )
        for n in range(hi + 1)
    }

    ok, degree = cone_quasi_iso_window(blocks, ow, aw)
    if ok:
        return Verdict.quasi_iso(detail={"window_hi": hi})
    return Verdict.fails(None, degree)


def unit_check(c, budget=100_000, cap=10_000):
    """Certify the unit C -> bar(cobar(C)) as a filtered quasi-isomorphism
    for a simply connected reduced window: skeletal filtration on C against
    the total-weight filtration on the bar side.

    Nothing is checked at run time.  The unit is a dg coalgebra map for
    any dg coalgebra, such as chains (Husemoller-Moore-Stasheff 1974).
    Both filtrations are admissible and preserved by construction: d
    does not raise degree or weight, coproducts split both additively,
    and the unit keeps weight = degree.  So every graded piece is a
    chain map, as filtered_quasi_iso_window requires."""
    if c.rank(0) != 1:
        raise NotCoaugmented("unit comparison needs a reduced window")
    if c.rank(1):
        raise NotSimplyConnected(
            "unit comparison needs a window with no degree-1 elements"
        )
    om, gen_of, reduced = _cobar_with_gens(c)
    bw = bar(om, c.hi, budget, cap)
    bar_basis, bar_index = bw.complex.bases, bw.complex.index

    blocks = {0: IntMatrix.from_rows([[1]])}
    for n in range(1, c.hi + 1):
        columns = []
        for i in range(c.rank(n)):
            # all iterated-coproduct terms enter with coefficient +1: the
            # cup sign of the cobar differential and the merge sign of the
            # bar differential cancel exactly under this convention
            img = {}
            terms = {((n, i),): 1}
            while terms:
                for parts, coeff in terms.items():
                    bt = tuple((gen_of[pt],) for pt in parts)
                    img[bt] = img.get(bt, 0) + coeff
                nxt = {}
                for parts, coeff in terms.items():
                    dlast, ilast = parts[-1]
                    for p, i1, i2 in reduced[dlast][ilast]:
                        key = parts[:-1] + ((p, i1), (dlast - p, i2))
                        nxt[key] = nxt.get(key, 0) + coeff
                terms = {t: v for t, v in nxt.items() if v}
            columns.append([(bar_index[n][bt], v) for bt, v in img.items()])
        blocks[n] = IntMatrix.from_columns(bw.rank(n), columns)

    # skeletal levels on C: level = degree, 0 only on the coaugmentation
    levels = {
        (n, j): n for n in range(c.hi + 1) for j in range(c.rank(n))
    }
    weights = {}
    for n in range(c.hi + 1):
        for idx, tup in enumerate(bar_basis[n]):
            weights[(n, idx)] = sum(
                om.gen_degree(g) + 1 for w in tup for g in w
            )
    return filtered_quasi_iso_window(
        CoalgebraMap(c, bw, blocks), levels, weights
    )
