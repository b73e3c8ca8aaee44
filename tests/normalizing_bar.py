"""The bar structure maps that barloop.barcobar replaced.

``IdealBasis.mult`` and ``IdealBasis.diff`` below are copied verbatim
from the version that normalized a product of two ideal basis words, or
a differential, on every request: once per bar word that contains it.
``_eps`` is a copy of the augmentation of a word that version read.
The differential tests in test_bar_product_table.py require bar windows
built on the current ``_IdealBasis``, which normalizes each structure
constant once, to equal bar windows built on this one.

``_bar_data`` below is copied verbatim from the version that added each
boundary term with ``poly_iadd_term`` and looked up every cut of a bar
word, the two ends included, in the coproduct.  Only its call of
``basis_window`` is new: it looks each boundary term up in the index
of degree n-1, as the builder's callback now must.  Its coproduct terms
drop the coefficient 1 they carried, and its window no longer takes a
counit and a coaugmentation: windows now hold neither.  The same tests
require the current ``barcobar._bar_data`` to build the same window
from the same ideal basis.
"""

from barloop.barcobar import _IdealBasis
from barloop.dgcoalg import DgCoalgebraWindow
from barloop.errors import InfiniteRank
from barloop.exactlin import basis_window
from barloop.rewrite import poly_iadd_term


class IdealBasis(_IdealBasis):
    """The current bases and checks with the per-request structure maps."""

    def _eps(self, word):
        v = 1
        for g in word:
            v *= self.alg.augmentation.get(g, 0)
        return v

    def _ideal_coords(self, p):
        nf = self.rsys.normal_form(p)
        return {w: c for w, c in nf.items() if w}

    def mult(self, w1, w2):
        """Coordinates of the ideal product of two basis elements."""
        e1, e2 = self._eps(w1), self._eps(w2)
        p = {}
        poly_iadd_term(p, w1 + w2, 1, self.alg.modulus)
        if e2:
            poly_iadd_term(p, w1, -e2, self.alg.modulus)
        if e1:
            poly_iadd_term(p, w2, -e1, self.alg.modulus)
        return self._ideal_coords(p)

    def diff(self, w):
        return self._ideal_coords(self.alg.differentiate({w: 1}))


def _bar_data(ib, hi, cap):
    """Bar coalgebra window on degrees 0..hi over an ideal basis listed
    up to degree hi - 1; its complex keeps the basis tuples and their
    index maps."""
    alg = ib.alg
    sdeg = {}
    for n, words in ib.basis.items():
        for w in words:
            sdeg[w] = n + 1

    bar_basis = [[()]]
    for n in range(1, hi + 1):
        out = []
        for sd in range(1, n + 1):
            for w in ib.basis.get(sd - 1, ()):
                for rest in bar_basis[n - sd]:
                    out.append((w,) + rest)
                    if len(out) > cap:
                        raise InfiniteRank(
                            f"more than {cap} bar words in degree {n}"
                        )
        bar_basis.append(out)

    def boundary(n, tup):
        col = {}
        prefix = 0
        for i, w in enumerate(tup):
            sign_before = -1 if prefix % 2 else 1
            for w2, c in ib.diff(w).items():
                t2 = tup[:i] + (w2,) + tup[i + 1 :]
                poly_iadd_term(col, t2, -sign_before * c, alg.modulus)
            prefix += sdeg[w]
            sign_through = -1 if prefix % 2 else 1
            if i + 1 < len(tup):
                for w2, c in ib.mult(w, tup[i + 1]).items():
                    t2 = tup[:i] + (w2,) + tup[i + 2 :]
                    poly_iadd_term(col, t2, sign_through * c, alg.modulus)
        return col.items()

    comp = basis_window(
        bar_basis,
        lambda n, below, bounds: (
            [(below[t2], c) for t2, c in boundary(n, tup)]
            for tup in bar_basis[n]
        ),
        lambda t: "[" + "|".join(alg.word_str(w) for w in t) + "]",
    )
    bar_index = comp.index

    def coproduct(n):
        # deconcatenation: one term per cut of the bar word
        for tup in bar_basis[n]:
            cuts = [0]
            for w in tup:
                cuts.append(cuts[-1] + sdeg[w])
            yield [
                (p, bar_index[p][tup[:k]], bar_index[n - p][tup[k:]])
                for k, p in enumerate(cuts)
            ]

    return DgCoalgebraWindow(comp, coproduct)
