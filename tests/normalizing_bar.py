"""The bar structure maps that barloop.barcobar replaced.

``IdealBasis.mult`` and ``IdealBasis.diff`` below are copied verbatim
from the version that normalized a product of two ideal basis words, or
a differential, on every request: once per bar word that contains it.
``_eps`` is a copy of the augmentation of a word that version read.
The differential tests in test_bar_product_table.py require bar windows
built on the current ``_IdealBasis``, which normalizes each structure
constant once, to equal bar windows built on this one.
"""

from barloop.barcobar import _IdealBasis
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
