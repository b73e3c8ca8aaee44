"""Degreewise-finite dg coalgebra windows.

A window is a chain complex on degrees 0..hi together with a coproduct
streamed one degree at a time: for each basis element, the list of its
(left degree, left index, right index) terms, each with coefficient 1.
Nothing else varies between the windows the package builds: the counit
is 1 on every degree-0 element, and a window with one degree-0 element
is coaugmented by it.  A degree's coproduct is built each time a caller
walks it and kept by none, so callers that only read the complex never
build it.  The coalgebra laws (coassociativity, the counit laws, the
coderivation law with Koszul signs, and a group-like coaugmentation)
hold by construction for the windows the package builds, so no command
checks them; the test suite does.

chains() builds the normalized chain coalgebra of a simplicial set:
basis the nondegenerate simplices, differential the alternating face sum
with degenerate faces dropped, coproduct the front-face/back-face
(Alexander-Whitney) formula with degenerate factors dropped.  Both read
one call per degree: face_rows and cut_rows, which a nerve answers by
arithmetic on positions and other sets by walking faces.
"""

from .errors import ValidationReport
from .exactlin import (
    ChainComplexWindow,
    IntMatrix,
    basis_window,
    homology_window,
    mapping_cone,
)

__all__ = [
    "DgCoalgebraWindow",
    "chains",
    "nerve_chains_map",
    "CoalgebraMap",
    "Verdict",
    "filtered_quasi_iso_window",
    "cone_quasi_iso_window",
]


class DgCoalgebraWindow:
    """Chain complex window plus its coproduct.

    coproduct(n) yields, for each basis element j of degree n in order,
    the list of its terms (p, i1, i2): the term
    basis_p[i1] (x) basis_{n-p}[i2] of Delta applied to it, each with
    coefficient 1.  deltas(n) calls it on every walk and keeps none.
    The counit is 1 on every degree-0 element; when rank(0) == 1, that
    element is the coaugmentation.
    """

    def __init__(self, complex_window, coproduct):
        self.complex = complex_window
        self._coproduct_of = coproduct

    @property
    def hi(self):
        return self.complex.hi

    def rank(self, n):
        return self.complex.ranks.get(n, 0)

    def deltas(self, n):
        """Coproduct terms of each degree-n element in order, not kept;
        ValueError when the builder yields more or fewer than the rank."""
        missing = f"coproduct missing columns in degree {n}"
        built = iter(self._coproduct_of(n))
        for _ in range(self.rank(n)):
            terms = next(built, None)
            if terms is None:
                raise ValueError(missing)
            yield terms
        if next(built, None) is not None:
            raise ValueError(missing)


def chains(k, hi):
    """Normalized chain coalgebra of a simplicial set on degrees 0..hi."""
    bases = [k.n_simplices(n) for n in range(hi + 1)]
    comp = basis_window(
        bases, lambda n, below, _: k.face_rows(n, bases[n], below), str
    )
    return DgCoalgebraWindow(
        comp, lambda n: k.cut_rows(n, bases[n], comp.index)
    )


def nerve_chains_map(mmap, src_c, dst_c):
    """Chains-level coalgebra map induced by a monoid homomorphism, between
    the given chain windows of the source and target nerves.

    Sends a nerve tuple to its entrywise image, renormalized; tuples
    whose image is degenerate map to zero.  It is a dg coalgebra map
    when mmap is a homomorphism (the tests run CoalgebraMap.validate).
    Raises ValueError when the windows differ in top degree or either
    keeps no bases.
    """
    from .simplicial import strip_units

    if src_c.hi != dst_c.hi:
        raise ValueError("chain windows must end in the same degree")
    if src_c.complex.bases is None or dst_c.complex.bases is None:
        raise ValueError("nerve chain windows must keep their bases")
    unit = mmap.dst.identity

    def column(n, tup):
        img, word = strip_units(tuple(mmap.images[e] for e in tup), unit)
        return [] if word else [(dst_c.complex.index[n][img], 1)]

    blocks = {
        n: IntMatrix.from_columns(
            dst_c.rank(n), (column(n, tup) for tup in src_c.complex.bases[n])
        )
        for n in range(src_c.hi + 1)
    }
    return CoalgebraMap(src_c, dst_c, blocks)


class CoalgebraMap:
    """Degreewise matrices dst <- src forming a map of dg coalgebras."""

    def __init__(self, src, dst, blocks):
        self.src = src
        self.dst = dst
        self.blocks = dict(blocks)
        for n in range(src.hi + 1):
            b = self.block(n)
            if b.rows != dst.rank(n) or b.cols != src.rank(n):
                raise ValueError(f"block {n} has wrong shape")

    def block(self, n):
        b = self.blocks.get(n)
        if b is None:
            return IntMatrix.zeros(self.dst.rank(n), self.src.rank(n))
        return b

    def validate(self):
        bad = []
        src, dst = self.src, self.dst
        hi = min(src.hi, dst.hi)
        for n in range(1, hi + 1):
            lhs = dst.complex.boundary(n) * self.block(n)
            rhs = self.block(n - 1) * src.complex.boundary(n)
            if lhs != rhs:
                bad.append(f"not a chain map in degree {n}")
        # the counit is 1 on every degree-0 element of either side
        for j in range(src.rank(0)):
            if sum(c for _, c in self.block(0).column(j)) != 1:
                bad.append("counit is not preserved")
                break
        for n in range(hi + 1):
            dst_terms = list(dst.deltas(n))
            for j, terms in enumerate(src.deltas(n)):
                lhs = {}
                for p, i1, i2 in terms:
                    right = self.block(n - p).column(i2)
                    for a, ca in self.block(p).column(i1):
                        for b, cb in right:
                            key = (p, a, b)
                            lhs[key] = lhs.get(key, 0) + ca * cb
                rhs = {}
                for i, c in self.block(n).column(j):
                    for key in dst_terms[i]:
                        rhs[key] = rhs.get(key, 0) + c
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    bad.append(
                        f"coproduct is not preserved on degree {n} element "
                        f"{src.complex.label(n, j)}"
                    )
        if src.rank(0) == 1:
            if dst.rank(0) != 1:
                bad.append("target has no coaugmentation")
            elif self.block(0).column(0) != ((0, 1),):
                bad.append("coaugmentation is not preserved")
        return ValidationReport(bad)


class Verdict:
    """Outcome of a quasi-isomorphism check on a window: kind
    "quasi-iso", or kind "fails" with the degree where the check failed
    and the filtration level whose graded piece failed (None for a check
    without a filtration)."""

    def __init__(self, kind, level=None, degree=None, detail=None):
        self.kind = kind
        self.level = level
        self.degree = degree
        self.detail = detail

    @classmethod
    def quasi_iso(cls, detail=None):
        return cls("quasi-iso", detail=detail)

    @classmethod
    def fails(cls, level, degree):
        return cls("fails", level=level, degree=degree)

    def __bool__(self):
        return self.kind == "quasi-iso"

    def __repr__(self):
        if self.kind == "quasi-iso":
            return "Verdict(quasi-iso)"
        return f"Verdict({self.kind}, level={self.level}, degree={self.degree})"

    def to_json_dict(self):
        out = {"kind": self.kind}
        if self.level is not None:
            out["level"] = self.level
        if self.degree is not None:
            out["degree"] = self.degree
        if self.detail:
            out["detail"] = self.detail
        return out


def cone_quasi_iso_window(blocks, src, dst):
    """Certify a chain map on a window by the acyclicity of its cone in
    the exact degrees.

    Returns (ok, degree): on failure the degree is where the homology
    comparison breaks (the cone has homology one degree above it, linking
    H_degree of source and target through the long exact sequence).
    Nothing checks that the blocks commute with d (the cone's d∘d = 0):
    each caller passes a chain map by theorem, namely weq_verdict the
    nerve map of a validated MonoidMap, counit_check a dg algebra map,
    and unit_check graded pieces of a filtered dg coalgebra map.
    """
    table = homology_window(mapping_cone(blocks, src, dst))
    for n in sorted(table.entries):
        e = table.entries[n]
        if e.exact and not e.is_zero():
            return False, max(n - 1, 0)
    return True, None


def filtered_quasi_iso_window(f, src_levels, dst_levels):
    """Associated-graded quasi-isomorphism check for a filtered map.

    f: CoalgebraMap; src_levels, dst_levels: {(degree, index): level}
    dicts on f.src and f.dst.  Per level 0..top, extracts the graded
    pieces of source, target and map and certifies the graded map by
    cone acyclicity in interior degrees.  Nothing checks the levels:
    both filtrations must be admissible and f must not raise them, so
    that each graded piece is a chain map, as unit_check's are by
    construction.
    """
    src, dst = f.src, f.dst
    hi = min(src.hi, dst.hi)
    top = max((*src_levels.values(), *dst_levels.values()), default=0)

    def by_level(c, levels):
        # cells[(level, n)]: the degree-n elements at that level, in order
        cells = {}
        for n in range(hi + 1):
            for j in range(c.rank(n)):
                cells.setdefault((levels[(n, j)], n), []).append(j)
        return cells

    def graded_complex(c, idx):
        ranks = {n: len(idx[n]) for n in range(hi + 1)}
        bounds = {
            n: c.complex.boundary(n).submatrix(idx[n - 1], idx[n])
            for n in range(1, hi + 1)
        }
        return ChainComplexWindow(hi, ranks, bounds)

    src_cells = by_level(src, src_levels)
    dst_cells = by_level(dst, dst_levels)
    for level in range(top + 1):
        src_idx = {n: src_cells.get((level, n), []) for n in range(hi + 1)}
        dst_idx = {n: dst_cells.get((level, n), []) for n in range(hi + 1)}
        gblocks = {
            n: f.block(n).submatrix(dst_idx[n], src_idx[n])
            for n in range(hi + 1)
        }
        ok, degree = cone_quasi_iso_window(
            gblocks, graded_complex(src, src_idx), graded_complex(dst, dst_idx)
        )
        if not ok:
            return Verdict.fails(level, degree)
    return Verdict.quasi_iso(
        detail={"levels_checked": top + 1, "window_hi": hi}
    )
