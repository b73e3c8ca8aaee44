"""Smith normal form and windowed homology."""

import random
from itertools import chain, compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from checks import assert_smith_diagonal, assert_stored_form, identity_matrix
from dense_smith import smith_kernel
from laws import validate_complex
from row_filter import without_rows
from test_properties import determinantal_diagonal

from barloop.barcobar import bar
from barloop.dgcoalg import chains, nerve_chains_map
from barloop.errors import MismatchAt, WindowTooSmall
from barloop.exactlin import (
    ChainComplexWindow,
    HomologyEntry,
    IntMatrix,
    basis_window,
    homology_window,
    mapping_cone,
    smith_normal_form,
)
from barloop.monoids import (
    FiniteMonoid,
    MonoidMap,
    monoid_algebra,
    random_monoid,
)
from barloop.rewrite import PresentedDgAlgebra
from barloop.simplicial import nerve
from barloop.weqcheck import bundled_monoids


def snf_of(rows):
    """Smith normal form of the matrix with these rows, checked by
    assert_smith_diagonal."""
    m = IntMatrix.from_rows(rows)
    d, _ = smith_normal_form(m)
    assert_smith_diagonal(m, d)
    return d


def test_snf_frozen_small_matrix():
    # d1 = gcd of entries = 2; d1*d2 = |det| = |12 - 16| = 4, so d = (2, 2).
    assert snf_of([[2, 4], [4, 6]]) == (2, 2)


def test_snf_diagonal_passthrough():
    assert snf_of([[1, 0], [0, 3]]) == (1, 3)


def test_snf_divisibility_is_enforced():
    # diag(2, 3) is not in normal form; SNF is diag(1, 6).
    assert snf_of([[2, 0], [0, 3]]) == (1, 6)
    # No unit pivot: d1 = gcd = 2, d1*d2 = gcd of 2x2 minors (24, 40, 60)
    # = 4 and d1*d2*d3 = det = 240, so SNF is diag(2, 2, 60).
    assert snf_of([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == (2, 2, 60)


def test_snf_zero_and_empty():
    assert snf_of([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form(IntMatrix.zeros(0, 3)) == ((), ())
    assert smith_normal_form(IntMatrix.zeros(3, 0)) == ((), ())


def test_snf_rectangular():
    assert snf_of([[6, 10, 15]]) == (1,)
    assert snf_of([[6], [10], [15]]) == (1,)


def test_snf_big_entries_stay_exact():
    n = 10**30
    # det = n(n+6) - (n+2)(n+4) = -8; gcd of entries is 2.
    assert snf_of([[n, n + 2], [n + 4, n + 6]]) == (2, 4)


def test_snf_random_properties_seeded():
    rng = random.Random(1009)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        )
        d, _ = smith_normal_form(m)
        assert_smith_diagonal(m, d)
        assert d == determinantal_diagonal(m)
        for i in range(len(d) - 1):
            if d[i]:
                assert d[i + 1] % d[i] == 0


def two_periodic_complex(hi):
    """Rank-1 complex with boundaries alternating 0, 2, 0, 2, ...

    This is the window of the standard 2-periodic free resolution used as
    an independent oracle for the classifying-space homology of the
    2-element group: expected (Z, Z/2, 0, Z/2, ...).
    """
    ranks = {n: 1 for n in range(hi + 1)}
    bounds = {}
    for n in range(1, hi + 1):
        bounds[n] = IntMatrix.from_rows([[0 if n % 2 else 2]])
    return ChainComplexWindow(hi, ranks, bounds)


def test_homology_two_periodic_oracle():
    table = homology_window(two_periodic_complex(5))
    assert table[0].iso(HomologyEntry(1, [], True))
    assert table[1].iso(HomologyEntry(0, [2], True))
    assert table[2].iso(HomologyEntry(0, [], True))
    assert table[3].iso(HomologyEntry(0, [2], True))
    assert table[4].iso(HomologyEntry(0, [], True))
    # top of the window is partial: the next differential is unknown
    assert not table[5].exact
    assert table[0].exact  # nothing lives below degree 0


def test_homology_sphere_complex():
    # Cellular-style complex of a 2-sphere: ranks (1, 0, 1), zero boundaries.
    c = ChainComplexWindow(
        3,
        {0: 1, 1: 0, 2: 1, 3: 0},
        {
            1: IntMatrix.zeros(1, 0),
            2: IntMatrix.zeros(0, 1),
            3: IntMatrix.zeros(1, 0),
        },
    )
    t = homology_window(c)
    assert t[0].iso(HomologyEntry(1, [], True))
    assert t[1].is_zero()
    assert t[2].iso(HomologyEntry(1, [], True))


def test_validate_detects_broken_composition():
    # d1 * d2 != 0 must be rejected.
    c = ChainComplexWindow(
        2,
        {0: 1, 1: 1, 2: 1},
        {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])},
    )
    with pytest.raises(MismatchAt, match="d∘d != 0 from degree 2"):
        validate_complex(c)
    # Only the top pair d_2∘d_3 breaks; d_1∘d_2 == 0.
    c = ChainComplexWindow(
        3,
        {0: 1, 1: 1, 2: 1, 3: 1},
        {
            1: IntMatrix.from_rows([[0]]),
            2: IntMatrix.from_rows([[1]]),
            3: IntMatrix.from_rows([[1]]),
        },
    )
    with pytest.raises(MismatchAt, match="d∘d != 0 from degree 3") as e:
        validate_complex(c)
    assert e.value.degree == 3


def test_validate_accepts_a_column_whose_partial_sums_cancel():
    # d_1(d_2 e_0) = 8·(1, 3) + 5·(4, -2) - 14·(2, 1) = 0, though the
    # partial sums (8, 24) and (28, 14) are not.
    c = ChainComplexWindow(
        2,
        {0: 2, 1: 3, 2: 1},
        {
            1: IntMatrix.from_rows([[1, 4, 2], [3, -2, 1]]),
            2: IntMatrix.from_rows([[8], [5], [-14]]),
        },
    )
    assert validate_complex(c)


def test_validate_finds_one_nonzero_in_the_last_column_of_the_top():
    zero, eye = [[0, 0], [0, 0]], [[1, 0], [0, 1]]
    bounds = {1: eye, 2: zero, 3: eye, 4: [[0, 0], [0, 5]]}
    c = ChainComplexWindow(
        4,
        {n: 2 for n in range(5)},
        {n: IntMatrix.from_rows(rows) for n, rows in bounds.items()},
    )
    with pytest.raises(MismatchAt, match="^d∘d != 0 from degree 4$") as e:
        validate_complex(c)
    assert e.value.degree == 4


def test_window_too_small_rejected():
    message = r"^window \[0, 0\] has no interior$"
    with pytest.raises(WindowTooSmall, match=message):
        ChainComplexWindow(0, {0: 1}, {})


def test_homology_table_json_roundtrip():
    t = homology_window(two_periodic_complex(4))
    assert t.to_json_dict() == {
        "0": {"free_rank": 1, "torsion": [], "exact": True},
        "1": {"free_rank": 0, "torsion": ["2"], "exact": True},
        "2": {"free_rank": 0, "torsion": [], "exact": True},
        "3": {"free_rank": 0, "torsion": ["2"], "exact": True},
        "4": {"free_rank": 0, "torsion": [], "exact": False},
    }


def test_homology_invariant_under_basis_change():
    rng = random.Random(4242)
    base = two_periodic_complex(4)
    for _ in range(20):
        # conjugate each boundary by random unimodular matrices
        tweaked = {}
        units = {}
        for n in range(0, 5):
            units[n] = _random_unimodular(rng, base.rank(n))
        for n in range(1, 5):
            # d'_n = U_{n-1} d_n U_n^{-1}; with rank-1 pieces the random
            # unimodular is just +-1, so this exercises the sign handling.
            tweaked[n] = units[n - 1] * base.boundary(n) * _unimodular_inverse(units[n])
        c = ChainComplexWindow(4, dict(base.ranks), tweaked)
        got, want = homology_window(c), homology_window(base)
        assert got.degrees() == want.degrees()
        for n in want.degrees():
            assert got[n].iso(want[n]), n


def _random_unimodular(rng, n):
    m = identity_matrix(n)
    rows = m.to_rows()
    for i in range(n):
        if rng.random() < 0.5:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)


def _unimodular_inverse(m):
    # inverse of a signed permutation-free diagonal +-1 matrix is itself
    return m


def test_mapping_cone_of_identity_is_acyclic():
    c = two_periodic_complex(5)
    maps = {n: identity_matrix(c.rank(n)) for n in range(0, 6)}
    cone = mapping_cone(maps, c, c)
    validate_complex(cone)
    t = homology_window(cone)
    for n in range(1, 5):
        assert t[n].is_zero(), f"cone not acyclic in degree {n}"


# -- the column builder and readers ------------------------------------------


def test_from_columns_adds_repeated_rows():
    m = IntMatrix.from_columns(3, [[(0, 1), (2, -1), (0, 1)], [], [(1, 5)]])
    assert m.to_rows() == [[2, 0, 0], [0, 0, 5], [-1, 0, 0]]
    assert IntMatrix.from_columns(1, [[(0, 1), (0, -1)]]).to_rows() == [[0]]


def test_from_columns_edge_shapes():
    assert IntMatrix.from_columns(0, [[], []]) == IntMatrix.zeros(0, 2)
    assert IntMatrix.from_columns(3, []) == IntMatrix.zeros(3, 0)
    # columns may come from a generator of generators
    m = IntMatrix.from_columns(2, (((j % 2, j),) for j in range(3)))
    assert m.to_rows() == [[0, 0, 2], [0, 1, 0]]
    for row in (2, -1):
        with pytest.raises(IndexError):
            IntMatrix.from_columns(2, [[(row, 1)]])
    # a row out of range raises even when its entries cancel
    for col in ([(5, 1), (5, -1)], [(-1, 2), (-1, -2)]):
        with pytest.raises(IndexError):
            IntMatrix.from_columns(2, [col])


def test_column_lists_nonzero_entries_in_row_order():
    m = IntMatrix.from_rows([[0, 3], [4, 0], [0, -1]])
    assert m.column(0) == ((1, 4),)
    assert m.column(1) == ((0, 3), (2, -1))
    assert IntMatrix.zeros(2, 1).column(0) == ()
    assert IntMatrix.zeros(0, 1).column(0) == ()
    # the stored tuple itself, not a copy: no caller can change it
    assert m.column(1) is m.column(1)
    for j in (-1, 2):
        with pytest.raises(IndexError):
            m.column(j)


def test_submatrix_reorders_and_repeats_indices():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.submatrix([1, 0], [2, 0]).to_rows() == [[6, 4], [3, 1]]
    assert m.submatrix([0, 0], [1, 1, 1]).to_rows() == [[2, 2, 2]] * 2
    assert m.submatrix([], [0, 1]) == IntMatrix.zeros(0, 2)
    with pytest.raises(IndexError):
        m.submatrix([2], [0])
    with pytest.raises(IndexError):
        m.submatrix([0], [-1])


def test_basis_window_positions_labels_and_boundaries():
    # an interval "e" from v0 to v1, a loop at v0 whose faces cancel and
    # a disc "t" bounded by the loop
    faces = {
        "e": [("v1", 1), ("v0", -1)],
        "loop": [("v0", 1), ("v0", -1)],
        "t": [("loop", 1)],
    }
    calls = []

    def columns(n, below, bounds):
        # the lower boundaries are built when degree n is asked for
        calls.append((n, {k: b.cols for k, b in bounds.items()}))
        return ([(below[f], c) for f, c in faces[b]] for b in bases[n])

    bases = [["v0", "v1"], ["e", "loop"], ["t"]]
    window = basis_window(bases, columns, str.upper)
    assert window.bases == bases
    assert window.index == {
        0: {"v0": 0, "v1": 1}, 1: {"e": 0, "loop": 1}, 2: {"t": 0}
    }
    assert calls == [(1, {}), (2, {1: 2})]
    assert window.boundary(1).to_rows() == [[-1, 0], [1, 0]]
    assert window.boundary(2).to_rows() == [[0], [1]]
    assert window.hi == 2
    assert [window.label(1, i) for i in range(2)] == ["E", "LOOP"]
    h = homology_window(window)
    assert h[0].iso(HomologyEntry(1, [], True))
    assert h[1].iso(HomologyEntry(0, [], True))
    with pytest.raises(WindowTooSmall):
        basis_window([["v0"]], columns, str)


# -- mapping cone against the dense construction ------------------------------


def _dense(rows, cols, flat):
    """Matrix from a row-major list, through the public constructors."""
    if not rows:
        return IntMatrix.zeros(0, cols)
    return IntMatrix.from_rows(
        [flat[i * cols : (i + 1) * cols] for i in range(rows)]
    )


def dense_mapping_cone(maps, src, dst):
    """Reference cone: the dense, entry-by-entry construction the column
    builder replaced, reading entries through to_rows()."""

    def entry(m, i, j):
        return m.to_rows()[i][j]

    if src.hi != dst.hi:
        raise ValueError("cone needs matching windows")
    hi = src.hi
    ranks = {}
    bounds = {}
    for n in range(hi + 1):
        ranks[n] = (src.rank(n - 1) if n - 1 >= 0 else 0) + dst.rank(n)
    for n in range(1, hi + 1):
        sc = src.rank(n - 1)
        sc_prev = src.rank(n - 2) if n - 2 >= 0 else 0
        dc = dst.rank(n)
        dc_prev = dst.rank(n - 1)
        rows = sc_prev + dc_prev
        cols = sc + dc
        entries = [0] * (rows * cols)
        f = maps.get(n - 1)
        if f is not None and (f.rows, f.cols) != (dc_prev, sc):
            raise ValueError(f"map matrix in degree {n - 1} is "
                             f"{f.rows}x{f.cols}, not {dc_prev}x{sc}")
        if sc and sc_prev:
            dsrc = src.boundary(n - 1)
            for i in range(sc_prev):
                for j in range(sc):
                    entries[i * cols + j] = -entry(dsrc, i, j)
        if sc and dc_prev:
            if f is None:
                raise ValueError(f"missing map matrix in degree {n - 1}")
            for i in range(dc_prev):
                for j in range(sc):
                    entries[(sc_prev + i) * cols + j] = entry(f, i, j)
        if dc and dc_prev:
            ddst = dst.boundary(n)
            for i in range(dc_prev):
                for j in range(dc):
                    entries[(sc_prev + i) * cols + sc + j] = entry(ddst, i, j)
        bounds[n] = _dense(rows, cols, entries)
    return ChainComplexWindow(hi, ranks, bounds)


def _cone_outcome(build, maps, src, dst):
    try:
        cone = build(maps, src, dst)
    except ValueError as e:
        return "error", str(e)
    return cone.hi, cone.ranks, cone.boundaries


@st.composite
def cone_inputs(draw):
    hi = draw(st.integers(1, 3))

    def matrix(rows, cols):
        flat = draw(
            st.lists(st.integers(-3, 3), min_size=rows * cols,
                     max_size=rows * cols)
        )
        return _dense(rows, cols, flat)

    def window():
        ranks = {n: draw(st.integers(0, 3)) for n in range(hi + 1)}
        bounds = {n: matrix(ranks[n - 1], ranks[n]) for n in range(1, hi + 1)}
        return ChainComplexWindow(hi, ranks, bounds)

    src, dst = window(), window()
    maps = {n: matrix(dst.rank(n), src.rank(n)) for n in range(hi + 1)}
    if draw(st.booleans()):
        del maps[draw(st.sampled_from(sorted(maps)))]
    return maps, src, dst


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cone_inputs())
def test_mapping_cone_matches_dense_construction(inputs):
    maps, src, dst = inputs
    outcome = _cone_outcome(mapping_cone, maps, src, dst)
    assert outcome == _cone_outcome(dense_mapping_cone, maps, src, dst)
    if outcome[0] != "error":
        for m in outcome[2].values():
            assert_stored_form(m)


def test_mapping_cone_errors_match_dense_construction():
    c = two_periodic_complex(3)
    ones = {n: identity_matrix(1) for n in range(4)}
    for maps, other, message in [
        ({}, c, "missing map matrix in degree 0"),
        (ones, two_periodic_complex(4), "cone needs matching windows"),
        # too many rows, too few columns, too many columns
        ({**ones, 1: IntMatrix.from_rows([[1], [1]])}, c,
         "map matrix in degree 1 is 2x1, not 1x1"),
        ({**ones, 0: IntMatrix.zeros(1, 0)}, c,
         "map matrix in degree 0 is 1x0, not 1x1"),
        ({**ones, 2: IntMatrix.from_rows([[1, 1]])}, c,
         "map matrix in degree 2 is 1x2, not 1x1"),
    ]:
        for build in (mapping_cone, dense_mapping_cone):
            with pytest.raises(ValueError, match=message):
                build(maps, c, other)


# -- sparse column storage against the dense storage it replaced -------------

# The dense row-major IntMatrix, verbatim apart from its name and its JSON
# methods, as an oracle.
class DenseMatrix:
    """Immutable integer matrix of Python ints.

    Callers build one from rows or from sparse columns and read it back by
    rows or by the nonzero entries of a column; the dense row-major
    storage is private to this module.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        entries = tuple(int(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    @classmethod
    def from_columns(cls, rows, columns):
        """Matrix with ``rows`` rows whose column j holds the (row, coeff)
        pairs of the j-th item of ``columns``; coefficients of a repeated
        row add up.  Each column is consumed once and not kept."""
        by_column = []
        cols = 0
        for col in columns:
            vec = [0] * rows
            for i, c in col:
                if i < 0:
                    raise IndexError(f"row {i} out of range")
                vec[i] += c
            by_column.extend(vec)
            cols += 1
        return cls(
            rows, cols,
            chain.from_iterable(by_column[i::rows] for i in range(rows)),
        )

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    def column(self, j):
        """The nonzero (row, coeff) pairs of column j, in row order."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        values = self._e[j :: self.cols]
        return tuple(compress(enumerate(values), values))

    def submatrix(self, rows, cols):
        """The entries at the given row and column indices, in that order;
        an index may repeat."""
        rows, cols = list(rows), list(cols)
        for idx, bound in ((rows, self.rows), (cols, self.cols)):
            if any(not 0 <= k < bound for k in idx):
                raise IndexError("submatrix index out of range")
        c, e = self.cols, self._e
        return DenseMatrix(
            len(rows), len(cols), [e[i * c + j] for i in rows for j in cols]
        )

    def to_rows(self):
        c = self.cols
        return [list(self._e[i * c : (i + 1) * c]) for i in range(self.rows)]

    def is_zero(self):
        return all(x == 0 for x in self._e)

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self._e, other._e
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            base = i * m
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m : (t + 1) * m]
                    for j in range(m):
                        out[base + j] += av * brow[j]
        return DenseMatrix(n, m, out)

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


COEFFS = st.one_of(st.integers(-3, 3), st.integers(-(10**20), 10**20))


@st.composite
def raw_columns(draw, rows, cols):
    """Columns of (row, coeff) pairs, mostly empty; some repeat a row so
    that its coefficients cancel to zero."""
    out = []
    for _ in range(cols):
        col = []
        if rows:
            col = draw(st.lists(st.tuples(st.integers(0, rows - 1), COEFFS),
                                max_size=3))
        if col and draw(st.booleans()):
            i = draw(st.sampled_from(col))[0]
            col.append((i, -sum(c for r, c in col if r == i)))
        out.append(col)
    return out


@st.composite
def matrix_cases(draw):
    rows, cols, k = (draw(st.integers(0, 7)) for _ in range(3))
    a = draw(raw_columns(rows, cols))
    if draw(st.booleans()):
        other = [list(reversed(col)) + [(i, 0) for i, _ in col] for col in a]
    else:
        other = draw(raw_columns(rows, cols))
    indices = [
        draw(st.lists(st.sampled_from(range(bound)), max_size=5)) if bound
        else []
        for bound in (rows, cols)
    ]
    return rows, a, other, draw(raw_columns(cols, k)), indices


def both(rows, columns):
    return (IntMatrix.from_columns(rows, columns),
            DenseMatrix.from_columns(rows, columns))


def assert_same(m, d):
    assert (m.rows, m.cols) == (d.rows, d.cols)
    assert m.to_rows() == d.to_rows()
    assert [m.column(j) for j in range(m.cols)] == [
        d.column(j) for j in range(d.cols)
    ]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(matrix_cases())
def test_sparse_storage_matches_dense_oracle(case):
    rows, a_cols, other_cols, b_cols, (sub_rows, sub_cols) = case
    a, da = both(rows, a_cols)
    other, dother = both(rows, other_cols)
    b, db = both(len(a_cols), b_cols)
    assert_same(a, da)
    assert_same(a.submatrix(sub_rows, sub_cols), da.submatrix(sub_rows, sub_cols))
    assert_same(a * b, da * db)
    assert (a == other) == (da == dother)
    if a == other:
        assert hash(a) == hash(other)
    assert (a == IntMatrix.zeros(rows, a.cols)) == da.is_zero()
    if rows:
        assert IntMatrix.from_rows(da.to_rows()) == a
    assert smith_normal_form(a) == smith_normal_form(da)


def test_nerve_boundaries_match_dense_oracle(monkeypatch):
    built = []
    sparse_from_columns = IntMatrix.from_columns.__func__

    def recording(cls, rows, columns):
        columns = [list(col) for col in columns]
        m = sparse_from_columns(cls, rows, columns)
        built.append((m, DenseMatrix.from_columns(rows, columns)))
        return m

    monkeypatch.setattr(IntMatrix, "from_columns", classmethod(recording))
    for seed in range(40):
        k = nerve(random_monoid(seed))
        for hi in range(1, 5):
            built.clear()
            c = chains(k, hi).complex
            boundaries = [c.boundary(n) for n in range(1, hi + 1)]
            assert [m for m, _ in built] == boundaries
            for m, d in built:
                assert_same(m, d)
            for (m1, d1), (m2, d2) in zip(built, built[1:]):
                assert_same(m1 * m2, d1 * d2)
                assert m1 * m2 == IntMatrix.zeros(m1.rows, m2.cols)


def test_malformed_shapes_raise_value_error():
    for rows, cols in ((-1, 0), (0, -1), (-1, -1)):
        with pytest.raises(ValueError, match="negative dimensions"):
            IntMatrix.zeros(rows, cols)
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix.zeros(2, 3) * IntMatrix.zeros(2, 3)


# -- the sparse elimination against the dense kernel it replaced ----------

def dense_factors(m):
    return tuple(smith_kernel(m.to_rows(), m.rows, m.cols))


UNITS = st.sampled_from([1, -1])
NON_UNITS = st.one_of(
    st.integers(2, 10), st.integers(-10, -2),
    st.integers(2, 10**20), st.integers(-(10**20), -2),
)
SNF_COEFFS = {
    "mostly-units": st.one_of(UNITS, UNITS, UNITS, st.integers(-3, 3)),
    "no-unit": NON_UNITS,
    "wide": st.integers(-(10**20), 10**20),
    "empty": UNITS,
}


@st.composite
def snf_inputs(draw):
    kind = draw(st.sampled_from(sorted(SNF_COEFFS)))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    if kind == "empty":
        rows, cols = draw(st.sampled_from([(0, cols), (rows, 0)]))
    entry = st.tuples(st.integers(0, max(rows - 1, 0)), SNF_COEFFS[kind])
    columns = [
        draw(st.lists(entry, max_size=4)) if rows else [] for _ in range(cols)
    ]
    return IntMatrix.from_columns(rows, columns)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(snf_inputs())
def test_sparse_smith_matches_dense_kernel(m):
    assert smith_normal_form(m)[0] == dense_factors(m)


def free_t():
    return PresentedDgAlgebra([("t", 1)], [], {}, {0: 0})


def automorphism_cone(m, images, hi):
    f = MonoidMap(m, m, images).validate()
    c = chains(nerve(m), hi)
    return mapping_cone(nerve_chains_map(f, c, c).blocks, c.complex, c.complex)


def boundary_shaped_windows():
    # A window up to hi holds the boundaries of every smaller window.
    for seed in range(40):
        yield chains(nerve(random_monoid(seed)), 4).complex
    yield automorphism_cone(FiniteMonoid.cyclic(4), [0, 3, 2, 1], 4)
    yield automorphism_cone(FiniteMonoid.cyclic(3), [0, 2, 1], 5)
    yield bar(monoid_algebra(FiniteMonoid.cyclic(3)), 5).complex
    yield bar(monoid_algebra(FiniteMonoid.left_zero_with_unit(3)), 4).complex
    yield bar(free_t(), 6).complex


def test_sparse_smith_matches_dense_kernel_on_boundaries():
    checked = 0
    for c in boundary_shaped_windows():
        for n in range(1, c.hi + 1):
            m = c.boundary(n)
            assert smith_normal_form(m)[0] == dense_factors(m)
            checked += 1
    assert checked == 40 * 4 + 4 + 5 + 5 + 4 + 6


# -- pairing across degrees -------------------------------------------------

def test_unit_pivots_after_a_euclidean_step_are_not_paired():
    d1 = IntMatrix.from_rows([[2, 3]])
    d2 = IntMatrix.from_rows([[3], [-2]])
    c = ChainComplexWindow(2, {0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})
    table = homology_window(c)
    assert [table[n].group() for n in range(3)] == [(0, ())] * 3
    # d_1's one unit pivot, in column 1, shows only after the Euclidean
    # step (2, 3) ~ (2, 1).  Pairing it would zero row 1 of d_2 and
    # leave diag(3): a false H_1 = Z/3.
    assert smith_normal_form(d1) == ((1,), ())
    assert smith_normal_form(IntMatrix.from_rows([[3], [0]]))[0] == (3,)
    assert smith_normal_form(IntMatrix.from_rows([[0, 1], [1, 0]])) == (
        (1, 1), (0, 1)
    )


PIECE_COEFFS = (1, -1, 2, 3, 4, 6, 9, 12)


def torsion_chain(orders):
    """Invariant factors >= 2 of the sum of Z/a over orders, from the
    primary decomposition: the k-th largest factor multiplies the k-th
    largest power of each prime."""
    powers = {}
    for a in orders:
        p = 2
        while a > 1:
            e = 1
            while a % p == 0:
                a //= p
                e *= p
            if e > 1:
                powers.setdefault(p, []).append(e)
            p += 1
    length = max(map(len, powers.values()), default=0)
    out = [1] * length
    for es in powers.values():
        for k, e in enumerate(sorted(es, reverse=True)):
            out[length - 1 - k] *= e
    return tuple(out)


def test_torsion_chain_closed_form():
    assert torsion_chain([2, 3]) == (6,)
    assert torsion_chain([4, 6, 9, 12]) == (6, 12, 36)
    assert torsion_chain([]) == ()


def random_unimodular_pair(rng, r):
    """A random r x r unimodular matrix and its inverse."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [row[:] for row in u]
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            # E = E^-1 negates row i of u and column i of v
            u[i] = [-x for x in u[i]]
            for row in v:
                row[i] = -row[i]
        elif rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
        else:
            # E = I + c e_ij adds c times row j to row i; E^-1 subtracts
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in v:
                row[j] -= c * row[i]
    return IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def elementary_complex(rng):
    """A window built as a sum of pieces Z --a--> Z and free cells, each
    degree conjugated by a random unimodular matrix, with its homology
    groups known by construction."""
    hi = rng.randrange(1, 6)
    ranks = [0] * (hi + 1)
    pieces = {n: [] for n in range(1, hi + 1)}
    free = [rng.randrange(3) for _ in range(hi + 1)]
    for n in range(1, hi + 1):
        for _ in range(rng.randrange(4)):
            a = rng.choice(PIECE_COEFFS)
            pieces[n].append((ranks[n], ranks[n - 1], a))
            ranks[n] += 1
            ranks[n - 1] += 1
    ranks = [r + f for r, f in zip(ranks, free)]
    order = [list(range(r)) for r in ranks]
    for n, cells in enumerate(order):
        rng.shuffle(cells)
    units = [random_unimodular_pair(rng, r) for r in ranks]
    bounds = {}
    for n in range(1, hi + 1):
        columns = [[] for _ in range(ranks[n])]
        for top, bottom, a in pieces[n]:
            columns[order[n][top]].append((order[n - 1][bottom], a))
        d = IntMatrix.from_columns(ranks[n - 1], columns)
        bounds[n] = units[n - 1][0] * d * units[n][1]
    want = [
        (free[n], torsion_chain(abs(a) for _, _, a in pieces.get(n + 1, ())))
        for n in range(hi + 1)
    ]
    return ChainComplexWindow(hi, dict(enumerate(ranks)), bounds), want


def test_homology_of_random_elementary_complexes_matches_construction():
    rng = random.Random(2411)
    late_units = 0
    for _ in range(1200):
        c, want = elementary_complex(rng)
        table = homology_window(c)
        assert [table[n].group() for n in range(c.hi + 1)] == want
        for n in range(1, c.hi + 1):
            d, paired = smith_normal_form(c.boundary(n))
            late_units += d.count(1) > len(paired)
    # many boundaries find unit pivots after a Euclidean step, the case
    # the pairing rule must leave unpaired
    assert late_units >= 100


# -- dropped rows against the filtered copy they replaced -------------------

def snf_dropping(m, dropped):
    """smith_normal_form(m, dropped), checked against the SNF of the
    filtered copy homology_window used to build and against the dense
    kernel's invariant factors of that copy."""
    got = smith_normal_form(m, dropped)
    copy = without_rows(m, dropped)
    assert got == smith_normal_form(copy)
    assert got[0] == dense_factors(copy)
    return got


def test_dropped_rows_match_the_filtered_copy_on_random_matrices():
    rng = random.Random(3301)
    for _ in range(400):
        rows, cols = rng.randint(0, 10), rng.randint(0, 10)
        coeffs = rng.choice([(1, -1), (1, -1, 2, -3), (2, -2, 3, 6)])
        m = IntMatrix.from_columns(rows, [
            [(rng.randrange(rows), rng.choice(coeffs))
             for _ in range(rng.randint(0, 4) if rows else 0)]
            for _ in range(cols)
        ])
        snf_dropping(m, rng.sample(range(rows), rng.randint(0, rows)))


def test_dropped_rows_match_the_filtered_copy_on_nerve_boundaries():
    dropped = 0
    for seed in range(40):
        c = chains(nerve(random_monoid(seed)), 5).complex
        paired = ()
        for n in range(1, 6):
            dropped += len(paired)
            _, paired = snf_dropping(c.boundary(n), paired)
    assert dropped > 0


def test_homology_and_cone_build_no_matrix_copy(monkeypatch):
    """homology_window builds no matrix, and mapping_cone builds one per
    boundary through the trusted constructor, none through
    from_columns."""
    counts = {"init": 0, "from_columns": 0}
    init, from_columns = IntMatrix.__init__, IntMatrix.from_columns.__func__

    def counting_init(self, rows, columns):
        counts["init"] += 1
        init(self, rows, columns)

    def counting_from_columns(cls, rows, columns):
        counts["from_columns"] += 1
        return from_columns(cls, rows, columns)

    z3 = FiniteMonoid.cyclic(3)
    windows = [
        (chains(nerve(z3), 6), MonoidMap(z3, z3, [0, 2, 1])),
        (chains(nerve(FiniteMonoid.cyclic(4)), 4), None),
        (bar(free_t(), 6), None),
    ]
    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    monkeypatch.setattr(
        IntMatrix, "from_columns", classmethod(counting_from_columns)
    )
    for c, f in windows:
        blocks = nerve_chains_map(f, c, c).blocks if f is not None else {
            n: identity_matrix(c.rank(n)) for n in range(c.hi + 1)
        }
        counts.update(init=0, from_columns=0)
        homology_window(c.complex)
        assert counts == {"init": 0, "from_columns": 0}
        cone = mapping_cone(blocks, c.complex, c.complex)
        assert counts == {"init": c.hi, "from_columns": 0}
        homology_window(cone)
        assert counts == {"init": c.hi, "from_columns": 0}


# -- oracles at sizes the dense kernel never reached ------------------------

def rank_mod_p(m, p):
    """Rank over F_p by reducing each column against the earlier columns'
    pivots, keyed by their largest row."""
    pivots = {}
    for j in range(m.cols):
        col = {i: c % p for i, c in m.column(j) if c % p}
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {i: c * inv % p for i, c in col.items()}
                break
            f = col[low]
            for i, c in pivot.items():
                x = (col.get(i, 0) - f * c) % p
                if x:
                    col[i] = x
                else:
                    col.pop(i, None)
    return len(pivots)


def test_rank_mod_p_oracle_on_small_matrices():
    m = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0], [0, 0, 0]])
    assert [rank_mod_p(m, p) for p in (2, 3, 5)] == [0, 1, 2]
    m = IntMatrix.from_rows([[1, 1], [1, -1]])
    assert [rank_mod_p(m, p) for p in (2, 3)] == [1, 2]


@pytest.mark.parametrize("m, hi", [(3, 11), (5, 5)])
def test_nerve_homology_at_scale_matches_closed_form_and_ranks_mod_p(m, hi):
    c = chains(nerve(FiniteMonoid.cyclic(m)), hi).complex
    assert [c.rank(n) for n in range(hi + 1)] == [
        (m - 1) ** n for n in range(hi + 1)
    ]
    table = homology_window(c)
    # H_*(BZ/m) = Z, Z/m, 0, Z/m, ...; the partial top degree is the
    # kernel of d_hi, and rk d_{n+1} = rank C_n - rk d_n for n >= 1.
    assert table[0].group() == (1, ())
    for n in range(1, hi):
        assert table[n].group() == ((0, (m,)) if n % 2 else (0, ()))
        assert table[n].exact
    rk_d = 0
    for n in range(1, hi):
        rk_d = (m - 1) ** n - rk_d
    assert table[hi].group() == ((m - 1) ** hi - rk_d, ())
    assert not table[hi].exact
    for p in (2, 3, 5):
        rank_p = {0: 0, hi + 1: 0}
        for n in range(1, hi + 1):
            d, _ = smith_normal_form(c.boundary(n))
            rank_p[n] = rank_mod_p(c.boundary(n), p)
            assert rank_p[n] == sum(1 for x in d if x and x % p)
        # Universal coefficients: dim H_n(C; F_p) = free_n plus the
        # p-divisible torsion of H_n and of H_{n-1}.
        for n in range(hi + 1):
            torsion = [
                t for k in (n, n - 1) if k >= 0 for t in table[k].torsion
            ]
            assert c.rank(n) - rank_p[n] - rank_p[n + 1] == (
                table[n].free_rank + sum(1 for t in torsion if t % p == 0)
            )


@pytest.mark.parametrize("m, n", [(3, 8), (4, 5)])
def test_snf_of_twice_a_nerve_boundary_is_twice_its_closed_form(m, n):
    # 2·d_n has no unit entry, so every pivot takes a Euclidean step.
    # SNF(d_n) follows from H_*(BZ/m) = Z, Z/m, 0, Z/m, ...: rk d_1 = 0,
    # rk d_k = rank C_{k-1} - rk d_{k-1}, and for even k the last nonzero
    # factor of d_k is m, the torsion of H_{k-1}.
    b = chains(nerve(FiniteMonoid.cyclic(m)), n).complex.boundary(n)
    assert (b.rows, b.cols) == ((m - 1) ** (n - 1), (m - 1) ** n)
    rk = 0
    for k in range(2, n + 1):
        rk = (m - 1) ** (k - 1) - rk
    want = (1,) * (rk - 1) + ((m,) if n % 2 == 0 else (1,))
    want += (0,) * (b.rows - rk)
    twice = IntMatrix.from_columns(
        b.rows, ([(i, 2 * c) for i, c in b.column(j)] for j in range(b.cols))
    )
    assert smith_normal_form(b)[0] == want
    assert smith_normal_form(twice)[0] == tuple(2 * x for x in want)


def assert_euler_characteristic(c):
    table = homology_window(c)
    degrees = range(c.hi + 1)
    assert sum((-1) ** n * c.rank(n) for n in degrees) == sum(
        (-1) ** n * table[n].free_rank for n in degrees
    )


def test_euler_characteristic_of_nerve_windows():
    for seed in range(40):
        mon = random_monoid(seed)
        k = nerve(mon)
        for hi in range(1, 6):
            c = chains(k, hi).complex
            assert [c.rank(n) for n in range(hi + 1)] == [
                (mon.order() - 1) ** n for n in range(hi + 1)
            ]
            assert_euler_characteristic(c)


def test_euler_characteristic_of_bundled_bar_windows():
    algebras = [free_t()] + [
        monoid_algebra(m) for m in bundled_monoids().values()
    ]
    for algebra in algebras:
        assert_euler_characteristic(bar(algebra, 5).complex)
