"""Exact integer matrices, Smith normal form, and windowed homology.

A chain complex is only ever known on a degree window 0..hi; nothing
lives in negative degrees.  Homology in degrees 0..hi-1 is exact; in the
top degree the missing differential d_{hi+1} is treated as zero and the
result is flagged as partial.  Smith normal form is computed on the
sparse columns by one elimination that never densifies.
"""

from math import gcd

from ..errors import WindowTooSmall

__all__ = [
    "IntMatrix",
    "smith_normal_form",
    "ChainComplexWindow",
    "HomologyEntry",
    "HomologyTable",
    "homology_window",
    "mapping_cone",
    "basis_window",
    "backend_name",
]


def backend_name():
    """Name of the elimination kernel (there is one, in pure Python)."""
    return "python"


class IntMatrix:
    """Immutable sparse integer matrix of Python ints.

    Column j is stored as the tuple of its nonzero (row, coeff) pairs in
    ascending row order, the form callers build with ``from_columns`` and
    read back with ``column``; ``to_rows`` is the only dense reader.
    """

    __slots__ = ("rows", "cols", "_c")

    def __init__(self, rows, columns):
        # Trusts stored-form columns: from_columns normalizes what callers
        # build, and mapping_cone assembles blocks already in that form.
        self.rows = rows
        self.cols = len(columns)
        self._c = columns

    @classmethod
    def from_rows(cls, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        if any(len(r) != cols for r in row_lists):
            raise ValueError("ragged rows")
        return cls.from_columns(
            rows, (list(enumerate(col)) for col in zip(*row_lists))
        )

    @classmethod
    def from_columns(cls, rows, columns):
        """Matrix with ``rows`` rows whose column j holds the (row, coeff)
        pairs of the j-th item of ``columns``; coefficients of a repeated
        row add up.  Each column is consumed once and not kept."""
        if rows < 0:
            raise ValueError("negative dimensions")
        out = []
        for col in columns:
            acc = {}
            for i, c in col:
                acc[i] = acc.get(i, 0) + c
            # one range check per column, on its lowest and highest row,
            # cancelled rows included
            pairs = sorted(acc.items())
            if pairs and (pairs[0][0] < 0 or pairs[-1][0] >= rows):
                bad = pairs[0][0] if pairs[0][0] < 0 else pairs[-1][0]
                raise IndexError(f"row {bad} out of range")
            out.append(tuple(p for p in pairs if p[1]))
        return cls(rows, tuple(out))

    @classmethod
    def zeros(cls, rows, cols):
        if cols < 0:
            raise ValueError("negative dimensions")
        return cls.from_columns(rows, [()] * cols)

    def column(self, j):
        """The stored tuple of the nonzero (row, coeff) pairs of column
        j, in row order."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return self._c[j]

    def submatrix(self, rows, cols):
        """The entries at the given row and column indices, in that order;
        an index may repeat."""
        rows, cols = list(rows), list(cols)
        for idx, bound in ((rows, self.rows), (cols, self.cols)):
            if any(not 0 <= k < bound for k in idx):
                raise IndexError("submatrix index out of range")
        positions = {}
        for k, i in enumerate(rows):
            positions.setdefault(i, []).append(k)
        return IntMatrix.from_columns(
            len(rows),
            (
                [(k, c) for i, c in self._c[j] for k in positions.get(i, ())]
                for j in cols
            ),
        )

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._c):
            for i, c in col:
                out[i][j] = c
        return out

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.rows, self._c))

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        a = self._c
        return IntMatrix.from_columns(
            self.rows,
            ([(i, b * x) for t, b in bc for i, x in a[t]] for bc in other._c),
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def smith_normal_form(m, dropped=()):
    """(factors, paired) of an integer matrix with ``rows``, ``cols`` and
    sparse ``column(j)``, read with the rows in ``dropped`` zeroed: its
    min(rows, cols) invariant factors, the diagonal of its Smith normal
    form (nonnegative, each dividing the next), and the columns paired
    with a unit pivot before the first Euclidean step, both as tuples.
    The dropped rows are skipped as the columns load, so no filtered
    copy of m is built (``homology_window`` drops the rows the previous
    boundary paired).

    All coefficients are Python ints, so nothing can overflow.  Homology
    needs ranks and invariant factors, never the unimodular transforms,
    so none are accumulated.  The matrix lives as one dict per row and,
    per column, the set of rows where it is nonzero; it is never
    densified.

    Sweeps first remove every +-1 pivot, as Dumas, Heckenbach, Saunders
    and Welker do for simplicial boundaries.  Each sweep visits the live
    columns in ascending order of their live-row count and pivots on the
    +-1 entry of the shortest row, the lowest row index breaking ties;
    sweeps repeat until one finds no unit pivot.  Then one Euclidean step
    runs at the smallest |entry| a, the lowest row and then the lowest
    column breaking ties, and the sweeps start over when the step wrote a
    +-1 entry; otherwise the next Euclidean step follows.  The step either
    shrinks the smallest entry or leaves a alone in its row and column, a
    diagonal entry.  A pivot alone in its column can clear its row by
    column operations that touch that row alone, so the matrix is
    equivalent to the diagonal of its pivots, which gcd/lcm exchanges,
    diag(a, b) ~ diag(gcd, lcm), bring into Smith form.

    Only the unit pivots found before the first Euclidean step are
    reported as paired (see ``homology_window``): a Euclidean step's
    column operations have an unpaired source.
    """
    rows, cols = m.rows, m.cols
    dropped = set(dropped)
    row = [{} for _ in range(rows)]
    live = []
    for j in range(cols):
        rs = set()
        for i, c in m.column(j):
            if i not in dropped:
                row[i][j] = c
                rs.add(i)
        live.append(rs)
    # A dead column never comes back: row operations only add multiples
    # of a pivot row, whose columns are all live.
    left = [j for j in range(cols) if live[j]]

    def subtract(r, q, pivot):
        # Row r -= q * (the pivot row's (column, coeff) pairs ``pivot``).
        target = row[r]
        for k, v in pivot:
            x = target.get(k, 0) - q * v
            if x:
                if k not in target:
                    live[k].add(r)
                target[k] = x
            else:
                del target[k]
                live[k].discard(r)

    def retire(p, j):
        # Row p is alone in column j: the column operations that clear
        # the rest of row p change nothing else, so drop both.  Row p may
        # already lack its column-j entry.
        for k in row[p]:
            live[k].discard(p)
        row[p] = {}
        live[j] = set()

    pivots = []
    paired = None  # unit pivots found before the first Euclidean step
    factors = []
    unit = True  # whether the matrix may hold a +-1 entry
    while True:
        found = unit
        if not unit:
            left = [j for j in left if live[j]]
        while found:
            found = False
            left = [j for j in left if live[j]]
            for j in sorted(left, key=lambda j: len(live[j])):
                rs = live[j]
                best = None
                for i in rs:
                    if row[i][j] in (1, -1):
                        key = (len(row[i]), i)
                        if best is None or key < best:
                            best = key
                if best is None:
                    continue
                p = best[1]
                u = row[p].pop(j)
                pivot = list(row[p].items())
                for r in rs:
                    if r != p:
                        subtract(r, row[r].pop(j) * u, pivot)
                retire(p, j)
                pivots.append(j)
                found = True
        if not left:
            break
        if paired is None:
            paired = len(pivots)
        _, p, j = min((abs(row[i][j]), i, j) for j in left for i in live[j])
        a = row[p][j]
        pivot = [(k, v) for k, v in row[p].items() if k != j]
        touched = list(live[j])
        for r in touched:
            if r != p:
                q, rest = divmod(row[r][j], a)
                if rest:
                    row[r][j] = rest
                else:
                    del row[r][j]
                    live[j].discard(r)
                subtract(r, q, pivot)
        if len(live[j]) == 1:
            # Column operations against column j, now zero off row p,
            # reduce the rest of row p mod a.
            for k, v in pivot:
                x = v % a
                if x:
                    row[p][k] = x
                else:
                    del row[p][k]
                    live[k].discard(p)
            if len(row[p]) == 1:
                retire(p, j)
                factors.append(abs(a))
        # The sweeps left no +-1 entry, so only the rows this step wrote
        # can hold one; without one the next sweep would find no pivot.
        unit = any(
            v == 1 or v == -1 for r in touched for v in row[r].values()
        )
    # diag(a, b) ~ diag(gcd, lcm): afterwards factors[i] divides every
    # later entry.
    for i in range(len(factors)):
        for k in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[k])
            factors[i], factors[k] = g, factors[i] // g * factors[k]
    d = [1] * len(pivots) + factors
    d += [0] * (min(rows, cols) - len(d))
    return tuple(d), tuple(pivots[:paired])


class ChainComplexWindow:
    """A chain complex on degrees 0..hi, zero in negative degrees.

    ``boundaries[n]`` is the differential from degree n to degree n-1 and
    must be present for 0 < n <= hi.  Windows built by basis_window also
    keep ``bases[n]``, the basis of degree n, ``index[n][b]``, the
    position of b in it, and ``label_of``, the function that names a
    basis element; all three are None otherwise, and ``label`` then names
    the i-th element of degree n ``deg{n}#{i}``.
    """

    __slots__ = ("hi", "ranks", "boundaries", "bases", "index", "label_of")

    def __init__(self, hi, ranks, boundaries):
        if hi <= 0:
            raise WindowTooSmall(f"window [0, {hi}] has no interior")
        self.hi = hi
        self.ranks = dict(ranks)
        self.boundaries = dict(boundaries)
        self.bases = None
        self.index = None
        self.label_of = None
        for n in range(hi + 1):
            if n not in self.ranks:
                raise ValueError(f"missing rank in degree {n}")
        for n in range(1, hi + 1):
            b = self.boundaries.get(n)
            if b is None:
                raise ValueError(f"missing boundary in degree {n}")
            if b.rows != self.ranks[n - 1] or b.cols != self.ranks[n]:
                raise ValueError(f"boundary shape mismatch in degree {n}")

    def rank(self, n):
        return self.ranks.get(n, 0)

    def boundary(self, n):
        """d_n: degree n -> degree n-1; zero matrix outside the window."""
        if n in self.boundaries:
            return self.boundaries[n]
        return IntMatrix.zeros(self.rank(n - 1), self.rank(n))

    def label(self, n, i):
        if self.label_of is not None:
            return self.label_of(self.bases[n][i])
        return f"deg{n}#{i}"


class HomologyEntry:
    """Isomorphism class of one homology group: Z^free + sum Z/t_i."""

    __slots__ = ("free_rank", "torsion", "exact")

    def __init__(self, free_rank, torsion, exact):
        self.free_rank = free_rank
        # Canonical form: divisors >= 2, sorted along the divisibility chain.
        self.torsion = tuple(t for t in torsion if t >= 2)
        self.exact = exact

    def iso(self, other):
        return (
            self.free_rank == other.free_rank and self.torsion == other.torsion
        )

    def group(self):
        """Isomorphism class as a (free rank, torsion divisors) pair."""
        return (self.free_rank, self.torsion)

    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def __eq__(self, other):
        return isinstance(other, HomologyEntry) and self.iso(other) and (
            self.exact == other.exact
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion, self.exact))

    def describe(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        body = " + ".join(parts) if parts else "0"
        return body if self.exact else body + " (partial)"

    def __repr__(self):
        return f"HomologyEntry({self.describe()})"


class HomologyTable:
    """Homology groups per degree over a window."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = dict(entries)

    def __getitem__(self, n):
        return self.entries[n]

    def degrees(self):
        return sorted(self.entries)

    def to_json_dict(self):
        return {
            str(n): {
                "free_rank": e.free_rank,
                "torsion": [str(t) for t in e.torsion],
                "exact": e.exact,
            }
            for n, e in self.entries.items()
        }


def homology_window(c):
    """Homology of a ChainComplexWindow in every window degree.

    Only ranks and invariant factors are needed:
    free_n = rank C_n - rk d_n - rk d_{n+1}, and the torsion of H_n is
    the invariant factors >= 2 of d_{n+1}.  Degrees 0..hi-1 are exact;
    degree hi treats the out-of-window d_{hi+1} as zero and is flagged
    partial.

    c must be a chain complex (d∘d = 0); this function does not check
    it.  Chain windows of simplicial sets are one by theorem: normalized
    chains satisfy d∘d = 0 by the simplicial identities, which a nerve
    gets from FiniteMonoid's checked associativity and unit law and an
    ExplicitSimplicialSet checks when it is built.  Windows of presented
    dg algebras (bar, complex_window) are one because require_complete
    checks d² = 0 on the quotient where the algebra enters.  A mapping
    cone is one exactly when its map is a chain map, which each caller
    of cone_quasi_iso_window has by theorem.

    Each d_n is eliminated with the rows zeroed that d_{n-1} paired:
    smith_normal_form skips them as it loads d_n, so no copy is built.
    The unit sweeps of d_{n-1} give d_{n-1} V = U^-1 (±I ⊕ R), the ±I
    block at the paired columns, where V holds only column operations
    whose source is a paired column.  As a row operation on d_n, V^-1
    changes only paired rows, and d_{n-1} d_n = 0 forces them to vanish
    in V^-1 d_n.  So V^-1 d_n is d_n with the paired rows zeroed: same
    rank, same invariant factors, and still zero before d_{n+1}.  A
    Euclidean step's column operations have an unpaired source and
    rewrite rows that stay, so no pivot found after one is paired.
    """
    factors = {}
    paired = ()
    for n in range(1, c.hi + 1):
        diagonal, paired = smith_normal_form(c.boundary(n), paired)
        factors[n] = [x for x in diagonal if x]
    entries = {}
    for n in range(c.hi + 1):
        below = factors.get(n, [])
        above = factors.get(n + 1, [])
        entries[n] = HomologyEntry(
            c.rank(n) - len(below) - len(above), above, n < c.hi
        )
    return HomologyTable(entries)


def mapping_cone(maps, src, dst):
    """Mapping cone of a chain map f: src -> dst given per-degree matrices.

    cone_n = src_{n-1} (+) dst_n with d(c, x) = (-d c, d x + f c), on
    degrees 0..hi of src and dst, whose top degrees must match; rank(-1)
    and boundary(0) read as zero.  Its homology in the exact degrees
    0..hi-1 certifies whether f is a quasi-isomorphism there.

    ``maps[k]`` must be dst.rank(k) x src.rank(k) for k < hi, and may be
    missing only where that block is empty; otherwise ValueError names
    the degree.  Each cone column is assembled already in stored form
    and handed to the IntMatrix constructor as is: the -d c rows lie
    below src.rank(n-2), the f c and d x rows are shifted past them, and
    every block column is sorted, with distinct rows and nonzero
    coefficients, so their concatenation is too.
    """
    if src.hi != dst.hi:
        raise ValueError("cone needs matching windows")
    hi = src.hi
    ranks = {n: src.rank(n - 1) + dst.rank(n) for n in range(hi + 1)}
    bounds = {}
    for n in range(1, hi + 1):
        sc, shift, below = src.rank(n - 1), src.rank(n - 2), dst.rank(n - 1)
        f = maps.get(n - 1)
        if f is None:
            if sc and below:
                raise ValueError(f"missing map matrix in degree {n - 1}")
        elif (f.rows, f.cols) != (below, sc):
            raise ValueError(
                f"map matrix in degree {n - 1} is {f.rows}x{f.cols}, "
                f"not {below}x{sc}"
            )
        # boundary(0) has no rows, so the cone's d_1 has no -d c part
        dsrc = src.boundary(n - 1) if n > 1 else None
        ddst = dst.boundary(n)
        columns = []
        for j in range(sc):
            col = [(i, -x) for i, x in dsrc.column(j)] if n > 1 else []
            if f is not None:
                col += [(shift + i, x) for i, x in f.column(j)]
            columns.append(tuple(col))
        for j in range(dst.rank(n)):
            columns.append(tuple([(shift + i, x) for i, x in ddst.column(j)]))
        bounds[n] = IntMatrix(shift + below, tuple(columns))
    return ChainComplexWindow(hi, ranks, bounds)


def basis_window(bases, columns, label):
    """Chain window on degrees 0..hi from ordered bases.

    ``bases[n]`` is the basis of degree n for n = 0..hi, with
    hi = len(bases) - 1.  ``columns(n, below, bounds)`` yields the
    columns of d_n, one per element of bases[n] in order, as (row, coeff)
    pairs whose sum is d of that element; ``below[b]`` is the row of b,
    its position in degree n-1, and ``bounds[k]`` is d_k for 0 < k < n,
    already built.  Each degree's columns stream into ``from_columns``.
    ``label(b)`` names b, called only when the window's ``label`` is
    read.  The window keeps ``bases``, ``index``, where index[n][b] is
    the position of b in degree n, and ``label`` as ``label_of``.
    Raises WindowTooSmall when hi is 0.
    """
    hi = len(bases) - 1
    index = {n: {b: i for i, b in enumerate(bases[n])} for n in range(hi + 1)}
    ranks = {n: len(bases[n]) for n in index}
    bounds = {}
    for n in range(1, hi + 1):
        bounds[n] = IntMatrix.from_columns(
            ranks[n - 1], columns(n, index[n - 1], bounds)
        )
    window = ChainComplexWindow(hi, ranks, bounds)
    window.bases = bases
    window.index = index
    window.label_of = label
    return window
