"""Smith normal form over the integers: sparse unit-pivot elimination,
then the dense kernel on the residual.

All coefficients are Python ints, so nothing can overflow.  The kernels
return the invariant factors only: homology needs ranks and invariant
factors, never the unimodular transforms, so none are accumulated.

``unit_pivot_smith`` first removes every +-1 pivot on sparse rows, as
Dumas, Heckenbach, Saunders and Welker do for simplicial boundaries.  A
unit pivot clears its column by unimodular row operations; the column
operations that would then clear its row touch that row alone, so
SNF(M) = I_k + SNF(R) for k unit pivots and the residual block R.  Only
the nonzero rows and columns of R reach the dense ``smith_kernel``.
"""

__all__ = ["smith_kernel", "unit_pivot_smith", "xgcd"]


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def smith_kernel(mat, rows, cols):
    """Diagonalize an integer matrix by unimodular row/column operations.

    ``mat`` is a list of row lists; it is not modified.  Returns the
    diagonal: a list of ``min(rows, cols)`` nonnegative integers with
    each entry dividing the next.
    """
    d = [list(row) for row in mat]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]

    def row_combine(i, j, k):
        # Unimodular op on rows i, j canceling d[j][k] against pivot d[i][k].
        a, b = d[i][k], d[j][k]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            d[j] = [x - q * y for x, y in zip(d[j], d[i])]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        ri, rj = d[i], d[j]
        d[i] = [x * p + y * q for p, q in zip(ri, rj)]
        d[j] = [-bg * p + ag * q for p, q in zip(ri, rj)]

    def col_combine(j, l, k):
        # Unimodular op on columns j, l canceling d[k][l] against d[k][j].
        a, b = d[k][j], d[k][l]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for r in d:
                r[l] -= q * r[j]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for r in d:
            p, q = r[j], r[l]
            r[j] = x * p + y * q
            r[l] = -bg * p + ag * q

    def select_pivot(k):
        # Minimal |entry| nonzero pivot in the trailing submatrix.
        bi = bj = -1
        best = 0
        for i in range(k, rows):
            di = d[i]
            for j in range(k, cols):
                e = di[j]
                if e and (best == 0 or abs(e) < best):
                    best = abs(e)
                    bi, bj = i, j
        if bi < 0:
            return False
        if bi != k:
            d[k], d[bi] = d[bi], d[k]
        if bj != k:
            col_swap(k, bj)
        return True

    def eliminate_from(k0):
        k = k0
        while k < rows and k < cols:
            if not select_pivot(k):
                break
            while True:
                for i in range(k + 1, rows):
                    row_combine(k, i, k)
                row_clean = True
                for j in range(k + 1, cols):
                    if d[k][j]:
                        row_clean = False
                        break
                if row_clean:
                    break
                for j in range(k + 1, cols):
                    col_combine(k, j, k)
                col_clean = True
                for i in range(k + 1, rows):
                    if d[i][k]:
                        col_clean = False
                        break
                if col_clean:
                    break
            k += 1
        return k

    rank = eliminate_from(0)

    # Enforce the divisibility chain d[i] | d[i+1].
    while True:
        bad = -1
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                bad = i
                break
        if bad < 0:
            break
        # Pull column bad+1 into column bad, then re-eliminate the tail.
        for r in d:
            r[bad] += r[bad + 1]
        eliminate_from(bad)

    return [abs(d[i][i]) for i in range(min(rows, cols))]


def eliminate_unit_pivots(rows, cols, column):
    """Remove the +-1 pivots of an integer matrix on sparse rows.

    ``column(j)`` gives the nonzero (row, coeff) pairs of column j.  Each
    sweep visits the columns in ascending order of their live-row count
    and pivots on the +-1 entry of the shortest row, the lowest row index
    breaking ties; sweeps repeat until one finds no unit pivot.  Returns
    the number of pivots and the residual block as dense row lists
    restricted to its nonzero rows and columns.
    """
    row = [{} for _ in range(rows)]
    live = []
    for j in range(cols):
        col = column(j)
        for i, c in col:
            row[i][j] = c
        live.append({i for i, _ in col})
    units = 0
    found = True
    while found:
        found = False
        for j in sorted(range(cols), key=lambda j: len(live[j])):
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
            prow = row[p]
            u = prow.pop(j)
            pivot = list(prow.items())
            for r in rs:
                if r == p:
                    continue
                target = row[r]
                q = target.pop(j) * u
                for k, v in pivot:
                    x = target.get(k, 0) - q * v
                    if x:
                        if k not in target:
                            live[k].add(r)
                        target[k] = x
                    else:
                        del target[k]
                        live[k].discard(r)
            # Column j now holds only the unit; the column operations that
            # clear the rest of row p change nothing else, so drop both.
            for k, _ in pivot:
                live[k].discard(p)
            row[p] = {}
            live[j] = set()
            units += 1
            found = True
    kept = [j for j in range(cols) if live[j]]
    at = {j: t for t, j in enumerate(kept)}
    residual = []
    for r in row:
        if r:
            dense = [0] * len(kept)
            for j, c in r.items():
                dense[at[j]] = c
            residual.append(dense)
    return units, residual


def unit_pivot_smith(rows, cols, column):
    """Invariant factors of the rows x cols integer matrix whose column j
    has the nonzero (row, coeff) pairs ``column(j)``: ones for the unit
    pivots, then the nonzero factors of the residual block, then zeros up
    to min(rows, cols)."""
    units, residual = eliminate_unit_pivots(rows, cols, column)
    width = len(residual[0]) if residual else 0
    d = [1] * units
    d += [x for x in smith_kernel(residual, len(residual), width) if x]
    return d + [0] * (min(rows, cols) - len(d))
