"""The dense Smith normal form kernel that barloop.exactlin replaced.

``xgcd`` and ``smith_kernel`` are copied verbatim from the version that
ran sparse unit-pivot elimination first and this dense kernel on the
residual block.  test_exactlin.py checks the sparse elimination against
``smith_kernel`` on whole matrices, and sorting_rewrite.py keeps the
``xgcd`` its copied completion was checked with, so the current code is
never checked against itself.
"""


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
