"""Smith normal form over the integers by one sparse elimination.

All coefficients are Python ints, so nothing can overflow.  Homology
needs ranks and invariant factors, never the unimodular transforms, so
none are accumulated; the kernel reports only which columns its unit
pivots paired before the first Euclidean step (see ``homology_window``).

The matrix lives as one dict per row and, per column, the set of rows
where it is nonzero; it is never densified.  Sweeps first remove every
+-1 pivot, as Dumas, Heckenbach, Saunders and Welker do for simplicial
boundaries.  When a sweep finds none, one Euclidean step at the smallest
entry a either shrinks the smallest entry or leaves a alone in its row
and column, a diagonal entry.  A pivot alone in its column can clear its
row by column operations that touch that row alone, so the matrix is
equivalent to the diagonal of its pivots, which gcd/lcm exchanges,
diag(a, b) ~ diag(gcd, lcm), bring into Smith form.
"""

from math import gcd

__all__ = ["invariant_factors"]


def invariant_factors(rows, cols, column):
    """(factors, paired) of the rows x cols integer matrix whose column j
    has the nonzero (row, coeff) pairs ``column(j)``: its min(rows, cols)
    invariant factors, nonnegative, each dividing the next, and the
    columns of the unit pivots found before the first Euclidean step.

    Each sweep visits the live columns in ascending order of their
    live-row count and pivots on the +-1 entry of the shortest row, the
    lowest row index breaking ties; sweeps repeat until one finds no unit
    pivot.  Then one Euclidean step runs at the smallest |entry|, the
    lowest row and then the lowest column breaking ties, and the sweeps
    start over.
    """
    row = [{} for _ in range(rows)]
    live = []
    for j in range(cols):
        col = column(j)
        for i, c in col:
            row[i][j] = c
        live.append({i for i, _ in col})
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
    while True:
        found = True
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
        for r in list(live[j]):
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
    # diag(a, b) ~ diag(gcd, lcm): afterwards factors[i] divides every
    # later entry.
    for i in range(len(factors)):
        for k in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[k])
            factors[i], factors[k] = g, factors[i] // g * factors[k]
    d = [1] * len(pivots) + factors
    d += [0] * (min(rows, cols) - len(d))
    return tuple(d), tuple(pivots[:paired])
