"""The simplicial group identities that kan_loop_group no longer checks.

Kan's loop group of a reduced simplicial set is a simplicial group (Kan,
"A combinatorial definition of homotopy groups", 1958; May, "Simplicial
objects in algebraic topology", §26), so barloop.loopgroup returns its
levels without checking the identities.  ``check_group_identities``
checks them on the returned levels instead, with the messages the
runtime check raised.  It checks each identity wherever every map it
reads is recorded in the levels, so run it on kan_loop_group(k, hi + 1)
to cover d_i s_j on level hi.
"""

from barloop.errors import MismatchAt
from barloop.loopgroup import free_inverse, free_reduce


def _free_apply(word, images):
    """Extend a map on generators (label -> word) to a word."""
    out = []
    for g, e in word:
        im = images[g]
        out.extend(im if e == 1 else free_inverse(im))
    return free_reduce(out)


def _maps(level, per_gen):
    """Per index i, the map label -> image word of the i-th operator."""
    return [
        {lbl: per_gen[g][i] for g, lbl in enumerate(level.labels)}
        for i in range(level.n + 1)
    ]


def check_group_identities(levels):
    """Raise MismatchAt naming the first identity the levels break, level
    by level and generator by generator: d_i d_j = d_{j-1} d_i for i < j,
    s_i s_j = s_{j+1} s_i for i <= j, and d_i s_j, which is the identity
    for i in {j, j+1}, s_{j-1} d_i for i < j and s_j d_{i-1} for
    i > j + 1."""
    top = len(levels) - 1
    d = {lv.n: _maps(lv, lv.faces) for lv in levels if lv.n}
    s = {lv.n: _maps(lv, lv.degeneracies) for lv in levels}

    def bad(name, n, lbl):
        raise MismatchAt(
            f"loop group violates {name} at level {n} on {lbl}", degree=n,
            element=lbl,
        )

    for n, level in enumerate(levels):
        for lbl in level.labels:
            if n >= 2:
                for j in range(1, n + 1):
                    for i in range(j):
                        left = _free_apply(d[n][j][lbl], d[n - 1][i])
                        right = _free_apply(d[n][i][lbl], d[n - 1][j - 1])
                        if left != right:
                            bad(f"d{i} d{j} = d{j - 1} d{i}", n, lbl)
            if n == top:
                continue
            for j in range(n + 1):
                for i in range(j + 1):
                    left = _free_apply(s[n][j][lbl], s[n + 1][i])
                    right = _free_apply(s[n][i][lbl], s[n + 1][j + 1])
                    if left != right:
                        bad(f"s{i} s{j} = s{j + 1} s{i}", n, lbl)
            for j in range(n + 1):
                sj = s[n][j][lbl]
                for i in range(n + 2):
                    got = _free_apply(sj, d[n + 1][i])
                    if i in (j, j + 1):
                        want = ((lbl, 1),)
                    elif i < j:
                        want = _free_apply(d[n][i][lbl], s[n - 1][j - 1])
                    else:
                        want = _free_apply(d[n][i - 1][lbl], s[n - 1][j])
                    if got != want:
                        bad(f"d{i} s{j}", n, lbl)
