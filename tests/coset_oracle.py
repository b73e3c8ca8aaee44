"""The coset enumeration that barloop.monoids.group_completion dropped.

``_coset_enumeration`` is copied verbatim from the version that fell
back to it when rewriting completion of a presented group ran out of
budget.  Rewriting completion is now the only path, and a budget that
runs out ends in ``Exhausted``.  Todd-Coxeter shares no code with
rewriting, so test_monoids.py checks that the order it finds equals the
order ``group_completion`` counts, on every bundled presentation.
"""

from barloop.monoids import _find, inverse_label


def _coset_enumeration(p, inv, budget):
    """Enumerate cosets of the trivial subgroup (HLT with coincidences).

    Returns (labels, identity index, table) when the enumeration closes
    within budget, else None.  Closing proves the group finite and the
    coset action on its own underlying set is the multiplication table.
    """
    letters = []
    for g in p.generators:
        letters.append(g)
        letters.append(inv[g])
    lidx = {g: i for i, g in enumerate(letters)}
    pair = {}
    for g in p.generators:
        pair[lidx[g]] = lidx[inv[g]]
        pair[lidx[inv[g]]] = lidx[g]
    relators = []
    for u, v in p.relations:
        # u v^{-1} as letter indices
        relators.append(
            tuple(lidx[g] for g in u)
            + tuple(pair[lidx[g]] for g in reversed(v))
        )
    for g in p.generators:
        relators.append((lidx[g], lidx[inv[g]]))

    nl = len(letters)
    table = [[None] * nl]  # table[coset][letter]
    rep = [0]              # union-find over cosets

    pending = []

    def merge(a, b):
        a, b = _find(rep, a), _find(rep, b)
        if a != b:
            if a > b:
                a, b = b, a
            rep[b] = a
            pending.append(b)

    def deduce(c, l, d):
        c, d = _find(rep, c), _find(rep, d)
        cur = table[c][l]
        if cur is not None and _find(rep, cur) != d:
            merge(cur, d)
        table[c][l] = d
        cur2 = table[d][pair[l]]
        if cur2 is not None and _find(rep, cur2) != c:
            merge(cur2, c)
        table[d][pair[l]] = c

    defined = 1
    steps = 0
    queue = [0]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        if _find(rep, c) != c:
            continue
        for rel in relators:
            # scan the relator cycle from coset c, defining as needed
            cur = _find(rep, c)
            for pos, l in enumerate(rel):
                steps += 1
                if steps > budget:
                    return None
                nxt = table[cur][l]
                if nxt is None:
                    if pos == len(rel) - 1:
                        deduce(cur, l, _find(rep, c))
                        nxt = _find(rep, c)
                    else:
                        table.append([None] * nl)
                        rep.append(len(rep))
                        nxt = len(rep) - 1
                        defined += 1
                        if defined > budget:
                            return None
                        deduce(cur, l, nxt)
                        queue.append(nxt)
                else:
                    nxt = _find(rep, nxt)
                    if pos == len(rel) - 1 and nxt != _find(rep, c):
                        merge(nxt, _find(rep, c))
                        nxt = _find(rep, c)
                cur = nxt
            # process coincidences eagerly
            while pending:
                dead = pending.pop()
                row = table[dead]
                for l, d in enumerate(row):
                    if d is not None:
                        a = _find(rep, dead)
                        deduce(a, l, _find(rep, d))
        # all relators traced from c without budget blowup

    # compact the live cosets
    live = sorted({_find(rep, c) for c in range(len(rep))})
    # every entry must be filled for the enumeration to have closed
    comp = {c: i for i, c in enumerate(live)}
    out = []
    for c in live:
        row = table[c]
        new_row = []
        for l in range(nl):
            if row[l] is None:
                return None
            new_row.append(comp[_find(rep, row[l])])
        out.append(new_row)

    # coset-by-letter action -> full multiplication table: represent
    # each coset by a shortest word reaching it from the trivial coset
    words = {comp[_find(rep, 0)]: ()}
    frontier = [comp[_find(rep, 0)]]
    while frontier:
        nxt_frontier = []
        for c in frontier:
            for l in range(nl):
                d = out[c][l]
                if d not in words:
                    words[d] = words[c] + (l,)
                    nxt_frontier.append(d)
        frontier = nxt_frontier
    n = len(live)
    if len(words) != n:
        return None

    def act(c, word):
        for l in word:
            c = out[c][l]
        return c

    table2 = [[act(i, words[j]) for j in range(n)] for i in range(n)]
    one = inverse_label("1", set(letters), "")
    labels = []
    for i in range(n):
        w = words[i]
        labels.append("*".join(letters[l] for l in w) if w else one)
    return labels, comp[_find(rep, 0)], table2
