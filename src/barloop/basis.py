"""Degreewise monomial bases of completed rewriting systems.

The irreducible monomials of a degree are the paths of an Aho-Corasick
automaton over the rule left-hand sides, crossed with the degree so far;
``basis_size`` counts them without listing (None when there are
infinitely many), and ``basis_in_degree`` lists them when the count is
within its cap.  ``barloop.rewrite`` re-exports both.
"""

from .errors import BarloopError, CapExceeded

__all__ = ["basis_size", "basis_in_degree"]


def _live_transitions(lhss, ngens):
    """Aho-Corasick automaton over the nonempty left-hand sides.

    State 0 is the empty word; a state is dead once the word read so far
    contains some left-hand side.  Returns, per state, the transitions
    (letter, next state) into live states; dead states are never entered,
    so their rows are never read."""
    children = [{}]
    dead = [False]
    for lhs in lhss:
        s = 0
        for g in lhs:
            if g not in children[s]:
                children[s][g] = len(children)
                children.append({})
                dead.append(False)
            s = children[s][g]
        dead[s] = True
    goto = [None] * len(children)
    goto[0] = [children[0].get(g, 0) for g in range(ngens)]
    fail = [0] * len(children)
    queue = list(children[0].values())
    for s in queue:  # breadth first, so fail[s] is done before s
        # a word ending in a left-hand side shows it as a suffix, and the
        # failure link is the longest proper suffix in the trie
        dead[s] = dead[s] or dead[fail[s]]
        row = goto[fail[s]]
        goto[s] = [children[s].get(g, row[g]) for g in range(ngens)]
        for g, c in children[s].items():
            fail[c] = row[g]
            queue.append(c)
    return [
        [(g, t) for g, t in enumerate(row) if not dead[t]] for row in goto
    ]


def _basis_paths(rsys, degree):
    """The irreducible monomials of the given degree as paths: returns
    (successors, count).  Requires a complete system with unit leading
    coefficients (otherwise the irreducible monomials are not a basis).

    The words are the paths from (0, 0) of an automaton over the rule
    left-hand sides, crossed with the degree so far, that end at the
    given degree; successors maps each node that can still end there to
    its (letter, node) steps.  count is None when there are infinitely
    many words, which happens exactly when the paths run through a
    cycle (of degree-0 letters; Ufnarovskij's criterion)."""
    if not rsys.complete:
        raise BarloopError("rewrite system is not complete; no canonical basis")
    if rsys.has_nonunit_leads:
        raise BarloopError(
            "non-unit leading coefficients: irreducible monomials are not "
            "a canonical basis"
        )
    alg = rsys.algebra
    lhss = [r.lhs for r in rsys.rules]
    if not all(lhss):
        return {}, 0
    gdeg = alg.gen_degree
    live = _live_transitions(lhss, len(alg.generators))

    # product graph of (live state, degree so far), degrees <= degree
    start = (0, 0)
    succ = {}
    stack = [start] if degree >= 0 else []
    while stack:
        node = stack.pop()
        if node in succ:
            continue
        s, e = node
        succ[node] = out = [
            (g, (t, e + gdeg(g))) for g, t in live[s] if e + gdeg(g) <= degree
        ]
        stack.extend(v for _, v in out)

    # trim to the nodes that can still end at exactly this degree
    pred = {}
    for u, out in succ.items():
        for _, v in out:
            pred.setdefault(v, []).append(u)
    keep = {u for u in succ if u[1] == degree}
    stack = list(keep)
    while stack:
        for u in pred.get(stack.pop(), ()):
            if u not in keep:
                keep.add(u)
                stack.append(u)
    succ = {u: [(g, v) for g, v in succ[u] if v in keep] for u in keep}

    # topological order (Kahn); a node left over lies on a cycle
    indeg = dict.fromkeys(succ, 0)
    for out in succ.values():
        for _, v in out:
            indeg[v] += 1
    order = [u for u, n in indeg.items() if n == 0]
    for u in order:
        for _, v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) != len(succ):
        return succ, None
    paths = dict.fromkeys(succ, 0)
    if start in paths:
        paths[start] = 1
    for u in order:
        for _, v in succ[u]:
            paths[v] += paths[u]
    return succ, sum(n for u, n in paths.items() if u[1] == degree)


def basis_size(rsys, degree):
    """Number of irreducible monomials of the given degree, counted
    without listing them; None when there are infinitely many.  Same
    requirements as basis_in_degree."""
    return _basis_paths(rsys, degree)[1]


def basis_in_degree(rsys, degree, cap=10_000):
    """All irreducible monomials of the given degree, sorted by the
    monomial order.  Requires a complete system with unit leading
    coefficients (otherwise the irreducible monomials are not a basis).

    Raises CapExceeded when there are more than ``cap`` such words,
    including infinitely many, decided without enumerating: the words
    are counted first, on the walk basis_size counts on, and listed
    from it only when the count is within the cap."""
    succ, count = _basis_paths(rsys, degree)
    if count is None or count > cap:
        raise CapExceeded(
            f"more than {cap} irreducible monomials in degree {degree}"
        )

    found = []
    start = (0, 0)
    if start in succ:
        if degree == 0:
            found.append(())
        word = []
        branches = [iter(succ[start])]
        while branches:
            for g, v in branches[-1]:
                word.append(g)
                if v[1] == degree:
                    found.append(tuple(word))
                branches.append(iter(succ[v]))
                break
            else:
                branches.pop()
                if word:
                    word.pop()
    return sorted(found, key=rsys.algebra.order_key)
