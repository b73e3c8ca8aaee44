"""The sorting completion and normal form that barloop.rewrite replaced.

``RewriteSystem`` (its reduction methods) and ``complete`` below are
copied verbatim from the version that re-sorted the pending list before
every completion step, tried the rules one by one for each monomial,
re-sorted every monomial after each single reduction and paired every
two rules.  ``_Rule``, ``_orient`` and ``_superpositions`` are copies
too, so the current code is never checked against itself.  The differential
tests in test_rewrite_oracle.py require the current code to give the
same rules, step counts, normal forms and reduction traces.  The old
normal form loops forever on a coefficient that is a nonzero multiple of
the modulus, so the tests feed it polynomials reduced mod m.
"""

from dense_smith import xgcd

from barloop.rewrite import (
    poly_add,
    poly_iadd_term,
    poly_scale,
    poly_sub,
)


class _Rule:
    __slots__ = ("coeff", "lhs", "rhs")

    def __init__(self, coeff, lhs, rhs):
        self.coeff = coeff  # positive leading coefficient
        self.lhs = lhs      # monomial
        self.rhs = rhs      # poly with all monomials < lhs


def _orient(alg, p):
    """Turn a nonzero homogeneous polynomial into a rule."""
    alg._check_homogeneous(p)
    lead = max(p, key=alg.order_key)
    c = p[lead]
    if c < 0:
        p = poly_scale(p, -1, alg.modulus)
        c = -c
    if alg.modulus:
        g, inv, _ = xgcd(c, alg.modulus)
        if g == 1:
            p = poly_scale(p, inv, alg.modulus)
            c = 1
    rhs = {w: -x for w, x in p.items() if w != lead}
    return _Rule(c, lead, rhs)


def _superpositions(l1, l2):
    """Minimal words in which l1 (at position p1) and l2 (at p2) both
    occur: suffix/prefix overlaps and containments."""
    out = []
    n1, n2 = len(l1), len(l2)
    if n1 == 0 or n2 == 0:
        # empty lhs overlaps everything trivially; pair it with the other
        # word itself so coefficient combinations still surface
        out.append((l1 if n1 else l2, 0, 0))
        return out
    for k in range(1, min(n1, n2) + 1):
        if l1[n1 - k :] == l2[:k]:
            out.append((l1 + l2[k:], 0, n1 - k))
    for p in range(0, n1 - n2):
        if l1[p : p + n2] == l2:
            out.append((l1, 0, p))
    return out


class RewriteSystem:
    """Oriented rules plus reduction.  ``complete`` means the critical
    pair saturation finished inside its budget; otherwise equality checks
    are sound but may be inconclusive."""

    def __init__(self, algebra, rules, complete, steps_used):
        self.algebra = algebra
        self.rules = rules
        self.complete = complete
        self.steps_used = steps_used

    @property
    def has_nonunit_leads(self):
        return any(r.coeff != 1 for r in self.rules)

    def _find_reduction(self, word, coeff):
        for ri, rule in enumerate(self.rules):
            l = rule.lhs
            n = len(l)
            if n > len(word):
                continue
            q = self._quotient(coeff, rule.coeff)
            if q is None or q == 0:
                continue
            if n == 0:
                return ri, 0, q
            pos = self._find_sub(word, l)
            if pos >= 0:
                return ri, pos, q
        return None

    def _quotient(self, coeff, lead):
        m = self.algebra.modulus
        if lead == 1:
            return coeff
        if m:
            g, inv, _ = xgcd(lead, m)
            if g != 1:
                return None  # lead not invertible: leave the term alone
            return (coeff * inv) % m
        return coeff // lead

    @staticmethod
    def _find_sub(word, sub):
        n = len(sub)
        first = sub[0]
        for i in range(len(word) - n + 1):
            if word[i] == first and word[i : i + n] == sub:
                return i
        return -1

    def normal_form(self, p, trace=None):
        """Reduce a polynomial to its normal form (deterministically:
        largest reducible monomial first, first matching rule, leftmost
        occurrence)."""
        p = dict(p)
        alg = self.algebra
        while True:
            target = None
            for w in sorted(p, key=alg.order_key, reverse=True):
                hit = self._find_reduction(w, p[w])
                if hit:
                    target = (w, hit)
                    break
            if target is None:
                return p
            w, (ri, pos, q) = target
            rule = self.rules[ri]
            if trace is not None:
                trace.append((ri, pos, w))
            poly_iadd_term(p, w, -q * rule.coeff, alg.modulus)
            pre, post = w[:pos], w[pos + len(rule.lhs) :]
            for w2, c2 in rule.rhs.items():
                poly_iadd_term(p, pre + w2 + post, q * c2, alg.modulus)


def complete(algebra, budget=100_000):
    """Knuth-Bendix / Buchberger style completion within a step budget."""
    alg = algebra
    pending = []
    for l, r in alg.relations:
        p = poly_sub(l, r, alg.modulus)
        if p:
            pending.append(p)
    rules = []
    steps = 0

    def nf(p):
        return RewriteSystem(alg, rules, False, 0).normal_form(p)

    while pending and steps < budget:
        pending.sort(key=lambda p: alg.order_key(max(p, key=alg.order_key)))
        p = nf(pending.pop(0))
        steps += 1
        if not p:
            continue
        new = _orient(alg, p)
        # retire any existing rule whose lhs the new rule can touch
        sys_one = RewriteSystem(alg, [new], False, 0)
        keep = []
        for r in rules:
            if sys_one._find_reduction(r.lhs, r.coeff):
                pending.append(poly_add({r.lhs: r.coeff},
                                        poly_scale(r.rhs, -1, alg.modulus),
                                        alg.modulus))
            else:
                keep.append(r)
        rules = keep
        rules.append(new)
        rules.sort(key=lambda r: alg.order_key(r.lhs))
        # critical pairs of the new rule against everything (incl. itself)
        for other in list(rules):
            for a, b in ((new, other), (other, new)):
                for word, pa, pb in _superpositions(a.lhs, b.lhs):
                    if a is b and pa == pb:
                        continue
                    ca, cb = a.coeff, b.coeff
                    g, _, _ = xgcd(ca, cb)
                    lcm = ca // g * cb
                    ta = {}
                    pre, post = word[:pa], word[pa + len(a.lhs) :]
                    for w2, c2 in a.rhs.items():
                        poly_iadd_term(ta, pre + w2 + post,
                                       (lcm // ca) * c2, alg.modulus)
                    tb = {}
                    pre, post = word[:pb], word[pb + len(b.lhs) :]
                    for w2, c2 in b.rhs.items():
                        poly_iadd_term(tb, pre + w2 + post,
                                       (lcm // cb) * c2, alg.modulus)
                    s = poly_sub(ta, tb, alg.modulus)
                    if s:
                        s = nf(s)
                        steps += 1
                        if s:
                            pending.append(s)
            if steps >= budget:
                break

    finished = not pending and steps < budget
    if finished:
        # normalize right-hand sides against the final system
        stable = False
        while not stable and steps < budget:
            stable = True
            final = RewriteSystem(alg, rules, False, 0)
            for r in rules:
                red = final.normal_form(dict(r.rhs))
                steps += 1
                if red != r.rhs:
                    r.rhs = red
                    stable = False
        finished = steps < budget
    return RewriteSystem(alg, rules, finished, steps)
