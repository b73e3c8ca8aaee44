"""Noncommutative rewriting over the integers (optionally mod m).

Presented graded rings with integer coefficients: generators carry
nonnegative degrees, relations are degree-homogeneous polynomial pairs.
Completion orients relations into rewrite rules under a
degree-then-length-then-lex order and saturates critical pairs within a
step budget.  Rules with non-unit leading coefficients are legal but
flagged: such a system still certifies equalities (reduce to zero) but
does not promise a canonical monomial basis.

Monomials are tuples of generator indices; polynomials are dicts mapping
monomials to nonzero coefficients.  Later generators rank higher in the
order, so inverse generators adjoined by localization outrank the
elements they invert and unit relations orient the useful way.
"""

import bisect
import heapq
import itertools
import math

from .basis import basis_in_degree, basis_size
from .errors import BarloopError, NotACycle, Unorientable
from .exactlin import basis_window

__all__ = [
    "PresentedDgAlgebra",
    "RewriteSystem",
    "complete",
    "basis_in_degree",
    "basis_size",
    "h0_ring",
    "adjoin_inverses",
    "ring_iso_certify",
    "IsoCertificate",
    "algebra_window",
    "complex_window",
    "require_complete",
]


# ---------------------------------------------------------------------------
# polynomial helpers (plain dicts: monomial tuple -> nonzero int)


def poly_iadd_term(p, word, coeff, modulus=None):
    if modulus:
        coeff %= modulus
    if not coeff:
        return
    c = p.get(word, 0) + coeff
    if modulus:
        c %= modulus
    if c:
        p[word] = c
    else:
        p.pop(word, None)


def poly_add(p, q, modulus=None):
    out = dict(p)
    for w, c in q.items():
        poly_iadd_term(out, w, c, modulus)
    return out


def poly_scale(p, c, modulus=None):
    out = {}
    for w, x in p.items():
        poly_iadd_term(out, w, x * c, modulus)
    return out


def poly_sub(p, q, modulus=None):
    return poly_add(p, poly_scale(q, -1, modulus), modulus)


def poly_mul(p, q, modulus=None):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            poly_iadd_term(out, w1 + w2, c1 * c2, modulus)
    return out


class PresentedDgAlgebra:
    """Graded ring presentation with differential and augmentation.

    generators: list of (label, degree) with degree >= 0.
    relations: list of (lhs poly, rhs poly) pairs, degree-homogeneous.
    differential: dict generator index -> poly (degree one lower).
    augmentation: dict generator index -> int, or None when unavailable.
    modulus: None for integer coefficients, else a modulus >= 2.
    """

    def __init__(self, generators, relations=None, differential=None,
                 augmentation=None, modulus=None, provenance=None):
        self.generators = [(str(lbl), int(deg)) for lbl, deg in generators]
        if len({lbl for lbl, _ in self.generators}) != len(self.generators):
            raise ValueError("duplicate generator labels")
        for lbl, deg in self.generators:
            if deg < 0:
                raise ValueError(f"generator {lbl} has negative degree")
        self._index = {lbl: i for i, (lbl, _) in enumerate(self.generators)}
        self.gen_degree = [deg for _, deg in self.generators].__getitem__
        self._keys = {}  # word -> its order key, built on first request
        self.relations = [(dict(l), dict(r)) for l, r in (relations or [])]
        self.differential = {int(g): dict(p) for g, p in (differential or {}).items()}
        self.augmentation = (
            None if augmentation is None
            else {int(g): int(v) for g, v in augmentation.items()}
        )
        self.modulus = modulus
        self.provenance = dict(provenance or {})
        for l, r in self.relations:
            self._check_homogeneous(poly_sub(l, r, self.modulus))
        for g, p in self.differential.items():
            for w in p:
                if not all(0 <= h < len(self.generators) for h in (g, *w)):
                    raise ValueError(f"d of generator {g} uses an unknown one")
                if (e := self.word_degree(w)) != self.gen_degree(g) - 1:
                    raise ValueError(
                        f"d({self.gen_label(g)}) has a term "
                        f"{self.word_str(w)} of degree {e}, not "
                        f"{self.gen_degree(g) - 1}"
                    )

    # -- basic queries ------------------------------------------------------

    def gen_index(self, label):
        return self._index[label]

    def gen_label(self, i):
        return self.generators[i][0]

    def word_degree(self, word):
        return sum(map(self.gen_degree, word))

    def order_key(self, word):
        """(degree, length, word), built once per word and algebra."""
        key = self._keys.get(word)
        if key is None:
            key = self._keys[word] = (
                sum(map(self.gen_degree, word)), len(word), word
            )
        return key

    def _check_homogeneous(self, p):
        degs = {self.word_degree(w) for w in p}
        if len(degs) > 1:
            raise Unorientable(
                f"relation mixes degrees {sorted(degs)}: {self.poly_str(p)}"
            )

    # -- construction helpers ------------------------------------------------

    def word(self, *labels):
        return tuple(self._index[lbl] for lbl in labels)

    def word_str(self, w):
        return "*".join(self.gen_label(g) for g in w) if w else "1"

    def poly_str(self, p):
        if not p:
            return "0"
        bits = []
        for w in sorted(p, key=self.order_key, reverse=True):
            c = p[w]
            mono = self.word_str(w)
            if c == 1 and w:
                bits.append(mono)
            elif c == -1 and w:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}" if w else str(c))
        return " + ".join(bits).replace("+ -", "- ")

    # -- differential --------------------------------------------------------

    def differentiate(self, p):
        """Extend the generator differential as a graded derivation."""
        out = {}
        for word, coeff in p.items():
            sign_deg = 0
            for i, g in enumerate(word):
                dg = self.differential.get(g)
                if dg:
                    sign = -1 if sign_deg % 2 else 1
                    for w2, c2 in dg.items():
                        poly_iadd_term(
                            out,
                            word[:i] + w2 + word[i + 1 :],
                            sign * coeff * c2,
                            self.modulus,
                        )
                sign_deg += self.gen_degree(g)
        return out

    def augment(self, p):
        """Apply the augmentation to a degree-0 polynomial."""
        if self.augmentation is None:
            raise BarloopError("algebra has no augmentation")
        total = 0
        for word, coeff in p.items():
            v = coeff
            for g in word:
                v *= self.augmentation.get(g, 0)
            total += v
        if self.modulus:
            total %= self.modulus
        return total

    # -- serialization --------------------------------------------------------

    def _poly_json(self, p):
        return [
            {"coeff": str(c), "word": [self.gen_label(g) for g in w]}
            for w, c in sorted(p.items(), key=lambda kv: self.order_key(kv[0]))
        ]

    def to_json_dict(self):
        d = {
            "generators": [
                {"label": lbl, "degree": deg} for lbl, deg in self.generators
            ],
            "relations": [
                [self._poly_json(l), self._poly_json(r)] for l, r in self.relations
            ],
            "differential": {
                self.gen_label(g): self._poly_json(p)
                for g, p in self.differential.items()
            },
        }
        if self.augmentation is not None:
            d["augmentation"] = {
                self.gen_label(g): v for g, v in self.augmentation.items()
            }
        if self.modulus:
            d["modulus"] = self.modulus
        if self.provenance:
            d["provenance"] = self.provenance
        return d


# ---------------------------------------------------------------------------
# rewriting


class _Rule:
    __slots__ = ("coeff", "lhs", "rhs", "key")

    def __init__(self, coeff, lhs, rhs, key):
        self.coeff = coeff  # positive leading coefficient
        self.lhs = lhs      # monomial
        self.rhs = rhs      # poly with all monomials < lhs
        self.key = key      # order key of lhs


class RewriteSystem:
    """Oriented rules plus reduction, in one rule table that completion
    updates in place as rules are added and retired.  ``complete`` means
    the critical pair saturation finished inside its budget; otherwise
    equality checks are sound but may be inconclusive.

    Beside the rule table the system keeps, for its own lifetime:
    - a record per word, made by the word's first reduction scan: the
      left-hand sides with a live rule that occur in it, each with its
      leftmost start and its (live) rule list, in order-key order.
      Retiring a rule needs no invalidation, since its left-hand side's
      rule list just empties.  Inserting a rule whose left-hand side
      length has no live rule drops every record (their scans skipped
      that length); inserting one whose left-hand side has no live rule
      drops the records of the words whose scan looked that window up
      and found no rule.
    Order keys come from the algebra, which builds each word's key once
    and keeps it, so queueing a monomial again reads a stored key."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.rules = []  # by order key of the lhs, ties in insertion order
        self.complete = False
        self.steps_used = 0
        self._by_lhs = {}  # lhs -> its rules in rule order ([] once retired)
        self._lhs_lengths = {}  # length -> number of rules with lhs that long
        self._found = {}  # word -> [(rules of an lhs in it, leftmost start)]
        self._missed = {}  # window -> words whose scan found no rule there

    def _insert(self, rule):
        lhs, n = rule.lhs, len(rule.lhs)
        same = self._by_lhs.setdefault(lhs, [])
        if n not in self._lhs_lengths:
            self._found.clear()
            self._missed.clear()
        elif not same:
            for word in self._missed.pop(lhs, ()):
                self._found.pop(word, None)
        same.append(rule)
        bisect.insort(self.rules, rule, key=lambda r: r.key)
        self._lhs_lengths[n] = self._lhs_lengths.get(n, 0) + 1

    def _retire(self, rule):
        self.rules.remove(rule)
        self._by_lhs[rule.lhs].remove(rule)
        n = len(rule.lhs)
        self._lhs_lengths[n] -= 1
        if not self._lhs_lengths[n]:
            del self._lhs_lengths[n]

    @property
    def has_nonunit_leads(self):
        return any(r.coeff != 1 for r in self.rules)

    def _find_reduction(self, word, coeff):
        """(rule, start, quotient) of the first rule, in rule order, whose
        left-hand side occurs in word and divides coeff with a nonzero
        quotient, at its leftmost occurrence; None when no rule applies.

        The first call on a word scans its windows of every live
        left-hand side length and records what it finds (see the class
        docstring); later calls read the record."""
        found = self._found.get(word)
        if found is None:
            found = self._scan(word)
        for same, start in found:
            for rule in same:
                lead = rule.coeff
                q = coeff if lead == 1 else self._quotient(coeff, lead)
                if q:
                    return rule, start, q
        return None

    def _scan(self, word):
        """Record the left-hand sides with a live rule in word, and file
        word under each window where it found none."""
        by_lhs, missed = self._by_lhs, self._missed
        n = len(word)
        leftmost = {}  # each occurring lhs -> (its key, its rules, first start)
        for k in self._lhs_lengths:
            for i in range(n - k + 1):  # none when k > n
                window = word[i : i + k]
                same = by_lhs.get(window)
                if same:
                    if window not in leftmost:
                        leftmost[window] = (same[0].key, same, i)
                else:
                    missed.setdefault(window, []).append(word)
        found = self._found[word] = [
            (same, i) for _, same, i in sorted(leftmost.values(),
                                               key=lambda t: t[0])
        ]
        return found

    def _quotient(self, coeff, lead):
        m = self.algebra.modulus
        if lead == 1:
            return coeff
        if m:
            if math.gcd(lead, m) != 1:
                return None  # lead not invertible: leave the term alone
            return coeff * pow(lead, -1, m) % m
        return coeff // lead

    def normal_form(self, p, trace=None):
        """Reduce a polynomial to its normal form (deterministically:
        largest reducible monomial first, first matching rule, leftmost
        occurrence).  Terms whose coefficient is zero (mod the modulus)
        are dropped first.

        One descending sweep: a reduction at w changes the coefficient of
        w and adds only monomials below w, so the monomials are visited
        largest first (popped off the end of an ascending list of order
        keys, each computed once as its monomial is queued), each is
        reduced until it is irreducible or gone, and none is visited twice."""
        alg = self.algebra
        m = alg.modulus
        p = {w: c for w, c in p.items() if (c % m if m else c)}
        todo = sorted(map(alg.order_key, p))
        queued = set(p)
        while todo:
            w = todo.pop()[2]
            while w in p:
                hit = self._find_reduction(w, p[w])
                if hit is None:
                    break
                rule, pos, q = hit
                if trace is not None:
                    trace.append((self.rules.index(rule), pos, w))
                pre, post = w[:pos], w[pos + len(rule.lhs) :]
                if m:
                    poly_iadd_term(p, w, -q * rule.coeff, m)
                elif c := p[w] - q * rule.coeff:
                    p[w] = c
                else:
                    del p[w]
                for w2, c2 in rule.rhs.items():
                    w3 = pre + w2 + post
                    if m:
                        poly_iadd_term(p, w3, q * c2, m)
                    elif c := p.get(w3, 0) + q * c2:
                        p[w3] = c
                    else:
                        p.pop(w3, None)
                    if w3 not in queued:
                        queued.add(w3)
                        bisect.insort(todo, alg.order_key(w3))
        return p

    def describe(self):
        alg = self.algebra
        lines = []
        for r in self.rules:
            lines.append(
                f"{alg.poly_str({r.lhs: r.coeff})} -> {alg.poly_str(r.rhs)}"
            )
        return lines


def _orient(alg, p):
    """Turn a nonzero homogeneous polynomial into a rule."""
    alg._check_homogeneous(p)
    key = max(map(alg.order_key, p))
    lead = key[2]
    c = p[lead]
    if c < 0:
        p = poly_scale(p, -1, alg.modulus)
        c = -c
    if alg.modulus and math.gcd(c, alg.modulus) == 1:
        p = poly_scale(p, pow(c, -1, alg.modulus), alg.modulus)
        c = 1
    rhs = {w: -x for w, x in p.items() if w != lead}
    return _Rule(c, lead, rhs, key)


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
    if l2[0] not in l1:
        return out  # l2 would start at a letter of l1
    for k in range(1, min(n1, n2) + 1):
        if l1[n1 - k :] == l2[:k]:
            out.append((l1 + l2[k:], 0, n1 - k))
    for p in range(0, n1 - n2):
        if l1[p : p + n2] == l2:
            out.append((l1, 0, p))
    return out


def complete(algebra, budget=100_000):
    """Knuth-Bendix / Buchberger style completion within a step budget.

    Pending polynomials are taken smallest leading monomial first, ties
    in the order they were queued, each lead's order key computed once.
    One system is built and its rule table updated as rules are added
    and retired.  A new rule is paired only with, and can retire only,
    rules whose left-hand side shares a letter with its own (or when
    either is empty).  The budget counts steps: one per polynomial taken
    from the queue, one per nonzero S-polynomial, and one per rule in
    each round of the final normalization of right-hand sides.
    Superpositions whose S-polynomial is zero cost no step, so the work
    can grow much faster than the budget.  For example, over Z/4 with
    x0, x1 of degree 0 and the relations x0*x0 = -x1*x0 and
    3*x0*x1*x0 = -3*x0^3 - 2, every budget runs out, with as many rules
    as half the budget and left-hand sides as long as a quarter of it,
    and budgets 100, 200, 400 and 800 took 0.05, 0.5, 5 and 63 s on one
    core of a shared x86-64 Xeon: about tenfold per doubling."""
    alg = algebra
    pending = []  # heap of (order key of the lead, queue position, poly)
    queued = itertools.count()

    def push(p):
        heapq.heappush(pending, (max(map(alg.order_key, p)), next(queued), p))

    for l, r in alg.relations:
        p = poly_sub(l, r, alg.modulus)
        if p:
            push(p)
    rsys = RewriteSystem(alg)
    steps = 0

    while pending and steps < budget:
        p = rsys.normal_form(heapq.heappop(pending)[2])
        steps += 1
        if not p:
            continue
        new = _orient(alg, p)
        # retire any existing rule that the new rule reduces
        letters, k = set(new.lhs), len(new.lhs)
        for r in list(rsys.rules):
            if (not (k and letters.isdisjoint(r.lhs))
                    and new.lhs in {r.lhs[i : i + k]
                                    for i in range(len(r.lhs) - k + 1)}
                    and rsys._quotient(r.coeff, new.coeff)):
                rsys._retire(r)
                push(poly_sub({r.lhs: r.coeff}, r.rhs, alg.modulus))
        rsys._insert(new)
        # critical pairs of the new rule against everything (incl. itself)
        for other in rsys.rules:
            apart = new.lhs and other.lhs and letters.isdisjoint(other.lhs)
            for a, b in () if apart else ((new, other), (other, new)):
                for word, pa, pb in _superpositions(a.lhs, b.lhs):
                    if a is b and pa == pb:
                        continue
                    ca, cb = a.coeff, b.coeff
                    lcm = math.lcm(ca, cb)
                    s = {}  # lcm/ca times a's rhs minus lcm/cb times b's
                    for rule, at, f in ((a, pa, lcm // ca),
                                        (b, pb, -(lcm // cb))):
                        pre, post = word[:at], word[at + len(rule.lhs) :]
                        for w2, c2 in rule.rhs.items():
                            poly_iadd_term(s, pre + w2 + post, f * c2,
                                           alg.modulus)
                    if s:
                        s = rsys.normal_form(s)
                        steps += 1
                        if s:
                            push(s)
            if steps >= budget:
                break

    finished = not pending and steps < budget
    if finished:
        # normalize right-hand sides against the final system
        stable = False
        while not stable and steps < budget:
            stable = True
            for r in rsys.rules:
                red = rsys.normal_form(dict(r.rhs))
                steps += 1
                if red != r.rhs:
                    r.rhs = red
                    stable = False
        finished = steps < budget
    rsys.complete, rsys.steps_used = finished, steps
    return rsys


def h0_ring(algebra):
    """Degree-0 ring of a presented dg algebra: degree-0 generators and
    relations, plus one relation d(g) = 0 per degree-1 generator."""
    alg = algebra
    keep = [i for i, (_, d) in enumerate(alg.generators) if d == 0]
    remap = {old: new for new, old in enumerate(keep)}

    def project(p):
        out = {}
        for w, c in p.items():
            if all(g in remap for g in w):
                out[tuple(remap[g] for g in w)] = c
            else:
                raise BarloopError("degree-0 polynomial uses positive gens")
        return out

    gens = [alg.generators[i] for i in keep]
    rels = []
    for l, r in alg.relations:
        diff = poly_sub(l, r, alg.modulus)
        if diff and alg.word_degree(max(diff, key=alg.order_key)) == 0:
            rels.append((project(l), project(r)))
    for i, (_, d) in enumerate(alg.generators):
        if d == 1:
            dg = alg.differential.get(i, {})
            rels.append((project(dg), {}))
    aug = None
    if alg.augmentation is not None:
        aug = {remap[g]: v for g, v in alg.augmentation.items() if g in remap}
    return PresentedDgAlgebra(gens, rels, {}, aug, modulus=alg.modulus)


def adjoin_inverses(algebra, elements, labels=None):
    """Adjoin a two-sided inverse v for each listed degree-0 element.

    Each element must be a degree-0 cycle, so v is a cycle too
    (d v = -v (d element) v = 0).  Inverse generators are appended after
    all existing ones, so they rank higher in the monomial order.
    """
    alg = algebra
    elements = list(elements)
    if labels is None:
        labels = [f"inv{i}" for i in range(len(elements))]
    gens = list(alg.generators)
    base = len(gens)
    for lbl in labels:
        gens.append((lbl, 0))
    new_rel = []
    new_aug = None if alg.augmentation is None else dict(alg.augmentation)
    for k, p in enumerate(elements):
        for w in p:
            if alg.word_degree(w) != 0:
                raise BarloopError("can only invert degree-0 elements")
        dp = alg.differentiate(p)
        if dp:
            raise NotACycle(
                f"element {alg.poly_str(p)} has differential {alg.poly_str(dp)}"
            )
        v = base + k
        vp = {(v,) + w: c for w, c in p.items()}
        pv = {w + (v,): c for w, c in p.items()}
        new_rel.append((vp, {(): 1}))
        new_rel.append((pv, {(): 1}))
        if new_aug is not None:
            eps = 0
            for w, c in p.items():
                val = c
                for g in w:
                    val *= alg.augmentation.get(g, 0)
                eps += val
            if eps in (1, -1):
                new_aug[v] = eps
            else:
                new_aug = None
    return PresentedDgAlgebra(
        gens,
        [(dict(l), dict(r)) for l, r in alg.relations] + new_rel,
        alg.differential,
        new_aug,
        modulus=alg.modulus,
        provenance={"localized_at": [alg.poly_str(p) for p in elements]},
    )


class IsoCertificate:
    """Outcome of a two-sided ring isomorphism check."""

    def __init__(self, ok, status, details):
        self.ok = ok
        self.status = status
        self.details = details


def _apply_hom(src, dst, images, p):
    out = {}
    for w, c in p.items():
        acc = {(): c}
        for g in w:
            img = images[src.gen_label(g)]
            acc = poly_mul(acc, img, dst.modulus)
        for w2, c2 in acc.items():
            poly_iadd_term(out, w2, c2, dst.modulus)
    return out


def ring_iso_certify(a, b, f_images, g_images):
    """Certify that f: a -> b and g: b -> a are mutually inverse ring maps.

    f_images / g_images map generator labels to polynomials (dicts over
    monomials) in the other presentation.  Each relation of a must reduce
    to zero after applying f (and symmetrically for b), and both
    composites must fix every generator.  Both presentations are
    completed at complete's default budget.  Returns an IsoCertificate
    that records the kind and normal form of every check; ok is False
    when one fails to reduce to zero.
    """
    ra = complete(a)
    rb = complete(b)
    details = {
        "source_complete": ra.complete,
        "target_complete": rb.complete,
        "source_nonunit_leads": ra.has_nonunit_leads,
        "target_nonunit_leads": rb.has_nonunit_leads,
        "checks": [],
    }
    # relation checks of both directions first, then generator checks
    relation_checks, generator_checks = [], []
    for f, g, side, src, dst, r_src, r_dst, f_img, g_img in (
        ("f", "g", "source", a, b, ra, rb, f_images, g_images),
        ("g", "f", "target", b, a, rb, ra, g_images, f_images),
    ):
        relation_checks += [
            (f"{f}(relation of {side}) = 0",
             poly_sub(_apply_hom(src, dst, f_img, l),
                      _apply_hom(src, dst, f_img, r), dst.modulus), r_dst, dst)
            for l, r in src.relations
        ]
        generator_checks += [
            (f"{g}({f}({lbl})) = {lbl}",
             poly_sub(_apply_hom(dst, src, g_img, f_img[lbl]), {(i,): 1},
                      src.modulus), r_src, src)
            for i, (lbl, _) in enumerate(src.generators)
        ]
    checks = relation_checks + generator_checks

    ok = True
    for kind, poly, rsys, alg in checks:
        red = rsys.normal_form(poly)
        details["checks"].append(
            {"kind": kind, "normal_form": alg.poly_str(red)}
        )
        ok = ok and not red

    if ok and not (ra.complete and rb.complete):
        return IsoCertificate(True, "certified-with-incomplete-systems", details)
    return IsoCertificate(ok, "certified" if ok else "failed", details)


def require_complete(algebra, budget):
    """Complete rewriting system of an algebra that enters a chain window
    (bar, counit_check, complex_window), where it is checked once.

    Windows are over Z, so a modulus is refused (BarloopError), as is a
    spent budget.  With a differential and unit leads, d(l - r) must
    reduce to 0 for every relation and d(d g) for every generator g
    (NotACycle names the first that does not): as d and d∘d are
    derivations, d then descends to the quotient and squares to zero, so
    every window built on it is a chain complex.  Zero polynomials are
    not reduced.  Non-unit leads skip the check: basis_in_degree then
    refuses to build a window."""
    if algebra.modulus:
        raise BarloopError(
            f"chain windows are over Z; the algebra has modulus "
            f"{algebra.modulus}"
        )
    rsys = complete(algebra, budget)
    if not rsys.complete:
        raise BarloopError(
            "completion budget exhausted; no canonical monomial basis"
        )
    alg = algebra
    if alg.differential and not rsys.has_nonunit_leads:
        for l, r in alg.relations:
            dp = alg.differentiate(poly_sub(l, r))
            if dp and (nf := rsys.normal_form(dp)):
                raise NotACycle(
                    f"relation {alg.poly_str(l)} = {alg.poly_str(r)}: "
                    f"d(lhs - rhs) = {alg.poly_str(nf)}, not 0"
                )
        for g, p in alg.differential.items():
            ddg = alg.differentiate(p)
            if ddg and (nf := rsys.normal_form(ddg)):
                nf = alg.poly_str(nf)
                raise NotACycle(f"d(d {alg.gen_label(g)}) = {nf}, not 0")
    return rsys


def algebra_window(rsys, bases):
    """Chain complex window of the algebra of a complete rewriting system
    on the given irreducible monomial bases, one list per degree from 0
    (``basis_in_degree``); the window keeps the basis words and their
    positions."""
    alg = rsys.algebra

    def columns(n, below, bounds):
        for w in bases[n]:
            d = rsys.normal_form(alg.differentiate({w: 1}))
            yield [(below[w2], c) for w2, c in d.items()]

    return basis_window(bases, columns, alg.word_str)


def complex_window(algebra, hi, budget=100_000, cap=10_000):
    """Materialize the underlying chain complex of a presented dg algebra
    on degrees 0..hi, using the completed monomial basis per degree."""
    rsys = require_complete(algebra, budget)
    return algebra_window(
        rsys, [basis_in_degree(rsys, n, cap) for n in range(hi + 1)]
    )
