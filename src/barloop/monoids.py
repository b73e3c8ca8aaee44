"""Finite monoids, presentations, monoid algebras, group completion.

A FiniteMonoid checks its table at construction (entries in range,
identity and associativity laws), so every monoid in hand is valid.
Group completion returns only what its callers read: the order, plus
the class of each element for a finite monoid or a presentation for a
presented monoid.  A finite monoid's completion is read off its table:
the quotient by the congruence that identifies every idempotent with
the identity.  A presentation gets a formal inverse per generator and
goes through rewriting completion; the order is the count of
irreducible degree-0 words.  Completion is budgeted, and a budget that
runs out is reported as Exhausted.
"""

import random

from .errors import MalformedTable, NotAHomomorphism
from .rewrite import PresentedDgAlgebra, basis_size, complete

__all__ = [
    "FiniteMonoid",
    "MonoidMap",
    "MonoidPresentation",
    "GroupCompletion",
    "Exhausted",
    "monoid_algebra",
    "inverse_label",
    "group_ring",
    "group_completion",
    "random_monoid",
]


class FiniteMonoid:
    """Multiplication table on labelled elements.

    elements: ordered labels; identity: index; table[i][j] = index of
    element i * element j.  Raises MalformedTable, listing every
    violation, unless the table satisfies the identity and associativity
    laws.
    """

    def __init__(self, elements, identity, table):
        self.elements = [str(e) for e in elements]
        self.identity = int(identity)
        self.table = [list(map(int, row)) for row in table]
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise MalformedTable("duplicate element labels")
        if not 0 <= self.identity < n:
            raise MalformedTable(f"identity index {self.identity} out of range")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise MalformedTable(f"table is not {n}x{n}")
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if not 0 <= v < n:
                    raise MalformedTable(
                        f"product of {self.elements[i]} and {self.elements[j]} "
                        f"has undefined index {v}"
                    )
        bad = []
        e = self.identity
        for i, lbl in enumerate(self.elements):
            if self.table[e][i] != i:
                bad.append(f"identity law fails on the left of {lbl}")
            if self.table[i][e] != i:
                bad.append(f"identity law fails on the right of {lbl}")
        for i in range(n):
            for j in range(n):
                ij = self.table[i][j]
                for k in range(n):
                    if self.table[ij][k] != self.table[i][self.table[j][k]]:
                        bad.append(
                            "associativity fails on "
                            f"({self.elements[i]}, {self.elements[j]}, "
                            f"{self.elements[k]})"
                        )
        if bad:
            raise MalformedTable("; ".join(bad))

    # -- arithmetic -------------------------------------------------------------

    def order(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteMonoid)
            and self.elements == other.elements
            and self.identity == other.identity
            and self.table == other.table
        )

    def __repr__(self):
        return f"FiniteMonoid({self.elements!r})"

    # -- constructors -------------------------------------------------------------

    @classmethod
    def trivial(cls):
        return cls(["1"], 0, [[0]])

    @classmethod
    def cyclic(cls, n):
        """Cyclic group of order n: labels 1, g, g2, ..."""
        labels = ["1"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(labels, 0, table)

    @classmethod
    def idempotent_pair(cls):
        """Two elements 1 and b with b*b = b."""
        return cls(["1", "b"], 0, [[0, 1], [1, 1]])

    @classmethod
    def left_zero_with_unit(cls, k=2):
        """Unit adjoined to a left-zero semigroup: x*y = x off the unit."""
        labels = ["1"] + [f"a{i}" for i in range(k)]
        n = k + 1
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            table[0][i] = i
            table[i][0] = i
        for i in range(1, n):
            for j in range(1, n):
                table[i][j] = i
        return cls(labels, 0, table)

    @classmethod
    def chain_of_idempotents(cls, k):
        """Totally ordered idempotents under max, bottom = identity."""
        labels = ["1"] + [f"c{i}" for i in range(1, k)]
        table = [[max(i, j) for j in range(k)] for i in range(k)]
        return cls(labels, 0, table)

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self):
        return {
            "elements": list(self.elements),
            "identity": self.elements[self.identity],
            "table": [list(row) for row in self.table],
        }


class MonoidMap:
    """Map of monoids given by an image index per source element."""

    def __init__(self, src, dst, images):
        self.src = src
        self.dst = dst
        self.images = list(map(int, images))
        if len(self.images) != src.order():
            raise NotAHomomorphism("image list has wrong length")
        for v in self.images:
            if not 0 <= v < dst.order():
                raise NotAHomomorphism(
                    f"image index {v} is not an element of the target "
                    f"(0..{dst.order() - 1})"
                )

    def validate(self):
        f = self.images
        if f[self.src.identity] != self.dst.identity:
            raise NotAHomomorphism("identity is not preserved")
        n = self.src.order()
        for i in range(n):
            for j in range(n):
                if f[self.src.table[i][j]] != self.dst.table[f[i]][f[j]]:
                    raise NotAHomomorphism(
                        f"f({self.src.elements[i]} * {self.src.elements[j]}) "
                        "does not match the product of images"
                    )
        return self

    def __call__(self, i):
        return self.images[i]

    @classmethod
    def identity(cls, m):
        return cls(m, m, range(m.order()))

    @classmethod
    def collapse(cls, src):
        """The unique map to the trivial monoid."""
        dst = FiniteMonoid.trivial()
        return cls(src, dst, [0] * src.order())


def _degree_zero_algebra(gens, relations, **kwargs):
    """Degree-0 algebra on the given labels with augmentation 1 on every
    generator; relations are pairs of label words."""
    alg = PresentedDgAlgebra(
        [(g, 0) for g in gens],
        augmentation={i: 1 for i in range(len(gens))},
        **kwargs,
    )
    alg.relations = [
        ({alg.word(*u): 1}, {alg.word(*v): 1}) for u, v in relations
    ]
    return alg


def monoid_algebra(m, modulus=None):
    """Integer monoid algebra as a degree-0 presentation: one generator
    per non-identity element, multiplication table as relations, the
    identity element as the empty word.  Augmentation sends every
    generator to 1."""
    pres = MonoidPresentation.from_monoid(m)
    return _degree_zero_algebra(
        pres.generators, pres.relations, modulus=modulus,
        provenance={"monoid": m.to_json_dict()},
    )


class MonoidPresentation:
    """Generators and relations; words are tuples of generator labels."""

    def __init__(self, generators, relations):
        self.generators = [str(g) for g in generators]
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator labels")
        gset = set(self.generators)
        self.relations = []
        for u, v in relations:
            u, v = tuple(map(str, u)), tuple(map(str, v))
            for w in u + v:
                if w not in gset:
                    raise ValueError(f"relation uses undeclared generator {w!r}")
            self.relations.append((u, v))

    @classmethod
    def from_monoid(cls, m):
        nontriv = [i for i in range(m.order()) if i != m.identity]
        gens = [m.elements[i] for i in nontriv]
        rels = []
        for a in nontriv:
            for b in nontriv:
                c = m.table[a][b]
                lhs = (m.elements[a], m.elements[b])
                rhs = () if c == m.identity else (m.elements[c],)
                rels.append((lhs, rhs))
        return cls(gens, rels)

    # words serialize as plain strings when every generator is one character
    def _single_char(self):
        return all(len(g) == 1 for g in self.generators)

    def to_json_dict(self):
        if self._single_char():
            rels = [["".join(u), "".join(v)] for u, v in self.relations]
        else:
            rels = [[list(u), list(v)] for u, v in self.relations]
        return {"gens": list(self.generators), "rels": rels}

    def __repr__(self):
        rels = ", ".join(
            f"{'.'.join(u) or '1'} = {'.'.join(v) or '1'}"
            for u, v in self.relations
        )
        return f"<{', '.join(self.generators)} | {rels}>"


class GroupCompletion:
    """Group completion G(M) as its callers read it: order, the number
    of elements, or None when G(M) is infinite.

    For a finite monoid, classes[a] is the position in 0..order-1
    of the class of element a (classes numbered by first element).  For
    a presented monoid, presentation is a presentation of G(M).  The
    other field is None.
    """

    def __init__(self, order, classes=None, presentation=None):
        self.order = order
        self.classes = classes
        self.presentation = presentation


class Exhausted:
    """Budget ran out before anything could be certified."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"Exhausted({self.reason!r})"


def inverse_label(g, taken, suffix):
    """Label for the formal inverse of generator g: g + suffix, primed
    until it is not in taken, then added to taken."""
    lbl = g + suffix
    while lbl in taken:
        lbl += "'"
    taken.add(lbl)
    return lbl


def group_ring(pres, suffix="_inv"):
    """Integer group ring of a presented group, as a degree-0 algebra
    with a two-sided inverse g' (inverse_label) adjoined to each
    generator g: the relations g.g' = 1, g'.g = 1 follow pres's own,
    generator by generator.  Returns (algebra, inv) where inv maps each
    generator label to its inverse's label."""
    taken = set(pres.generators)
    inv = [inverse_label(g, taken, suffix) for g in pres.generators]
    rels = list(pres.relations)
    for g, g_inv in zip(pres.generators, inv):
        rels.append(((g, g_inv), ()))
        rels.append(((g_inv, g), ()))
    alg = _degree_zero_algebra(pres.generators + inv, rels)
    return alg, dict(zip(pres.generators, inv))


def group_completion(p, budget=100_000):
    """Universal group of a finite monoid or a presented monoid.

    A FiniteMonoid is completed from its table (_table_completion), and
    budget does not apply.  A presentation gets a formal inverse per
    generator (group_ring, labels primed); the resulting string
    rewriting system is completed, generators that rewrite to words are
    Tietze-eliminated, and the order is the count of irreducible
    degree-0 words (basis_size), None when they are infinitely many.
    Returns a GroupCompletion, or Exhausted when the budget ran out
    before completion finished.
    """
    if isinstance(p, FiniteMonoid):
        return _table_completion(p)
    alg, _ = group_ring(p, "'")
    rsys = complete(alg, budget)
    if not rsys.complete:
        return Exhausted("completion budget exhausted")
    relations = []
    for r in rsys.rules:
        lhs_word = tuple(alg.gen_label(g) for g in r.lhs)
        if r.coeff != 1 or len(r.rhs) > 1:
            # cannot happen for string systems, guard anyway
            return Exhausted("completion produced non-monomial rules")
        if r.rhs:
            (w2, c2), = r.rhs.items()
            if c2 != 1:
                return Exhausted("completion produced non-monomial rules")
            rhs_word = tuple(alg.gen_label(g) for g in w2)
        else:
            return Exhausted("completion produced a zero rule")
        relations.append((lhs_word, rhs_word))
    gens = [lbl for lbl, _ in alg.generators]
    gens, relations = _tietze_simplify(gens, relations)
    return GroupCompletion(
        basis_size(rsys, 0),
        presentation=MonoidPresentation(gens, relations),
    )


def _table_completion(m):
    """Group completion of the finite monoid m, read off its table.

    Some power of each element is idempotent, so M modulo the smallest
    congruence that identifies every idempotent with the identity is
    already a group, and it is G(M).  The congruence is closed by
    union-find: merging the classes of a and b queues (c*a, c*b) and
    (a*c, b*c) for every c.
    """
    n = m.order()
    t = m.table
    rep = list(range(n))
    pending = [(e, m.identity) for e in range(n) if t[e][e] == e]
    while pending:
        a, b = pending.pop()
        a, b = _find(rep, a), _find(rep, b)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        rep[b] = a
        for c in range(n):
            pending.append((t[c][a], t[c][b]))
            pending.append((t[a][c], t[b][c]))
    firsts = [a for a in range(n) if _find(rep, a) == a]
    at = {a: i for i, a in enumerate(firsts)}
    return GroupCompletion(
        len(firsts), classes=[at[_find(rep, a)] for a in range(n)]
    )


def _find(rep, x):
    """Root of x in the union-find forest rep, halving the path walked."""
    while rep[x] != x:
        rep[x] = rep[rep[x]]
        x = rep[x]
    return x


def _tietze_simplify(gens, relations):
    """Drop trivial relations and eliminate generators that are defined
    by a relation g = w with g not occurring in w."""
    gens = list(gens)
    relations = [tuple(map(tuple, r)) for r in relations]
    changed = True
    while changed:
        changed = False
        for u, v in relations:
            if len(u) == 1 and u[0] not in v:
                g = u[0]
                sub = tuple(v)

                def repl(word):
                    out = []
                    for x in word:
                        out.extend(sub if x == g else (x,))
                    return tuple(out)

                relations = [
                    (repl(a), repl(b)) for a, b in relations
                    if (a, b) != (u, v)
                ]
                gens.remove(g)
                changed = True
                break
        relations = [r for r in relations if r[0] != r[1]]
        seen = set()
        out = []
        for r in relations:
            if (r[0], r[1]) not in seen and (r[1], r[0]) not in seen:
                seen.add((r[0], r[1]))
                out.append(r)
        relations = out
    return gens, relations


def random_monoid(seed):
    """Deterministic small valid monoid (order at most 4) for property
    tests."""
    rng = random.Random(seed)
    builders = [
        FiniteMonoid.trivial,
        lambda: FiniteMonoid.cyclic(rng.randint(2, 4)),
        lambda: FiniteMonoid.idempotent_pair(),
        lambda: FiniteMonoid.chain_of_idempotents(rng.randint(2, 4)),
        lambda: FiniteMonoid.left_zero_with_unit(rng.randint(2, 3)),
    ]
    return rng.choice(builders)()
