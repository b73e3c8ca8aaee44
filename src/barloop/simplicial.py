"""Simplicial sets stored by nondegenerate simplices.

Degenerate simplices are never stored: every face or degeneracy result
is a FormalSimplex, a nondegenerate base with a strictly decreasing
degeneracy word (the Eilenberg-Zilber normal form).  The face and
degeneracy operators act on formal simplices by pushing indices through
the word with the simplicial identities.

Constructors: nerves of finite monoids, minimal spheres, the boundary
of the 3-simplex and its collapse to a reduced 2-sphere, and a model of
the real projective plane.  Localization happens on the algebra side
(rewrite.adjoin_inverses, barcobar.extended_cobar), not here.
"""

import itertools
from itertools import chain, repeat

from .errors import NotReduced

__all__ = [
    "FormalSimplex",
    "SimplicialSet",
    "ExplicitSimplicialSet",
    "NerveSimplicialSet",
    "nerve",
    "minimal_sphere",
    "point",
    "boundary_delta3",
    "collapsed_boundary_delta3",
    "rp2_model",
    "degeneracy_insert",
    "face_through_degeneracies",
    "strip_units",
]


def degeneracy_insert(word, i):
    """Normal form of s_i composed outside the strictly decreasing word."""
    out = [e + 1 for e in word if e >= i]
    out.append(i)
    out.extend(e for e in word if e < i)
    return tuple(out)


def compose_degeneracies(outer, inner):
    """Normal form of s_outer applied after s_inner."""
    w = tuple(inner)
    for j in reversed(tuple(outer)):
        w = degeneracy_insert(w, j)
    return w


def face_through_degeneracies(word, i):
    """Push the face operator with index i through a degeneracy word.

    Returns (new word, remaining face index) where the index is None when
    the face cancelled against one of the degeneracies.
    """
    out = []
    for pos, j in enumerate(word):
        if i < j:
            out.append(j - 1)
        elif i == j or i == j + 1:
            out.extend(word[pos + 1 :])
            return tuple(out), None
        else:
            out.append(j)
            i -= 1
    return tuple(out), i


def strip_units(tup, unit):
    """Split a tuple into its entries other than unit and the degeneracy
    word that inserts the unit entries back: their positions, largest
    first, which is already strictly decreasing."""
    if unit not in tup:
        return tup, ()
    # A plain loop: generator expressions here raised the nerve-ladder
    # benchmark's peak RSS by about 0.7 MB.
    rest, word = [], []
    for j, x in enumerate(tup):
        if x == unit:
            word.append(j)
        else:
            rest.append(x)
    return tuple(rest), tuple(reversed(word))


class FormalSimplex:
    """Nondegenerate base plus EZ-normal degeneracy word, stored as given:
    the word operators above build normal forms, and simplicial sets
    check the face words that enter from outside."""

    __slots__ = ("base", "word")

    def __init__(self, base, word=()):
        self.base = base
        self.word = tuple(word)

    def __eq__(self, other):
        return (
            isinstance(other, FormalSimplex)
            and self.base == other.base
            and self.word == other.word
        )

    def __hash__(self):
        return hash((self.base, self.word))

    def __repr__(self):
        if not self.word:
            return f"FormalSimplex({self.base!r})"
        ops = " ".join(f"s{j}" for j in self.word)
        return f"FormalSimplex({ops} {self.base!r})"


class SimplicialSet:
    """Base interface: enumeration, dimensions, faces of nondegenerates."""

    def n_simplices(self, n):
        raise NotImplementedError

    def dim(self, sid):
        raise NotImplementedError

    def face(self, sid, i):
        raise NotImplementedError

    def face_rows(self, n, basis, below):
        """Boundary column of each n-simplex of basis, n > 0, in order:
        (below[face], (-1)^i) for each nondegenerate face i, ascending."""
        for sid in basis:
            faces = (self.face(sid, i) for i in range(n + 1))
            yield [
                (below[f.base], -1 if i % 2 else 1)
                for i, f in enumerate(faces) if not f.word
            ]

    def cut_rows(self, n, basis, index):
        """Alexander-Whitney coproduct of each n-simplex of basis, in
        order: (p, index[p][front], index[n-p][back]) for each p = 0..n,
        ascending, whose front p-face (vertices 0..p) and back (n-p)-face
        (vertices p..n) are both nondegenerate.  Each face is peeled off
        its neighbour one face_formal at a time."""
        for sid in basis:
            fronts, backs = [FormalSimplex(sid)], [FormalSimplex(sid)]
            for m in range(n, 0, -1):
                fronts.append(self.face_formal(fronts[-1], m))
                backs.append(self.face_formal(backs[-1], 0))
            yield [
                (p, index[p][front.base], index[n - p][back.base])
                for p, (front, back) in enumerate(zip(fronts[::-1], backs))
                if not (front.word or back.word)
            ]

    # -- derived operators on formal simplices ------------------------------

    def formal_dim(self, fs):
        return self.dim(fs.base) + len(fs.word)

    def face_formal(self, fs, i):
        if not fs.word:
            return self.face(fs.base, i)
        word, rest = face_through_degeneracies(fs.word, i)
        if rest is None:
            return FormalSimplex(fs.base, word)
        inner = self.face(fs.base, rest)
        return FormalSimplex(
            inner.base, compose_degeneracies(word, inner.word)
        )

    def basepoint(self):
        verts = self.n_simplices(0)
        if len(verts) != 1:
            raise NotReduced(f"{len(verts)} zero-simplices")
        return verts[0]

    # -- validation -----------------------------------------------------------

    def _simplex_violations(self, sid, n):
        """Dimension, face-word, face-dimension and face-identity failures
        of one nondegenerate n-simplex.  The face identities are checked
        only when every face has a normal-form word and dimension n-1,
        since a face operator cannot act on any other."""
        if self.dim(sid) != n:
            return [f"simplex {sid!r} listed in wrong dimension"]
        bad = []
        faces = [self.face(sid, i) for i in range(n + 1)] if n else []
        for i, f in enumerate(faces):
            w, fdim = f.word, self.formal_dim(f)
            if any(w[k] <= w[k + 1] for k in range(len(w) - 1)):
                bad.append(
                    f"face {i} of {sid!r} has degeneracy word {w}, "
                    "not strictly decreasing"
                )
            elif w and w[0] >= fdim:
                # s_j acts on a p-simplex only for j <= p
                bad.append(
                    f"face {i} of {sid!r} has degeneracy word {w}, "
                    f"out of range in dimension {fdim}"
                )
            if fdim != n - 1:
                bad.append(
                    f"face {i} of {sid!r} has dimension {fdim}, "
                    f"expected {n - 1}"
                )
        if n < 2 or bad:
            return bad
        for j in range(1, n + 1):
            for i in range(j):
                left = self.face_formal(faces[j], i)
                right = self.face_formal(faces[i], j - 1)
                if left != right:
                    bad.append(
                        f"face identity fails on {sid!r}: "
                        f"d{i} d{j} != d{j - 1} d{i}"
                    )
        return bad

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self, up_to):
        """Nondegenerate simplices up to the given dimension with their
        faces, ids and face bases as strings."""
        simplices = [
            {
                "id": str(sid),
                "dim": n,
                "faces": [
                    {"base": str(f.base), "degens": list(f.word)}
                    for f in (self.face(sid, i) for i in range(n + 1))
                ] if n else [],
            }
            for n in range(up_to + 1)
            for sid in self.n_simplices(n)
        ]
        if len({s["id"] for s in simplices}) != len(simplices):
            raise ValueError("stringified simplex ids collide")
        vertices = sum(s["dim"] == 0 for s in simplices)
        return {"simplices": simplices, "reduced": vertices == 1}


class ExplicitSimplicialSet(SimplicialSet):
    """Finite list of nondegenerate simplices with explicit face maps."""

    def __init__(self, simplices, faces):
        # simplices: iterable of (id, dim); faces: (id, i) -> FormalSimplex
        self._dim = {}
        self._by_dim = {}
        for sid, n in simplices:
            if sid in self._dim:
                raise ValueError(f"duplicate simplex id {sid!r}")
            self._dim[sid] = n
            self._by_dim.setdefault(n, []).append(sid)
        self._faces = dict(faces)
        for sid, n in self._dim.items():
            for i in range(n + 1):
                if n == 0:
                    break
                f = self._faces.get((sid, i))
                if f is None:
                    raise ValueError(f"missing face {i} of {sid!r}")
                if f.base not in self._dim:
                    raise ValueError(
                        f"face of {sid!r} uses unknown base {f.base!r}"
                    )
        # The simplicial identities, lowest dimension first, so that every
        # face a check reads has passed its own.
        for sid, n in sorted(self._dim.items(), key=lambda item: item[1]):
            bad = self._simplex_violations(sid, n)
            if bad:
                raise ValueError(bad[0])

    def n_simplices(self, n):
        return list(self._by_dim.get(n, ()))

    def dim(self, sid):
        return self._dim[sid]

    def face(self, sid, i):
        return self._faces[(sid, i)]


class NerveSimplicialSet(SimplicialSet):
    """Nerve of a finite monoid: nondegenerate n-simplices are n-tuples
    of non-identity element indices, in itertools.product order over the
    k of them, so simplex j of degree n has the base-k digits of j as
    entries, the first most significant.  Inner faces multiply adjacent
    entries, and are degenerate where a product is the identity.  So a
    chain window's rows are arithmetic on j: d_0 is row j % k^(n-1), d_n
    row j // k, an inner face d_i puts the digit of the product of digits
    i-1 and i in their place, and the Alexander-Whitney cut p is
    (j // k^(n-p), j % k^(n-p)), never degenerate."""

    def __init__(self, monoid):
        self.monoid = monoid
        self._nontrivial = [
            i for i in range(monoid.order()) if i != monoid.identity
        ]
        digit = {e: d for d, e in enumerate(self._nontrivial)}
        # digit of the product of digits a and b at a * k + b, None for 1
        self._products = [
            digit.get(monoid.table[a][b]) for a in digit for b in digit
        ]

    def n_simplices(self, n):
        return list(itertools.product(self._nontrivial, repeat=n))

    def dim(self, sid):
        return len(sid)

    def face(self, sid, i):
        n = len(sid)
        if i == 0:
            return FormalSimplex(sid[1:], ())
        if i == n:
            return FormalSimplex(sid[:-1], ())
        # no entry of sid is the identity, so only the product can be
        p = self.monoid.table[sid[i - 1]][sid[i]]
        if p == self.monoid.identity:
            return FormalSimplex(sid[: i - 1] + sid[i + 1 :], (i - 1,))
        return FormalSimplex(sid[: i - 1] + (p,) + sid[i + 1 :], ())

    def face_rows(self, n, basis, below):
        """Each row by arithmetic on the simplex's position j.  The rows
        are below's own ints: one computed afresh above 256 would be one
        more object kept in the matrix."""
        products, rows = self._products, list(below.values())
        k, top, last = len(self._nontrivial), len(rows), (-1) ** n
        # face i of j = ((h k + a) k + b) s + l is row (h k + q) s + l, q
        # the digit of a b: (s, k s, k^2 s, sign) for i = 1..n-1
        inner = [
            (k ** (n - i - 1), k ** (n - i), k ** (n - i + 1), (-1) ** i)
            for i in range(1, n)
        ]
        for j in range(len(basis)):
            col = [(rows[j % top], 1)]
            for s, ks, kks, sign in inner:
                q = products[j % kks // s]
                if q is not None:
                    col.append((rows[j // kks * ks + q * s + j % s], sign))
            col.append((rows[j // k], last))
            yield col

    def cut_rows(self, n, basis, index):
        """Cut p of every simplex as one stream over j, the streams read
        in step: the front rows repeat k^(n-p) times each, the back rows
        cycle k^p times.  The rows are index's own ints, as in face_rows."""
        k = len(self._nontrivial)
        cuts = [
            zip(
                repeat(p),
                chain.from_iterable(
                    map(repeat, index[p].values(), repeat(k ** (n - p)))
                ),
                chain.from_iterable(repeat(index[n - p].values(), k**p)),
            )
            for p in range(n + 1)
        ]
        return map(list, zip(*cuts))


def nerve(m):
    return NerveSimplicialSet(m)


def point():
    return ExplicitSimplicialSet([("*", 0)], {})


def minimal_sphere(n):
    """One vertex, one nondegenerate n-simplex, all faces degenerate."""
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    top = "t" if n == 1 else "e"
    faces = {}
    for i in range(n + 1):
        faces[(top, i)] = FormalSimplex("*", tuple(range(n - 2, -1, -1)))
    return ExplicitSimplicialSet([("*", 0), (top, n)], faces)


def rp2_model():
    """One vertex, one edge e, one 2-simplex with faces (e, s0 *, e).

    The edge's square bounds: the fundamental group is the 2-element
    group and the chain boundary of the 2-simplex is 2e.
    """
    faces = {
        ("e", 0): FormalSimplex("*", ()),
        ("e", 1): FormalSimplex("*", ()),
        ("sigma", 0): FormalSimplex("e", ()),
        ("sigma", 1): FormalSimplex("*", (0,)),
        ("sigma", 2): FormalSimplex("e", ()),
    }
    return ExplicitSimplicialSet([("*", 0), ("e", 1), ("sigma", 2)], faces)


def boundary_delta3():
    """The boundary of the 3-simplex on vertices 0,1,2,3."""
    verts = "0123"
    simplices = [(v, 0) for v in verts]
    faces = {}
    edges = ["".join(p) for p in itertools.combinations(verts, 2)]
    tris = ["".join(p) for p in itertools.combinations(verts, 3)]
    simplices += [(e, 1) for e in edges] + [(t, 2) for t in tris]
    for e in edges:
        faces[(e, 0)] = FormalSimplex(e[1], ())
        faces[(e, 1)] = FormalSimplex(e[0], ())
    for t in tris:
        for i in range(3):
            faces[(t, i)] = FormalSimplex(t[:i] + t[i + 1 :], ())
    return ExplicitSimplicialSet(simplices, faces)


def collapsed_boundary_delta3():
    """Boundary of the 3-simplex with the edges out of vertex 0 collapsed:
    a reduced model of the 2-sphere with 3 edges and 4 triangles.  A face
    whose base was collapsed lands on the basepoint "*"."""
    k = boundary_delta3()
    collapsed = {"0", "1", "2", "3", "01", "02", "03"}
    simplices = [("*", 0)]
    faces = {}
    for n in (1, 2):
        for sid in k.n_simplices(n):
            if sid in collapsed:
                continue
            simplices.append((sid, n))
            for i in range(n + 1):
                f = k.face(sid, i)
                if f.base in collapsed:
                    f = FormalSimplex("*", tuple(range(n - 2, -1, -1)))
                faces[(sid, i)] = f
    return ExplicitSimplicialSet(simplices, faces)
