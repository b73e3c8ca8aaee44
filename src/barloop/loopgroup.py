"""Simplicial loop groups and fundamental-group bookkeeping.

The loop group of a reduced simplicial set is a simplicial free group:
level n is free on the (n+1)-simplices that are not 0th degeneracies.
Writing [x] for the generator of a simplex x (and [x] = e whenever x is
a 0th degeneracy), the structure maps are

    d_0 [x] = [d_1 x] [d_0 x]^{-1}
    d_i [x] = [d_{i+1} x]        (i >= 1)
    s_i [x] = [s_{i+1} x]

These maps make a simplicial group out of every reduced simplicial set
(Kan, "A combinatorial definition of homotopy groups", 1958; May,
"Simplicial objects in algebraic topology", §26), so kan_loop_group
checks none of the simplicial group identities.

The fundamental group is presented off the 2-skeleton directly: one
generator per nondegenerate 1-simplex and one relation per nondegenerate
2-simplex saying its 1st face is its 2nd followed by its 0th.  The
degree-zero comparison h0_compare certifies the integer group ring of
that presentation against the degree-zero ring of the cobar construction
with the 1-simplex group-likes inverted, via the dictionary sending an
edge x to 1 + <x>.
"""

import itertools

from .barcobar import extended_cobar
from .errors import BarloopError
from .monoids import MonoidPresentation, group_ring
from .rewrite import IsoCertificate, h0_ring, ring_iso_certify
from .simplicial import FormalSimplex, degeneracy_insert

__all__ = [
    "LoopGroupLevel",
    "kan_loop_group",
    "free_reduce",
    "free_inverse",
    "pi1_presentation",
    "group_ring",
    "h0_compare",
]


# -- free group words ---------------------------------------------------------
# A word is a tuple of (generator label, +1/-1) pairs, fully reduced.


def free_reduce(pairs):
    """Cancel adjacent inverse pairs (stack pass handles nesting)."""
    out = []
    for g, e in pairs:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def free_inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


# -- loop group levels --------------------------------------------------------


def _gen_label(fs):
    head = "".join(f"s{j}*" for j in fs.word)
    return head + str(fs.base)


def _free_level_simplices(k, d):
    """Formal d-simplices that are not 0th degeneracies, in EZ form.

    Every degenerate simplex has a unique strictly decreasing degeneracy
    word; 0th degeneracies are exactly the words containing 0, so the
    d-simplices avoiding them are a nondegenerate m-simplex with a
    decreasing word drawn from {1, .., d-1} for each m <= d.
    """
    out = []
    # For d >= 1 no word of length d avoids 0, so m = 0 contributes nothing.
    for m in range(1 if d else 0, d + 1):
        bases = k.n_simplices(m)
        if not bases:
            continue
        words = list(itertools.combinations(range(d - 1, 0, -1), d - m))
        for b in bases:
            for w in words:
                out.append(FormalSimplex(b, w))
    return out


class LoopGroupLevel:
    """One level of the loop group: a free group with recorded structure
    maps.

    faces[g][i] and degeneracies[g][i] are reduced words in the labels of
    the neighbouring levels; the top level's degeneracy words refer to
    generators one level above the window.
    """

    def __init__(self, n, labels, faces, degeneracies):
        self.n = n
        self.labels = list(labels)
        self.faces = faces
        self.degeneracies = degeneracies

    def rank(self):
        return len(self.labels)

    def to_json_dict(self):
        def enc(word):
            return [[g, e] for g, e in word]

        return {
            "level": self.n,
            "generators": list(self.labels),
            "faces": [[enc(w) for w in per_gen] for per_gen in self.faces],
            "degeneracies": [
                [enc(w) for w in per_gen] for per_gen in self.degeneracies
            ],
        }


def kan_loop_group(k, hi):
    """Levels 0..hi of the loop group of a reduced simplicial set.

    Raises ValueError for a negative hi and NotReduced for a set with
    more than one vertex.  The structure maps are read off the formulas
    above and not checked: they satisfy the simplicial group identities
    whenever k satisfies the simplicial identities, which a nerve gets
    from FiniteMonoid's checked laws and an ExplicitSimplicialSet checks
    when it is built.
    """
    if hi < 0:
        raise ValueError(f"loop group levels start at 0; got hi = {hi}")
    k.basepoint()
    # Each generator's one-letter word, shared by every face and
    # degeneracy that lands on it.  Level hi+1 is listed only for the top
    # level's degeneracies.
    letters = [
        {fs: ((_gen_label(fs), 1),) for fs in _free_level_simplices(k, n + 1)}
        for n in range(hi + 2)
    ]

    def bracket(n, fs):
        if fs.word and fs.word[-1] == 0:
            return ()
        return letters[n][fs]

    def face_word(n, fs, i):
        # fs is a formal (n+1)-simplex giving a level-n generator
        if i == 0:
            return free_reduce(
                bracket(n - 1, k.face_formal(fs, 1))
                + free_inverse(bracket(n - 1, k.face_formal(fs, 0)))
            )
        return bracket(n - 1, k.face_formal(fs, i + 1))

    def degeneracy_word(n, fs, i):
        return bracket(
            n + 1, FormalSimplex(fs.base, degeneracy_insert(fs.word, i + 1))
        )

    return [
        LoopGroupLevel(
            n,
            [word[0][0] for word in letters[n].values()],
            [
                [face_word(n, fs, i) for i in range(n + 1)] if n else []
                for fs in letters[n]
            ],
            [
                [degeneracy_word(n, fs, i) for i in range(n + 1)]
                for fs in letters[n]
            ],
        )
        for n in range(hi + 1)
    ]


# -- fundamental group --------------------------------------------------------


def _edge_word(f):
    return () if f.word else (str(f.base),)


def pi1_presentation(k):
    """Group presentation of the fundamental group off the 2-skeleton.

    One generator per nondegenerate 1-simplex; per nondegenerate
    2-simplex the relation that its 1st face is the 2nd followed by the
    0th (degenerate faces read as the identity).
    """
    k.basepoint()
    gens = [str(s) for s in k.n_simplices(1)]
    if len(set(gens)) != len(gens):
        raise BarloopError("stringified 1-simplex ids collide")
    rels = []
    for t in k.n_simplices(2):
        f0, f1, f2 = (k.face(t, i) for i in range(3))
        rels.append((_edge_word(f1), _edge_word(f2) + _edge_word(f0)))
    return MonoidPresentation(gens, rels)


# -- degree-zero ring comparison ----------------------------------------------
# group_ring, re-exported from monoids, labels the inverse of g as g_inv.


def h0_compare(k):
    """Certify H_0 of the inverted cobar construction against the group
    ring of the fundamental group.

    The maps exchange a fundamental-group generator x with the
    group-like 1 + <x> on the cobar side and pair the formal inverses.
    Returns an IsoCertificate; status "inconclusive" when a rewriting
    system did not complete within ring_iso_certify's budget and nothing
    was refuted.
    """
    pres = pi1_presentation(k)
    ga, inv = group_ring(pres)
    om = extended_cobar(k, 2)
    h0 = h0_ring(om)
    h0_labels = {lbl for lbl, _ in h0.generators}

    def cobar_label(x):
        for cand in (x, f"{x}:1"):
            if cand in h0_labels:
                return cand
        raise BarloopError(f"no degree-0 cobar generator for edge {x!r}")

    f_images = {}
    g_images = {}
    for s in k.n_simplices(1):
        x = str(s)
        cx = cobar_label(x)
        f_images[x] = {(): 1, h0.word(cx): 1}
        f_images[inv[x]] = {h0.word(f"{cx}_inv"): 1}
        g_images[cx] = {ga.word(x): 1, (): -1}
        g_images[f"{cx}_inv"] = {ga.word(inv[x]): 1}
    cert = ring_iso_certify(ga, h0, f_images, g_images)
    if cert.ok:
        return cert
    if not (
        cert.details.get("source_complete")
        and cert.details.get("target_complete")
    ):
        return IsoCertificate(False, "inconclusive", cert.details)
    return cert
