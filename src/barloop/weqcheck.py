"""Window-bounded verdicts on maps of finite monoids.

A map is judged through invariants of its nerve: homology of the chains
in a degree window, the group completion, and the chain map the monoid
map induces.  The possible verdicts are

  * distinguished: some computed invariant provably differs, with a
    witness attached.  A mismatch burned into an exact window degree, a
    non-acyclic mapping cone in an exact degree, or a non-bijective
    induced map of group completions each refutes equivalence outright.
  * certified-equivalent: the induced chain map is a quasi-isomorphism
    across the window (cone acyclic in every exact degree) and the
    induced map of group completions is an isomorphism.

Group completions are computed exactly from the tables, so no verdict
is partial; only the homology and cone checks depend on the window.
Verdicts are monotone in the window: enlarging it can turn a certified
verdict into a distinguished one, never a distinguished one back.
Being a group is not compared: a monoid can be equivalent to a group
without being one.
"""

from .dgcoalg import chains, cone_quasi_iso_window, nerve_chains_map
from .exactlin import homology_window
from .monoids import FiniteMonoid, group_completion
from .simplicial import (
    collapsed_boundary_delta3,
    minimal_sphere,
    nerve,
    point,
    rp2_model,
)

__all__ = [
    "WeqVerdict",
    "weq_verdict",
    "bundled_monoids",
    "bundled_complexes",
]


class WeqVerdict:
    """Outcome of a window-bounded equivalence check."""

    def __init__(self, kind, hi, witness=None, certificate=None):
        self.kind = kind
        self.hi = hi
        self.witness = witness
        self.certificate = certificate

    @classmethod
    def distinguished(cls, hi, witness):
        return cls("distinguished", hi, witness=witness)

    @classmethod
    def certified(cls, hi, certificate):
        return cls("certified-equivalent", hi, certificate=certificate)

    def to_json_dict(self):
        out = {"verdict": self.kind, "window_hi": self.hi}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out

    def __repr__(self):
        return f"WeqVerdict({self.kind!r}, hi={self.hi})"


def weq_verdict(f, hi=6):
    """Window-bounded verdict on a monoid map (see module docstring)."""
    f.validate()
    src_c = chains(nerve(f.src), hi)
    hs, cs = homology_window(src_c.complex), group_completion(f.src)
    # An endomorphism's target has the invariants already computed.
    if f.dst == f.src:
        dst_c, hd, cd = src_c, hs, cs
    else:
        dst_c = chains(nerve(f.dst), hi)
        hd, cd = homology_window(dst_c.complex), group_completion(f.dst)

    for n in sorted(set(hs.degrees()) & set(hd.degrees())):
        es, ed = hs[n], hd[n]
        if es.exact and ed.exact and not es.iso(ed):
            return WeqVerdict.distinguished(hi, {
                "invariant": "nerve_homology",
                "degree": n,
                "source": es.describe(),
                "target": ed.describe(),
            })

    if cs.order != cd.order:
        return WeqVerdict.distinguished(hi, {
            "invariant": "group_completion",
            "source_order": cs.order,
            "target_order": cd.order,
        })

    # f.validate() above makes N(f) a simplicial map, so the chain map
    # is one by theorem and its cone needs no d∘d = 0 check.
    fmap = nerve_chains_map(f, src_c, dst_c)
    cone_ok, degree = cone_quasi_iso_window(
        fmap.blocks, fmap.src.complex, fmap.dst.complex
    )
    if not cone_ok:
        return WeqVerdict.distinguished(hi, {
            "invariant": "nerve_chain_map",
            "degree": degree,
            "detail": "mapping cone has homology in an exact degree",
        })

    # Every class of G(M) is the class of an element of M, so the image
    # of the induced map is the set of classes of the images f(a); with
    # equal orders it is a bijection exactly when that set is all of G(N).
    if len({cd.classes[b] for b in f.images}) != cd.order:
        return WeqVerdict.distinguished(hi, {
            "invariant": "group_completion_map",
            "detail": "induced map of completions is not bijective",
        })
    return WeqVerdict.certified(hi, {
        "cone": "acyclic on the window",
        "completion_order": cs.order,
        "window_hi": hi,
    })


def bundled_monoids():
    """Named monoids used by the command line tools and the test suite."""
    return {
        "trivial": FiniteMonoid.trivial(),
        "z2": FiniteMonoid.cyclic(2),
        "z3": FiniteMonoid.cyclic(3),
        "z4": FiniteMonoid.cyclic(4),
        "idempotent": FiniteMonoid.idempotent_pair(),
        "left-zero": FiniteMonoid.left_zero_with_unit(2),
    }


def bundled_complexes():
    """Named reduced simplicial sets for the command line tools."""
    out = {
        "point": point(),
        "sphere1": minimal_sphere(1),
        "sphere2": minimal_sphere(2),
        "sphere3": minimal_sphere(3),
        "rp2": rp2_model(),
        "boundary-delta3-collapsed": collapsed_boundary_delta3(),
    }
    for name, m in bundled_monoids().items():
        out[f"nerve-{name}"] = nerve(m)
    return out
