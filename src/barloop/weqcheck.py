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
  * consistent-up-to-window: nothing differed, but some check was out of
    reach (a completion budget ran out, or a comparison is only partial
    at the window edge).

Verdicts are monotone in the window: enlarging it can only move
"consistent" towards one of the decided kinds, never flip a decision.
Being a group is not compared: a monoid can be equivalent to a group
without being one.
"""

from .dgcoalg import chains, cone_quasi_iso_window, nerve_chains_map
from .exactlin import homology_window
from .monoids import Exhausted, FiniteMonoid, group_completion
from .simplicial import (
    collapsed_boundary_delta3,
    minimal_sphere,
    nerve,
    point,
    rp2_model,
)

__all__ = [
    "MonoidInvariantBundle",
    "WeqVerdict",
    "invariants",
    "weq_verdict",
    "bundled_monoids",
    "bundled_complexes",
]


class MonoidInvariantBundle:
    """Invariants of one monoid over a window: homology of the nerve
    chains and the group completion (or Exhausted).  chains is the
    nerve's chain window the homology was computed from."""

    def __init__(self, nerve_homology, completion, chains):
        self.nerve_homology = nerve_homology
        self.completion = completion
        self.chains = chains


def invariants(m, hi=6, budget=100_000, cap=10_000):
    """Invariant bundle of a finite monoid over degrees 0..hi."""
    c = chains(nerve(m), hi)
    return MonoidInvariantBundle(
        homology_window(c.complex),
        group_completion(m, budget=budget, cap=cap),
        c,
    )


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

    @classmethod
    def consistent(cls, hi, detail):
        return cls("consistent-up-to-window", hi,
                   certificate={"detail": detail})

    def to_json_dict(self):
        out = {"verdict": self.kind, "window_hi": self.hi}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out

    def __repr__(self):
        return f"WeqVerdict({self.kind!r}, hi={self.hi})"


def _induced_completion_bijective(f, cs, cd):
    """Whether the map induced on group completion tables is a bijection.

    G(M) is generated by the classes of M's elements, so the image of the
    induced map is the subgroup of the target table that the classes of
    f(a), a in M, generate: their closure under the product.  Returns
    True/False, or None when the target completion carries no rules to
    place those classes (it came from coset enumeration).
    """
    if cd.rules is None:
        return None
    table = cd.monoid.table
    gens = {cd.position(f.dst, b) for b in set(f.images)}
    closure = {cd.monoid.identity}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return len(closure) == cd.order == cs.order


def weq_verdict(f, hi=6, budget=100_000, cap=10_000):
    """Window-bounded verdict on a monoid map (see module docstring)."""
    f.validate()
    src_b = invariants(f.src, hi, budget, cap)
    # An endomorphism's target has the invariants already computed.
    dst_b = src_b if f.dst == f.src else invariants(f.dst, hi, budget, cap)

    hs, hd = src_b.nerve_homology, dst_b.nerve_homology
    for n in sorted(set(hs.degrees()) & set(hd.degrees())):
        es, ed = hs[n], hd[n]
        if es.exact and ed.exact and not es.iso(ed):
            return WeqVerdict.distinguished(hi, {
                "invariant": "nerve_homology",
                "degree": n,
                "source": es.describe(),
                "target": ed.describe(),
            })

    cs, cd = src_b.completion, dst_b.completion
    completions_known = (
        not isinstance(cs, Exhausted)
        and not isinstance(cd, Exhausted)
        and cs.monoid is not None
        and cd.monoid is not None
    )
    if completions_known and not cs.monoid.isomorphic_as_tables(cd.monoid):
        return WeqVerdict.distinguished(hi, {
            "invariant": "group_completion",
            "source_order": cs.order,
            "target_order": cd.order,
        })

    # The cone reads the blocks f_0..f_{hi-1}, and its d∘d = 0 check in
    # homology_window holds exactly when they commute with d.
    fmap = nerve_chains_map(f, src_b.chains, dst_b.chains)
    cone_ok, degree = cone_quasi_iso_window(
        fmap.blocks, fmap.src.complex, fmap.dst.complex
    )
    if not cone_ok:
        return WeqVerdict.distinguished(hi, {
            "invariant": "nerve_chain_map",
            "degree": degree,
            "detail": "mapping cone has homology in an exact degree",
        })

    induced = None
    if completions_known:
        induced = _induced_completion_bijective(f, cs, cd)
        if induced is False:
            return WeqVerdict.distinguished(hi, {
                "invariant": "group_completion_map",
                "detail": "induced map of completions is not bijective",
            })

    if induced:
        return WeqVerdict.certified(hi, {
            "cone": "acyclic on the window",
            "completion_order": cs.order,
            "window_hi": hi,
        })
    reason = (
        "group completion exhausted its budget"
        if not completions_known
        else "completion tables could not be compared through the map"
    )
    return WeqVerdict.consistent(hi, reason)


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
