"""The quotient class that barloop.simplicial replaced.

``QuotientSimplicialSet`` is copied verbatim from the version that
collapsed a face-closed set of simplices of any simplicial set to one
basepoint; the package now builds its one quotient,
``collapsed_boundary_delta3``, as an explicit set.  test_simplicial.py
checks that explicit set against this class, so it is never checked
against itself, and test_face_shortcut.py runs the face shortcut on the
quotients of this class.  ``ExplicitSimplicialSet`` no longer stores
``max_dim``, so the ``getattr`` below reads 0 and the basepoint name is
checked against vertex ids only; no base used with this class has a
simplex named "*" in any dimension.
"""

from barloop.simplicial import FormalSimplex, SimplicialSet


class NotASubcomplex(ValueError):
    """The supplied simplex set is not closed under faces."""


class QuotientSimplicialSet(SimplicialSet):
    """Collapse a face-closed set of simplices to a single basepoint."""

    def __init__(self, base, sub):
        self.base_set = base
        self.sub = frozenset(sub)
        if not self.sub:
            raise ValueError("subcomplex must contain at least one simplex")
        for sid in self.sub:
            try:
                d = base.dim(sid)
            except KeyError:
                raise NotASubcomplex(f"unknown simplex {sid!r}") from None
            if sid not in base.n_simplices(d):
                raise NotASubcomplex(f"unknown simplex {sid!r}")
            for i in range(d + 1):
                if d == 0:
                    break
                f = base.face(sid, i)
                if f.base not in self.sub:
                    raise NotASubcomplex(
                        f"face {i} of {sid!r} leaves the subcomplex"
                    )
        self.star = "*"
        while any(
            self.star in base.n_simplices(n)
            for n in range(getattr(base, "max_dim", 0) + 1)
        ):
            self.star += "*"

    def n_simplices(self, n):
        out = [self.star] if n == 0 else []
        out.extend(
            sid for sid in self.base_set.n_simplices(n) if sid not in self.sub
        )
        return out

    def dim(self, sid):
        if sid == self.star:
            return 0
        return self.base_set.dim(sid)

    def face(self, sid, i):
        f = self.base_set.face(sid, i)
        if f.base in self.sub:
            # everything beneath the subcomplex lands on the basepoint
            m = self.dim(sid) - 1
            return FormalSimplex(self.star, tuple(range(m - 1, -1, -1)))
        return f
