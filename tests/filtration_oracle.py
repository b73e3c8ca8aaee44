"""Admissible filtrations and filtered maps, checked element by element.

``filtered_quasi_iso_window`` checks neither: its one caller,
``unit_check``, passes the skeletal filtration of C and the weight
filtration of bar(cobar(C)), which are admissible and preserved by the
unit by construction.  These are the checks it used to run first, kept
as the oracle the tests run on those filtrations.
"""

from barloop.errors import NotCoaugmented


def filtration_fault(c, levels):
    """The first way ``levels``, a {(degree, index): level} dict, fails to
    be an admissible filtration of the window c, or None.

    Level 0 must be exactly the coaugmentation, the one degree-0
    element; levels must be compatible with the differential
    (non-increasing) and the coproduct (sub-additive across tensor
    factors).  Raises NotCoaugmented when c has no coaugmentation.
    """
    for n in range(c.hi + 1):
        for j in range(c.rank(n)):
            if (n, j) not in levels:
                return f"no level for degree {n} element {j}"
    if c.rank(0) != 1:
        raise NotCoaugmented("admissible filtrations need a coaugmentation")
    for (n, j), l in levels.items():
        if (l == 0) != ((n, j) == (0, 0)):
            return (
                f"level 0 must be exactly the coaugmentation; "
                f"degree {n} element {c.complex.label(n, j)} has level {l}"
            )
    for n in range(1, c.hi + 1):
        d_n = c.complex.boundary(n)
        for j, terms in enumerate(c.deltas(n)):
            l = levels[(n, j)]
            if any(levels[(n - 1, i)] > l for i, _ in d_n.column(j)):
                return (
                    f"differential raises the level on degree {n} "
                    f"element {c.complex.label(n, j)}"
                )
            if any(
                levels[(p, i1)] + levels[(n - p, i2)] > l
                for p, i1, i2 in terms
            ):
                return (
                    f"coproduct is not sub-additive on degree {n} "
                    f"element {c.complex.label(n, j)}"
                )
    return None


def filtered_map_fault(f, src_levels, dst_levels):
    """The first way the CoalgebraMap f fails to be a map of admissible
    filtrations, or None: each side must be admissible
    (``filtration_fault``) and f must not raise levels.  Levels must be
    >= 0 (ValueError)."""
    src, dst = f.src, f.dst
    if any(v < 0 for d in (src_levels, dst_levels) for v in d.values()):
        raise ValueError("filtration levels must be >= 0")
    for levels, c in ((src_levels, src), (dst_levels, dst)):
        fault = filtration_fault(c, levels)
        if fault is not None:
            return fault
    # the map must not raise filtration levels
    for n in range(src.hi + 1):
        b = f.block(n)
        for j in range(src.rank(n)):
            lj = src_levels[(n, j)]
            for i, _ in b.column(j):
                if dst_levels[(n, i)] > lj:
                    return (
                        f"map raises filtration level on degree {n} element "
                        f"{src.complex.label(n, j)}"
                    )
    return None
