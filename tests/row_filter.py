"""The filtered copy of a boundary that Smith normal form replaced.

homology_window used to build, before eliminating each d_n, a copy of
d_n without the rows that d_{n-1}'s unit pivots paired, and passed that
copy to ``smith_normal_form``.  Now ``smith_normal_form(m, dropped)``
skips those rows as it loads m.  ``without_rows`` keeps the copying
step, built through ``IntMatrix.from_columns`` rather than the trusted
constructor, so test_exactlin.py can check the skipping against it.
"""

from barloop.exactlin import IntMatrix


def without_rows(m, dropped):
    """m with every entry in the rows of ``dropped`` removed; the shape
    stays m's."""
    skip = set(dropped)
    return IntMatrix.from_columns(
        m.rows,
        ([p for p in m.column(j) if p[0] not in skip] for j in range(m.cols)),
    )
