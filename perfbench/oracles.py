"""Answers the benchmark checks barloop against.

The closed forms here are computed from the mathematics alone and import
nothing from barloop, so they share no code with the paths they check.
Each ``check_*`` function returns None when the answer is right and a
one-line description of the first difference otherwise.
"""

import json
import os
from math import comb

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def bz_homology(m, hi):
    """Nerve homology of the cyclic group Z/m on degrees 0..hi.

    Exact degrees follow H_*(BZ/m) = Z, Z/m, 0, Z/m, 0, ...  The top
    degree is the partial kernel Z^((m-1)^hi - r_hi), where r_n is the
    rank of d_n: r_1 = 0 and r_n = (m-1)^(n-1) - r_(n-1), because every
    positive-degree homology group is torsion.
    Returns {degree: (free_rank, torsion_tuple, exact)}.
    """
    r = 0
    for n in range(2, hi + 1):
        r = (m - 1) ** (n - 1) - r
    out = {}
    for n in range(hi):
        if n == 0:
            out[n] = (1, (), True)
        elif n % 2:
            out[n] = (0, (m,), True)
        else:
            out[n] = (0, (), True)
    out[hi] = ((m - 1) ** hi - r, (), False)
    return out


def check_bz_homology(table, m, hi):
    want = bz_homology(m, hi)
    got_degrees = table.degrees()
    if got_degrees != sorted(want):
        return f"degrees {got_degrees} != {sorted(want)}"
    for n, (free, torsion, exact) in want.items():
        entry = table[n]
        if entry.group() != (free, torsion) or entry.exact != exact:
            return (
                f"H_{n} of BZ/{m} is {entry.describe()}, expected "
                f"free rank {free}, torsion {list(torsion)}, exact={exact}"
            )
    return None


def nerve_ranks(order, hi):
    """Nondegenerate n-simplices of a monoid nerve: (order - 1)^n."""
    return {str(n): (order - 1) ** n for n in range(hi + 1)}


def loop_group_ranks(nondegenerate, hi):
    """Level ranks 0..hi of the Kan loop group of a reduced simplicial
    set with ``nondegenerate[m]`` nondegenerate m-simplices.

    Level n is free on the (n+1)-simplices that are not 0th degeneracies:
    a nondegenerate m-simplex under a decreasing degeneracy word drawn
    from {1, .., n}, of which there are C(n, n+1-m).
    """
    return [
        sum(
            count * comb(n, n + 1 - m)
            for m, count in enumerate(nondegenerate)
            if n + 1 - m >= 0
        )
        for n in range(hi + 1)
    ]


def roots_of_unity(order, prime):
    """The a mod prime with a^order == 1."""
    return [a for a in range(1, prime) if pow(a, order, prime) == 1]


def check_characters(rules, characters, prime):
    """Check that every rule holds under each character into F_prime.

    ``rules`` is a list of (coeff, lhs_word, rhs_poly) with words as
    tuples of generator indices and rhs_poly a {word: coeff} dict, read
    as coeff * lhs = rhs.  Each character is a list giving the value mod
    ``prime`` of every generator.  A completion only ever derives
    consequences of its relations, so every rule must vanish under every
    character that respects those relations.
    """

    def value(word, chi):
        v = 1
        for g in word:
            v = v * chi[g] % prime
        return v

    for k, chi in enumerate(characters):
        for coeff, lhs, rhs in rules:
            total = coeff * value(lhs, chi)
            total -= sum(c * value(w, chi) for w, c in rhs.items())
            if total % prime:
                return f"rule on {lhs} fails under character #{k} mod {prime}"
    return None


def strip_report(report):
    """A CLI report without the fields that may legitimately change
    between runs: timings, and the kernel backend (recorded separately in
    the run metadata)."""
    out = dict(report)
    out.pop("timings", None)
    tool = dict(out.get("tool", {}))
    tool.pop("backend", None)
    out["tool"] = tool
    return out


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name):
    with open(golden_path(name)) as fh:
        return json.load(fh)


def check_report(code, report, golden):
    """Compare a CLI run against its golden report (timings removed)."""
    got = strip_report(report)
    if code != golden["exit_code"]:
        return f"exit code {code} != {golden['exit_code']}"
    if got != golden:
        keys = sorted(
            k for k in set(got) | set(golden) if got.get(k) != golden.get(k)
        )
        return f"report differs from golden in {keys}"
    return None
