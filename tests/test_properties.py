"""Randomized law checks: d^2 = 0, coalgebra axioms, SNF invariants,
rewriting termination and confluence on samples.

Each suite runs over a fixed range of seeds and reports every failing
seed, so a regression names the exact inputs that broke.
"""

import random
from itertools import combinations
from math import gcd

from checks import assert_smith_diagonal
from laws import validate_coalgebra, validate_complex

from barloop.barcobar import bar, cobar
from barloop.dgcoalg import chains
from barloop.exactlin import IntMatrix, smith_normal_form
from barloop.monoids import monoid_algebra, random_monoid
from barloop.rewrite import complete, poly_mul
from barloop.simplicial import nerve

SEEDS = range(200)


def run_d_squared(seeds):
    failures = []
    for seed in seeds:
        m = random_monoid(seed)
        cw = chains(nerve(m), 3)
        try:
            validate_complex(cw.complex)
        except Exception as e:
            failures.append((seed, "chains", str(e)))
        try:
            validate_complex(bar(monoid_algebra(m), 3).complex)
        except Exception as e:
            failures.append((seed, "bar", str(e)))
        om = cobar(cw)
        for g in range(len(om.generators)):
            dd = om.differentiate(om.differentiate({(g,): 1}))
            if dd:
                failures.append((seed, "cobar", om.gen_label(g)))
    return failures


def run_coalgebra_laws(seeds):
    failures = []
    for seed in seeds:
        m = random_monoid(seed)
        for kind, window in [
            ("chains", chains(nerve(m), 3)),
            ("bar", bar(monoid_algebra(m), 3)),
        ]:
            report = validate_coalgebra(window)
            if not report.ok:
                failures.append((seed, kind, report.violations[:2]))
    return failures


def determinant(m):
    """Exact determinant of a square IntMatrix via fraction-free (Bareiss)
    elimination."""
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinantal_diagonal(m):
    """Smith diagonal from determinantal divisors, an oracle that shares
    no code with the elimination kernel: D_k is the gcd of all k x k
    minors (Bareiss determinants) and d_k = D_k / D_{k-1}."""
    diag = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                dk = gcd(dk, determinant(m.submatrix(rows, cols)))
        diag.append(dk // prev if dk else 0)
        prev = dk
    return tuple(diag)


def run_snf_properties(seeds):
    failures = []
    for seed in seeds:
        rng = random.Random(seed)
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = IntMatrix.from_rows([
            [rng.randrange(-9, 10) for _ in range(cols)]
            for _ in range(rows)
        ])
        d, _ = smith_normal_form(m)
        try:
            assert_smith_diagonal(m, d)
        except AssertionError as e:
            failures.append((seed, "verify", str(e)))
            continue
        want = determinantal_diagonal(m)
        if d != want:
            failures.append((seed, "determinantal divisors", (d, want)))
        diag = [x for x in d if x]
        if any(diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
            failures.append((seed, "divisibility", diag))
    return failures


def run_rewrite_properties(seeds):
    failures = []
    for seed in seeds:
        m = random_monoid(seed)
        modulus = (None, None, 2, 3)[seed % 4]
        alg = monoid_algebra(m, modulus=modulus)
        rsys = complete(alg, budget=50_000)
        if not rsys.complete:
            failures.append((seed, "termination", rsys.steps_used))
            continue
        rng = random.Random(seed)
        gens = range(len(alg.generators))
        if not alg.generators:
            continue
        nf = rsys.normal_form
        for _ in range(5):
            u = {tuple(rng.choices(gens, k=rng.randrange(4))): 1}
            v = {tuple(rng.choices(gens, k=rng.randrange(4))): 1}
            joined = nf(poly_mul(u, v, modulus))
            stepwise = nf(poly_mul(nf(u), nf(v), modulus))
            if joined != stepwise:
                failures.append((seed, "confluence", (u, v)))
            if nf(joined) != joined:
                failures.append((seed, "idempotence", u))
    return failures


def test_differentials_square_to_zero():
    assert run_d_squared(SEEDS) == []


def test_coalgebra_axioms_hold():
    assert run_coalgebra_laws(SEEDS) == []


def test_smith_form_invariants():
    assert run_snf_properties(SEEDS) == []


def test_rewriting_terminates_and_is_confluent_on_samples():
    assert run_rewrite_properties(SEEDS) == []
