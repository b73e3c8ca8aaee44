"""Acceptance gate: the ten headline guarantees of the package.

Each criterion is one test and emits one pass/fail line (collected in
RESULTS and echoed in the terminal summary) with its wall time; where a
criterion carries a time budget the elapsed time is asserted too.

Where the criterion is also a ``paper-suite`` case, and where a unit
test carries it instead:

- A1 nerve chains = bar: case ``lemma31`` (there at degree 3, on the
  bundled and six random monoids; here at degree 4 on 24 monoids).
- A2 circle cobar and its Laurent H0: test_barcobar.py
  ``test_cobar_of_circle_is_free_on_t`` and test_loopgroup.py
  ``test_h0_compare_circle``.
- A3 loop homology of spheres: test_barcobar.py
  ``test_cobar_of_sphere2_has_polynomial_homology`` and
  ``test_cobar_of_sphere3_alternates``.
- A4 localizations of the idempotent pair: case ``ex46``, which A4 runs
  through the command line.
- A5 counit and unit comparisons: case ``prop34`` (one algebra, one
  sphere, degree 3; here three algebras and two spheres).
- A6 bar of the localized algebra against nerve chains: this test only.
- A7 degree-zero loop ring: test_loopgroup.py's ``test_h0_compare_*``.
- A8 abelianized pi1 = H1: test_loopgroup.py
  ``test_abelianized_pi1_matches_first_homology``.
- A9 equivalence verdicts: case ``weq``.
- A10 randomized law suites: test_properties.py.
"""

import time

from checks import abelianization
from test_properties import (
    SEEDS,
    run_coalgebra_laws,
    run_d_squared,
    run_rewrite_properties,
    run_snf_properties,
)

from barloop import cli
from barloop.barcobar import (
    bar,
    cobar,
    counit_check,
    nerve_bar_iso_check,
    unit_check,
)
from barloop.dgcoalg import chains
from barloop.exactlin import homology_window
from barloop.loopgroup import h0_compare, pi1_presentation
from barloop.monoids import FiniteMonoid, MonoidMap, monoid_algebra, random_monoid
from barloop.rewrite import PresentedDgAlgebra, adjoin_inverses, complex_window
from barloop.simplicial import (
    collapsed_boundary_delta3,
    minimal_sphere,
    nerve,
    rp2_model,
)
from barloop.weqcheck import bundled_complexes, bundled_monoids, weq_verdict

RESULTS = []


def criterion(name, limit, body):
    t0 = time.perf_counter()
    err = None
    try:
        body()
    except Exception as e:
        err = e
    elapsed = time.perf_counter() - t0
    in_budget = limit is None or elapsed < limit
    ok = err is None and in_budget
    line = f"{name}: {'pass' if ok else 'FAIL'} ({elapsed:.2f}s"
    line += f", budget {limit:g}s)" if limit else ")"
    RESULTS.append(line)
    print(line)
    if err is not None:
        raise err
    assert in_budget, f"{name} exceeded its {limit}s budget: {elapsed:.2f}s"


def test_A1_nerve_chains_equal_bar_of_monoid_algebra():
    def body():
        ms = [
            FiniteMonoid.trivial(),
            FiniteMonoid.idempotent_pair(),
            FiniteMonoid.cyclic(2),
            FiniteMonoid.cyclic(3),
        ]
        ms += [random_monoid(1000 + i) for i in range(20)]
        for m in ms:
            cert = nerve_bar_iso_check(m, 4)
            assert cert.ok and cert.status == "certified"

    criterion("A1 nerve chains == bar, degree <= 4, 24 monoids", 5.0, body)


def test_A2_circle_cobar_is_free_and_localizes_to_laurent():
    def body():
        om = cobar(chains(minimal_sphere(1), 2))
        assert [tuple(g) for g in om.generators] == [("t", 0)]
        assert om.relations == []
        assert om.differential == {}
        cert = h0_compare(minimal_sphere(1))
        assert cert.ok and cert.status == "certified"

    criterion("A2 circle: free cobar on one generator, H0 Laurent", 1.0, body)


def test_A3_loop_homology_of_spheres():
    def body():
        t2 = homology_window(
            complex_window(cobar(chains(minimal_sphere(2), 7)), 6)
        )
        for n in range(6):
            assert t2[n].exact and t2[n].group() == (1, ())
        t3 = homology_window(
            complex_window(cobar(chains(minimal_sphere(3), 7)), 6)
        )
        for n in range(6):
            want = (1, ()) if n % 2 == 0 else (0, ())
            assert t3[n].exact and t3[n].group() == want

    criterion("A3 loop homology of the 2- and 3-sphere, degrees 0..5", 10.0, body)


def test_A4_idempotent_pair_localizations():
    def body():
        assert cli.run(["paper-suite", "--case", "ex46"]) == 0

    criterion("A4 inverting b and 2-b in the idempotent-pair algebra", 2.0, body)


def test_A5_counit_and_unit_comparisons():
    def body():
        integers = PresentedDgAlgebra([], [], {}, {})
        exterior = PresentedDgAlgebra([("x", 1)], [({(0, 0): 1}, {})], {}, {0: 0})
        free_x = PresentedDgAlgebra([("x", 1)], [], {}, {0: 0})
        for alg in (integers, exterior, free_x):
            assert counit_check(alg, 4).kind == "quasi-iso"
        assert unit_check(chains(minimal_sphere(2), 4)).kind == "quasi-iso"
        assert unit_check(chains(minimal_sphere(3), 5)).kind == "quasi-iso"

    criterion("A5 counit on three algebras, unit on two spheres", 30.0, body)


def test_A6_localized_bar_matches_nerve_chains():
    def body():
        m = FiniteMonoid.idempotent_pair()
        loc = adjoin_inverses(monoid_algebra(m), [{(0,): 1}])
        tb = homology_window(bar(loc, 4).complex)
        tn = homology_window(chains(nerve(m), 4).complex)
        for n in range(5):
            want = (1, ()) if n == 0 else (0, ())
            assert tb[n].group() == want
            assert tn[n].group() == want

    criterion("A6 bar of localized algebra == chains of nerve, {1,b}", 5.0, body)


def test_A7_degree_zero_loop_ring_is_fundamental_group_ring():
    def body():
        for k in (
            minimal_sphere(1),
            minimal_sphere(2),
            collapsed_boundary_delta3(),
            rp2_model(),
        ):
            cert = h0_compare(k)
            assert cert.ok and cert.status == "certified"

    criterion("A7 H0 of extended cobar == group ring of pi1, 4 spaces", 30.0, body)


def test_A8_abelianized_pi1_is_first_homology():
    def body():
        for name, k in sorted(bundled_complexes().items()):
            ab = abelianization(pi1_presentation(k))
            h1 = homology_window(chains(k, 2).complex)[1]
            assert ab == h1.group(), name

    criterion("A8 abelianized pi1 == H1 on all bundled complexes", None, body)


def test_A9_weak_equivalence_verdicts():
    def body():
        triv = FiniteMonoid.trivial()
        collapse = MonoidMap(
            FiniteMonoid.idempotent_pair(), triv, [0, 0]
        ).validate()
        assert weq_verdict(collapse, hi=4).kind == "certified-equivalent"

        z2_collapse = MonoidMap(FiniteMonoid.cyclic(2), triv, [0, 0]).validate()
        v = weq_verdict(z2_collapse, hi=4)
        assert v.kind == "distinguished"
        assert v.witness["invariant"] == "nerve_homology"
        assert v.witness["degree"] == 1

        for name, m in sorted(bundled_monoids().items()):
            vi = weq_verdict(MonoidMap.identity(m), hi=4)
            assert vi.kind == "certified-equivalent", name

    criterion("A9 equivalence verdicts: collapses and identities", None, body)


def test_A10_randomized_law_suites():
    def body():
        assert run_d_squared(SEEDS) == []
        assert run_coalgebra_laws(SEEDS) == []
        assert run_snf_properties(SEEDS) == []
        assert run_rewrite_properties(SEEDS) == []

    criterion("A10 four randomized law suites, 200 seeds each", None, body)
