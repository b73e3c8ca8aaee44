"""The benchmark's workloads: seeded inputs and the operations run on them.

Each workload is a closed loop with one caller: a single thread issues
one operation at a time and waits for it, the way a script would.  An
operation is one call into a public barloop entry point, either
``barloop.cli.run([...])`` on a bundled input or a module function on
inputs generated from the seed, followed by an oracle check (not timed).

The seed only chooses presentations that cannot change an answer: the
relabeling of every monoid (see ``relabel``), the automorphism behind
each ``weq`` map and the ``paper-suite --seed`` value.  Homology, verdict
kinds, completion orders, basis sizes and matrix shapes are the same for
every seed, and so is every work counter except those of paper-suite,
whose seed picks the random monoids it checks.  Bundled CLI inputs are
fixed.

Operations reach barloop through module attributes at call time, so the
tracer's rebinding of those attributes applies to them.
"""

import contextlib
import io
import json
import random
from collections import namedtuple
from math import gcd

import oracles

# call() runs the operation and returns its result; check(result) returns
# None when the oracle accepts it, else a one-line reason.
Op = namedtuple("Op", "name call check")

WORKLOADS = ("nerve-ladder", "localization", "bar-certify")

# Bundled-input CLI runs with fixed golden reports, by golden name.
CLI_CASES = {
    "homology-z4": ["homology", "z4", "--window", "0..5"],
    "extended-cobar-sphere1": ["extended-cobar", "sphere1", "--window", "0..3"],
    "cobar-rp2": ["cobar", "rp2", "--window", "0..4"],
    "pi1-rp2": ["pi1", "rp2"],
    "extended-cobar-delta3": ["extended-cobar", "boundary-delta3-collapsed"],
}
PAPER_SUITE = "paper-suite"

# Rungs of the cost ladders: (ladder, operation names from small to large).
# A rung is named by the last dash-separated part of its operation name.
LADDERS = {
    "nerve-ladder": [
        ("z3", ["homology-z3-hi6", "homology-z3-hi7", "homology-z3-hi8",
                "homology-z3-hi9"]),
        ("z4", ["homology-z4-hi4", "homology-z4-hi5"]),
    ],
    "localization": [
        ("complete", ["complete-z8", "complete-z10", "complete-z12"]),
    ],
    "bar-certify": [],
}


def run_cli(cli, argv):
    """Run the command line front end in-process; (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, json.loads(buf.getvalue())


def relabel(FiniteMonoid, m, sigma, slot):
    """An isomorphic copy of m, presented differently.

    Element x of m becomes element sigma[x] of the copy and keeps its
    label; sigma must be an automorphism of m.  The identity then moves
    to index ``slot``, the other elements keeping their relative order.
    Because sigma preserves the multiplication table and the shift
    preserves the order of the non-identity elements, every computation
    that walks elements in index order does the same work on the copy as
    on m; only labels and the identity's index differ.  (A free
    permutation would reorder generators, which changes the monomial
    order and so the amount of completion and elimination work.)

    Returns (copy, perm) with perm[x] = index of x in the copy.
    """
    n = m.order()
    rest = iter(i for i in range(n) if i != slot)
    shift = {m.identity: slot}
    for i in range(n):
        if i != m.identity:
            shift[i] = next(rest)
    perm = [shift[sigma[x]] for x in range(n)]
    old_at = [0] * n
    for old, new in enumerate(perm):
        old_at[new] = old
    labels = [m.elements[old_at[i]] for i in range(n)]
    table = [
        [perm[m.table[old_at[i]][old_at[j]]] for j in range(n)]
        for i in range(n)
    ]
    return FiniteMonoid(labels, perm[m.identity], table), perm


def _units(m):
    return [k for k in range(1, m) if gcd(k, m) == 1]


class _Inputs:
    """Seeded presentations, drawn in a fixed order from one generator."""

    def __init__(self, bl, seed):
        self.FiniteMonoid = bl.monoids.FiniteMonoid
        self.MonoidMap = bl.monoids.MonoidMap
        self.rng = random.Random(seed)

    def _relabel(self, m, sigma):
        slot = self.rng.randrange(m.order())
        return relabel(self.FiniteMonoid, m, sigma, slot)

    def cyclic(self, m):
        """Z/m relabeled along x -> kx for a seeded unit k."""
        k = self.rng.choice(_units(m))
        return self._relabel(
            self.FiniteMonoid.cyclic(m), [k * x % m for x in range(m)]
        )

    def left_zero(self, k):
        """A unit plus k left zeros; any permutation of the left zeros is
        an automorphism."""
        zeros = list(range(1, k + 1))
        self.rng.shuffle(zeros)
        return self._relabel(
            self.FiniteMonoid.left_zero_with_unit(k), [0] + zeros
        )[0]

    def chain(self, k):
        """A chain of k idempotents; its only automorphism is the
        identity, so only the identity's index moves."""
        return self._relabel(
            self.FiniteMonoid.chain_of_idempotents(k), list(range(k))
        )[0]

    def automorphism(self, m, copy, perm):
        """x -> kx on a relabeled Z/m, k a seeded unit."""
        k = self.rng.choice(_units(m))
        images = [0] * m
        for x in range(m):
            images[perm[x]] = perm[k * x % m]
        return self.MonoidMap(copy, copy, images).validate()


def _cli_op(bl, name):
    golden = oracles.load_golden(name)
    return Op(
        f"cli-{name}",
        lambda: run_cli(bl.cli, CLI_CASES[name]),
        lambda out: oracles.check_report(out[0], out[1], golden),
    )


def _paper_suite_op(bl, seed):
    golden = oracles.load_golden(PAPER_SUITE)

    def check(out):
        code, report = out
        if report["params"]["seed"] != seed:
            return f"seed {report['params']['seed']} echoed, sent {seed}"
        report = dict(report, params=dict(report["params"], seed=None))
        return oracles.check_report(code, report, golden)

    return Op(
        f"cli-{PAPER_SUITE}",
        lambda: run_cli(bl.cli, ["paper-suite", "--seed", str(seed)]),
        check,
    )


def _verdict_is(kind):
    def check(verdict):
        if verdict.kind != kind:
            return f"verdict {verdict.kind}, expected {kind}"
        return None

    return check


# -- nerve-ladder ----------------------------------------------------------------


def nerve_ladder(bl, inputs):
    ops = []

    def homology(m, copy, hi):
        return Op(
            f"homology-z{m}-hi{hi}",
            lambda: bl.exactlin.homology_window(
                bl.dgcoalg.chains(bl.simplicial.nerve(copy), hi).complex
            ),
            lambda table: oracles.check_bz_homology(table, m, hi),
        )

    z = {}
    for m, windows in ((3, (6, 7, 8, 9)), (4, (4, 5)), (5, (3, 4))):
        z[m] = inputs.cyclic(m)
        ops.extend(homology(m, z[m][0], hi) for hi in windows)
    ops.append(_cli_op(bl, "homology-z4"))

    def weq(name, fmap, hi, kind):
        return Op(
            f"weq-{name}-hi{hi}",
            lambda: bl.weqcheck.weq_verdict(fmap, hi=hi),
            _verdict_is(kind),
        )

    aut4 = inputs.automorphism(4, *z[4])
    aut3 = inputs.automorphism(3, *z[3])
    collapse = bl.monoids.MonoidMap.collapse(z[4][0])
    ops.append(weq("automorphism-z4", aut4, 4, "certified-equivalent"))
    ops.append(weq("automorphism-z4", aut4, 5, "certified-equivalent"))
    ops.append(weq("automorphism-z3", aut3, 6, "certified-equivalent"))
    ops.append(weq("collapse-z4", collapse, 5, "distinguished"))
    return ops


# -- localization ----------------------------------------------------------------


def _check_complete_basis(m):
    def check(out):
        rsys, words = out
        if not rsys.complete:
            return "completion did not finish"
        if len(words) != m:
            return f"{len(words)} degree-0 basis words, expected {m}"
        return None

    return check


def _check_group_completion(m):
    def check(comp):
        order = getattr(comp, "order", None)
        if order != m:
            return f"group completion {comp!r} has order {order}, expected {m}"
        return None

    return check


def _inverting_2_minus_g(bl, copy):
    """Z[Z/8] with 2 - h inverted, h the first non-identity element of
    the copy.  The relabeling keeps Z/8's index table, so h is the
    generator at g's index and the work is the same for every seed.  The
    completion must finish with a non-unit leading coefficient, and each
    rule must hold under every character g -> a, inv0 -> 1/(2 - a^e)
    into F_17, with a an 8th root of unity and h = g^e."""
    prime = 17
    # Labels of Z/8 are 1, g, g2, .., g7 and travel with the elements.
    exponent = {lbl: 0 if lbl == "1" else int(lbl[1:] or 1)
                for lbl in copy.elements}

    def call():
        alg = bl.monoids.monoid_algebra(copy)
        element = {(): 2, (0,): -1}
        return bl.rewrite.complete(bl.rewrite.adjoin_inverses(alg, [element]))

    def check(rsys):
        if not rsys.complete:
            return "completion did not finish"
        if not rsys.has_nonunit_leads:
            return "expected a non-unit leading coefficient"
        labels = [lbl for lbl, _ in rsys.algebra.generators]
        h = exponent[labels[0]]
        characters = []
        for a in oracles.roots_of_unity(8, prime):
            if (2 - pow(a, h, prime)) % prime == 0:
                continue
            inv = pow(2 - pow(a, h, prime), -1, prime)
            characters.append([
                inv if lbl == "inv0" else pow(a, exponent[lbl], prime)
                for lbl in labels
            ])
        rules = [(r.coeff, r.lhs, r.rhs) for r in rsys.rules]
        return oracles.check_characters(rules, characters, prime)

    return Op("complete-z8-inverting-2-g", call, check)


def localization(bl, inputs):
    ops = []
    z = {m: inputs.cyclic(m)[0] for m in (8, 10, 12)}

    def complete_basis(copy):
        rsys = bl.rewrite.complete(bl.monoids.monoid_algebra(copy))
        return rsys, bl.rewrite.basis_in_degree(rsys, 0)

    for m, copy in z.items():
        ops.append(Op(
            f"complete-z{m}",
            lambda copy=copy: complete_basis(copy),
            _check_complete_basis(m),
        ))
    for m, copy in z.items():
        ops.append(Op(
            f"group-completion-z{m}",
            lambda copy=copy: bl.monoids.group_completion(copy),
            _check_group_completion(m),
        ))
    ops.append(_inverting_2_minus_g(bl, z[8]))
    for name in ("extended-cobar-sphere1", "cobar-rp2", "pi1-rp2",
                 "extended-cobar-delta3"):
        ops.append(_cli_op(bl, name))
    return ops


# -- bar-certify -----------------------------------------------------------------


def _check_iso(order, hi):
    want = oracles.nerve_ranks(order, hi)

    def check(cert):
        if not cert.ok or cert.status != "certified":
            return f"nerve/bar identification {cert.status}"
        if cert.details["ranks"] != want:
            return f"ranks {cert.details['ranks']} != {want}"
        return None

    return check


def _check_loop_ranks(nondegenerate, hi):
    want = oracles.loop_group_ranks(nondegenerate, hi)

    def check(levels):
        got = [lv.rank() for lv in levels]
        return None if got == want else f"level ranks {got} != {want}"

    return check


def _check_certified(cert):
    if not cert.ok or cert.status != "certified":
        return f"ring comparison {cert.status}"
    return None


def bar_certify(bl, inputs, seed):
    sp = bl.simplicial
    ops = []
    for name, monoid, hi in (
        ("z5", inputs.cyclic(5)[0], 5),
        ("z3", inputs.cyclic(3)[0], 9),
        ("chain5", inputs.chain(5), 5),
        ("left-zero5", inputs.left_zero(5), 5),
    ):
        ops.append(Op(
            f"nerve-bar-iso-{name}-hi{hi}",
            lambda monoid=monoid, hi=hi: bl.barcobar.nerve_bar_iso_check(
                monoid, hi
            ),
            _check_iso(monoid.order(), hi),
        ))

    z4 = inputs.cyclic(4)[0]
    ops.append(Op(
        "bar-z4-hi5",
        lambda: bl.exactlin.homology_window(
            bl.barcobar.bar(bl.monoids.monoid_algebra(z4), 5).complex
        ),
        lambda table: oracles.check_bz_homology(table, 4, 5),
    ))
    sphere2 = sp.minimal_sphere(2)
    ops.append(Op(
        "unit-sphere2-hi16",
        lambda: bl.barcobar.unit_check(bl.dgcoalg.chains(sphere2, 16)),
        _verdict_is("quasi-iso"),
    ))
    exterior = bl.rewrite.PresentedDgAlgebra(
        [("x", 1)], [({(0, 0): 1}, {})], {}, {0: 0}
    )
    ops.append(Op(
        "counit-exterior-hi6",
        lambda: bl.barcobar.counit_check(exterior, 6),
        _verdict_is("quasi-iso"),
    ))
    # Nondegenerate simplices per dimension, from the model definitions.
    for name, space, nondegenerate in (
        ("collapsed-delta3", sp.collapsed_boundary_delta3(), [1, 3, 4]),
        ("rp2", sp.rp2_model(), [1, 1, 1]),
    ):
        ops.append(Op(
            f"kan-loop-group-{name}-hi12",
            lambda space=space: bl.loopgroup.kan_loop_group(space, 12),
            _check_loop_ranks(nondegenerate, 12),
        ))
    rp2 = sp.rp2_model()
    ops.append(Op(
        "h0-compare-rp2",
        lambda: bl.loopgroup.h0_compare(rp2),
        _check_certified,
    ))
    ops.append(_paper_suite_op(bl, seed))
    return ops


def build(bl, workload, seed):
    """The operations of one workload for one seed."""
    inputs = _Inputs(bl, seed)
    if workload == "nerve-ladder":
        return nerve_ladder(bl, inputs)
    if workload == "localization":
        return localization(bl, inputs)
    if workload == "bar-certify":
        return bar_certify(bl, inputs, inputs.rng.randrange(1, 1_000_000))
    raise ValueError(f"unknown workload {workload!r}")
