"""Finite monoids, their algebras, and group completion."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barloop.errors import MalformedTable, NotAHomomorphism
from barloop.monoids import (
    Exhausted,
    FiniteMonoid,
    GroupCompletion,
    MonoidMap,
    MonoidPresentation,
    group_completion,
    group_ring,
    monoid_algebra,
    random_monoid,
)
from barloop.loopgroup import pi1_presentation
from barloop.rewrite import complete
from barloop.weqcheck import bundled_complexes, bundled_monoids
from checks import is_group, isomorphic_as_tables, quotient_table
from coset_oracle import _coset_enumeration


def test_builtin_monoids_are_valid():
    # construction checks the identity and associativity laws
    for m in (
        FiniteMonoid.trivial(),
        FiniteMonoid.cyclic(2),
        FiniteMonoid.cyclic(3),
        FiniteMonoid.idempotent_pair(),
        FiniteMonoid.chain_of_idempotents(3),
        FiniteMonoid.left_zero_with_unit(2),
    ):
        assert isinstance(m, FiniteMonoid)


def test_malformed_table_rejected():
    with pytest.raises(MalformedTable):
        FiniteMonoid(["1", "b"], 0, [[0, 1], [1, 2]])
    with pytest.raises(MalformedTable):
        FiniteMonoid(["1", "b"], 0, [[0, 1]])
    with pytest.raises(MalformedTable):
        FiniteMonoid(["1", "b"], 5, [[0, 1], [1, 1]])
    with pytest.raises(
        MalformedTable, match="^identity law fails on the right of b$"
    ):
        FiniteMonoid(["1", "b"], 0, [[0, 1], [0, 1]])


def test_associativity_violations_reported():
    t = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    t[1][1] = 1  # break g*g
    with pytest.raises(MalformedTable) as err:
        FiniteMonoid(["1", "g", "h"], 0, t)
    violations = str(err.value).split("; ")
    assert "associativity fails on (g, g, h)" in violations
    assert all(v.startswith("associativity fails on") for v in violations)


def test_is_group():
    assert is_group(FiniteMonoid.cyclic(2))
    assert is_group(FiniteMonoid.cyclic(3))
    assert not is_group(FiniteMonoid.idempotent_pair())
    assert not is_group(FiniteMonoid.left_zero_with_unit(2))
    assert is_group(FiniteMonoid.trivial())


def test_monoid_algebra_shapes():
    triv = monoid_algebra(FiniteMonoid.trivial())
    assert triv.generators == []
    idem = monoid_algebra(FiniteMonoid.idempotent_pair())
    assert idem.generators == [("b", 0)]
    assert idem.relations == [({(0, 0): 1}, {(0,): 1})]
    z2 = monoid_algebra(FiniteMonoid.cyclic(2))
    assert z2.relations == [({(0, 0): 1}, {(): 1})]
    assert z2.augmentation == {0: 1}


def test_monoid_algebra_augmentation_is_multiplicative():
    m = FiniteMonoid.cyclic(3)
    alg = monoid_algebra(m)
    rsys = complete(alg)
    for l, r in alg.relations:
        assert alg.augment(l) == alg.augment(r) == 1
    assert rsys.complete


def test_group_completion_free_monoid():
    p = MonoidPresentation(["t"], [])
    out = group_completion(p)
    assert isinstance(out, GroupCompletion)
    assert out.order is None
    assert sorted(out.presentation.generators) == ["t", "t'"]
    assert len(out.presentation.relations) == 2
    # normal forms behave like integer powers
    rules = complete(group_ring(p, "'")[0])
    alg = rules.algebra
    t, v = alg.word("t"), alg.word("t'")
    assert rules.normal_form({t + v + t: 1}) == {t: 1}
    assert rules.normal_form({v + v + t: 1}) == {v: 1}


def test_group_completion_idempotent_is_trivial():
    m = FiniteMonoid.idempotent_pair()
    out = group_completion(m)
    assert isinstance(out, GroupCompletion)
    assert out.order == 1
    assert out.classes == [0, 0]
    quotient = quotient_table(m, out.classes)
    assert quotient.order() == 1
    assert MonoidPresentation.from_monoid(quotient).generators == []


def test_group_completion_of_groups_reconstructs_them():
    for n in (2, 3, 4):
        m = FiniteMonoid.cyclic(n)
        out = group_completion(m)
        assert isinstance(out, GroupCompletion)
        assert out.order == n
        quotient = quotient_table(m, out.classes)
        assert is_group(quotient)
        assert isomorphic_as_tables(quotient, m)


def test_group_completion_collapses_idempotent_families():
    for m in (
        FiniteMonoid.chain_of_idempotents(3),
        FiniteMonoid.left_zero_with_unit(2),
    ):
        out = group_completion(m)
        assert out.order == 1


def test_coset_enumeration_cyclic():
    p = MonoidPresentation.from_monoid(FiniteMonoid.cyclic(3))
    inv = {g: g + "'" for g in p.generators}
    got = _coset_enumeration(p, inv, budget=10_000)
    assert got is not None
    labels, identity, table = got
    assert len(labels) == 3
    assert is_group(FiniteMonoid(labels, identity, table))


def test_coset_enumeration_primes_an_identity_label_a_letter_took():
    m = FiniteMonoid(["0", "1", "2"], 0, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    p = MonoidPresentation.from_monoid(m)
    got = _coset_enumeration(p, {"1": "1'", "2": "2'"}, budget=10_000)
    assert got is not None
    labels, identity, table = got
    assert labels[identity] == "1''"
    assert is_group(FiniteMonoid(labels, identity, table))


SYMMETRIC_GROUP = MonoidPresentation(
    ["a", "b"],
    [
        (("a", "a"), ()),
        (("b", "b"), ()),
        (("a", "b", "a"), ("b", "a", "b")),
    ],
)


def test_coset_enumeration_symmetric_group():
    inv = {"a": "a'", "b": "b'"}
    got = _coset_enumeration(SYMMETRIC_GROUP, inv, budget=50_000)
    assert got is not None
    labels, identity, table = got
    assert len(labels) == 6
    assert is_group(FiniteMonoid(labels, identity, table))
    assert any(
        table[i][j] != table[j][i] for i in range(6) for j in range(6)
    )


# every presentation whose completion order the coset oracle checks
ORACLE_PRESENTATIONS = {
    **{
        f"pi1-{name}": pi1_presentation(k)
        for name, k in bundled_complexes().items()
    },
    **{
        f"monoid-{name}": MonoidPresentation.from_monoid(m)
        for name, m in bundled_monoids().items()
    },
    "s3": SYMMETRIC_GROUP,
}


@pytest.mark.parametrize(
    "p", ORACLE_PRESENTATIONS.values(), ids=ORACLE_PRESENTATIONS.keys()
)
def test_coset_enumeration_finds_the_order_rewriting_counts(p):
    comp = group_completion(p)
    assert isinstance(comp, GroupCompletion)
    got = _coset_enumeration(p, group_ring(p, "'")[1], budget=100_000)
    # the enumeration closes on every finite group here, never on Z
    if got is None:
        assert comp.order is None
    else:
        assert is_group(FiniteMonoid(*got))
        assert len(got[0]) == comp.order


def test_group_completion_budget_exhaustion():
    out = group_completion(MonoidPresentation(["t"], []), budget=1)
    assert isinstance(out, Exhausted)
    assert "budget" in out.reason or "exhausted" in out.reason


def test_monoid_json_round_trip():
    m = FiniteMonoid.cyclic(3)
    assert m.to_json_dict() == {
        "elements": ["1", "g", "g2"],
        "identity": "1",
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    }


def test_presentation_json_single_char_words_as_strings():
    p = MonoidPresentation(["a", "b"], [(("a", "b"), ("b", "a"))])
    d = p.to_json_dict()
    assert d == {"gens": ["a", "b"], "rels": [["ab", "ba"]]}


def test_presentation_json_multi_char_words_as_lists():
    p = MonoidPresentation.from_monoid(FiniteMonoid.cyclic(3))
    assert p.to_json_dict() == {
        "gens": ["g", "g2"],
        "rels": [
            [["g", "g"], ["g2"]], [["g", "g2"], []],
            [["g2", "g"], []], [["g2", "g2"], ["g"]],
        ],
    }


def test_presentation_rejects_undeclared_generators():
    with pytest.raises(ValueError):
        MonoidPresentation(["a"], [(("a", "c"), ("a",))])


def test_monoid_map_validation():
    z2 = FiniteMonoid.cyclic(2)
    MonoidMap.collapse(z2).validate()
    with pytest.raises(NotAHomomorphism):
        MonoidMap(z2, z2, [1, 0]).validate()
    MonoidMap(z2, z2, [0, 1]).validate()
    idem = FiniteMonoid.idempotent_pair()
    MonoidMap.collapse(idem).validate()
    z4 = FiniteMonoid.cyclic(4)
    for images in ([0, 9, 0, 1], [0, 1, 0, -1], [0, 2, 0, 1]):
        with pytest.raises(NotAHomomorphism, match="not an element"):
            MonoidMap(z4, z2, images)


def test_group_completion_primes_inverse_labels_past_taken_ones():
    p = MonoidPresentation(["a", "a'"], [])
    out = group_completion(p)
    assert isinstance(out, GroupCompletion)
    assert group_ring(p, "'")[1] == {"a": "a''", "a'": "a'''"}
    assert out.presentation.generators == ["a", "a'", "a''", "a'''"]
    rules = complete(group_ring(p, "'")[0])
    lhss = {r.lhs for r in rules.rules}
    assert rules.algebra.word("a", "a''") in lhss
    assert rules.algebra.word("a'", "a'''") in lhss


def test_group_ring_primes_the_inverse_suffix_past_taken_labels():
    alg, inv = group_ring(MonoidPresentation(["t", "t_inv"], []))
    assert inv == {"t": "t_inv'", "t_inv": "t_inv_inv"}
    assert [lbl for lbl, _ in alg.generators] == [
        "t", "t_inv", "t_inv'", "t_inv_inv",
    ]


def test_random_monoids_valid_and_completable():
    seen_orders = set()
    for seed in range(30):
        m = random_monoid(seed)
        out = group_completion(m)
        assert isinstance(out, GroupCompletion)
        seen_orders.add(m.order())
        if is_group(m):
            assert isomorphic_as_tables(quotient_table(m, out.classes), m)
    assert len(seen_orders) >= 3


def brute_force_isomorphic_as_tables(self, other):
    """Brute-force table isomorphism (orders <= 8 or so)."""
    import itertools

    if self.order() != other.order():
        return False
    n = self.order()
    rest = [i for i in range(n) if i != self.identity]
    others = [i for i in range(n) if i != other.identity]
    for perm in itertools.permutations(others):
        f = {self.identity: other.identity}
        f.update(dict(zip(rest, perm)))
        if all(
            f[self.table[i][j]] == other.table[f[i]][f[j]]
            for i in range(n) for j in range(n)
        ):
            return True
    return False


def relabelled(m, seed):
    """A copy of m with its elements moved to seeded random positions."""
    n = m.order()
    pos = list(range(n))
    random.Random(seed).shuffle(pos)
    labels = [None] * n
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        labels[pos[i]] = f"x{i}"
        for j in range(n):
            table[pos[i]][pos[j]] = pos[m.table[i][j]]
    return FiniteMonoid(labels, pos[m.identity], table)


# random_monoid seeds 0..59, plus orders 5 and 6, where the searches have
# more candidate maps to reject
POOL = [random_monoid(seed) for seed in range(60)] + [
    FiniteMonoid.cyclic(5),
    FiniteMonoid.chain_of_idempotents(5),
    FiniteMonoid.left_zero_with_unit(4),
    FiniteMonoid.cyclic(6),
    FiniteMonoid.chain_of_idempotents(6),
    FiniteMonoid.left_zero_with_unit(5),
]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.integers(0, len(POOL) - 1),
    st.integers(0, len(POOL) - 1),
    st.integers(0, 10**6),
)
def test_table_isomorphism_matches_brute_force(i, j, seed):
    a, b = POOL[i], relabelled(POOL[j], seed)
    assert isomorphic_as_tables(a, b) == brute_force_isomorphic_as_tables(a, b)
    c = relabelled(a, seed + 1)
    assert isomorphic_as_tables(a, c)
    assert brute_force_isomorphic_as_tables(a, c)


def test_table_isomorphism_matches_brute_force_on_random_monoid_pairs():
    for a, b in itertools.product(POOL[:60], repeat=2):
        assert isomorphic_as_tables(a, b) == brute_force_isomorphic_as_tables(
            a, b
        )
