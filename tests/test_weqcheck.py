"""Nerve invariants and equivalence verdicts for monoid maps."""

import itertools
import sys

import pytest

import label_completion_map as old
from barloop import rewrite
from barloop.dgcoalg import chains
from barloop.exactlin import homology_window
from barloop.monoids import (
    Exhausted,
    FiniteMonoid,
    MonoidMap,
    MonoidPresentation,
    group_completion,
    group_ring,
    random_monoid,
)
from barloop.simplicial import nerve
from barloop.weqcheck import (
    bundled_complexes,
    bundled_monoids,
    weq_verdict,
)
from checks import isomorphic_as_tables, quotient_table
from coset_oracle import _coset_enumeration


def nerve_invariants(m, hi):
    """The nerve homology over degrees 0..hi and the group completion of
    m, the invariants weq_verdict compares."""
    return homology_window(chains(nerve(m), hi).complex), group_completion(m)


def test_invariant_bundle_of_idempotent_pair():
    m = FiniteMonoid.idempotent_pair()
    homology, completion = nerve_invariants(m, hi=4)
    # nerve is contractible: point homology
    assert homology[0].group() == (1, ())
    for n in range(1, 4):
        assert homology[n].is_zero()
    assert not isinstance(completion, Exhausted)
    assert completion.order == 1


def test_invariant_bundle_of_cyclic_group():
    homology, completion = nerve_invariants(FiniteMonoid.cyclic(2), hi=4)
    assert homology[1].group() == (0, (2,))
    assert homology[3].group() == (0, (2,))
    assert completion.order == 2


def test_collapse_of_idempotent_pair_is_certified():
    f = MonoidMap.collapse(FiniteMonoid.idempotent_pair())
    v = weq_verdict(f, hi=4)
    assert v.kind == "certified-equivalent"
    assert v.certificate["completion_order"] == 1


def test_collapse_of_cyclic_group_is_distinguished_by_h1():
    f = MonoidMap.collapse(FiniteMonoid.cyclic(2))
    v = weq_verdict(f, hi=4)
    assert v.kind == "distinguished"
    assert v.witness["invariant"] == "nerve_homology"
    assert v.witness["degree"] == 1
    assert v.witness["source"] == "Z/2"


def test_identity_maps_are_certified_on_all_bundled_monoids():
    for name, m in bundled_monoids().items():
        v = weq_verdict(MonoidMap.identity(m), hi=3)
        assert v.kind == "certified-equivalent", (name, v.kind, v.witness)


def test_trivial_self_map_of_cyclic_group_is_distinguished():
    # g -> 1 is a homomorphism z2 -> z2; tables agree, the map does not
    m = FiniteMonoid.cyclic(2)
    f = MonoidMap(m, m, [0, 0]).validate()
    v = weq_verdict(f, hi=4)
    assert v.kind == "distinguished"
    assert v.witness["invariant"] in ("nerve_chain_map", "group_completion_map")


def test_left_zero_collapse_is_certified():
    f = MonoidMap.collapse(FiniteMonoid.left_zero_with_unit(2))
    v = weq_verdict(f, hi=3)
    assert v.kind == "certified-equivalent"


def test_inclusion_of_trivial_into_cyclic_is_distinguished():
    m = FiniteMonoid.trivial()
    z3 = FiniteMonoid.cyclic(3)
    f = MonoidMap(m, z3, [0]).validate()
    v = weq_verdict(f, hi=4)
    assert v.kind == "distinguished"
    assert v.witness["invariant"] == "nerve_homology"


def test_automorphism_of_relabelled_z4_is_certified():
    # Z/4 with its identity in the middle and labels whose primed
    # inverses collide with other elements: v' is an element, so the
    # formal inverse of v is v''
    labels = ["v", "v'", "e", "w"]  # v = g, v' = g2, w = g3
    power = {2: 0, 0: 1, 1: 2, 3: 3}
    at = {k: i for i, k in power.items()}
    table = [[at[(power[i] + power[j]) % 4] for j in range(4)]
             for i in range(4)]
    z4 = FiniteMonoid(labels, 2, table)
    images = [at[3 * power[i] % 4] for i in range(4)]
    f = MonoidMap(z4, z4, images).validate()
    v = weq_verdict(f, hi=4)
    assert v.kind == "certified-equivalent"
    assert v.certificate["completion_order"] == 4
    _, inverses = group_ring(MonoidPresentation.from_monoid(z4), "'")
    assert inverses["v"] == "v''"


def test_verdicts_are_monotone_in_the_window():
    certified = MonoidMap.collapse(FiniteMonoid.idempotent_pair())
    refuted = MonoidMap.collapse(FiniteMonoid.cyclic(2))
    for hi in (2, 3, 4):
        assert weq_verdict(certified, hi=hi).kind == "certified-equivalent"
        assert weq_verdict(refuted, hi=hi).kind == "distinguished"


def test_bundle_serializes():
    m = FiniteMonoid.cyclic(2)
    homology, completion = nerve_invariants(m, hi=3)
    assert completion.order == 2
    quotient = quotient_table(m, completion.classes)
    assert MonoidPresentation.from_monoid(quotient).to_json_dict()["gens"] == [
        "g"
    ]
    assert homology.to_json_dict()["1"]["torsion"] == ["2"]


def test_verdict_serializes():
    v = weq_verdict(MonoidMap.collapse(FiniteMonoid.cyclic(2)), hi=3)
    d = v.to_json_dict()
    assert d["verdict"] == "distinguished"
    assert d["witness"]["degree"] == 1


def test_bundled_registries():
    ms = bundled_monoids()
    assert set(ms) == {"trivial", "z2", "z3", "z4", "idempotent", "left-zero"}
    ks = bundled_complexes()
    assert "sphere2" in ks and "boundary-delta3-collapsed" in ks
    for k in ks.values():
        assert len(k.n_simplices(0)) == 1


def _cyclic_labelled(labels):
    n = len(labels)
    return FiniteMonoid(
        labels, 0, [[(i + j) % n for j in range(n)] for i in range(n)]
    )


@pytest.mark.parametrize(
    "m, order",
    [
        (_cyclic_labelled(["0", "1", "2"]), 3),
        (_cyclic_labelled(["e", "1"]), 2),
        # the generator "1" becomes the identity in the completion
        (FiniteMonoid(["e", "1"], 0, [[0, 1], [1, 1]]), 1),
    ],
    ids=["z3", "z2", "idempotent"],
)
def test_numeric_labels_do_not_clash_with_the_completion_identity(m, order):
    p = MonoidPresentation.from_monoid(m)
    comp = group_completion(p)
    assert comp.order == order
    # the coset oracle names each group element by a word in the letters
    labels, identity, _ = _coset_enumeration(
        p, group_ring(p, "'")[1], budget=10_000
    )
    assert labels[identity] == "1''"
    assert len(set(labels)) == order
    verdict = weq_verdict(MonoidMap.identity(m), hi=3)
    assert verdict.kind == "certified-equivalent"
    assert verdict.certificate["completion_order"] == order


def test_letter_labels_keep_the_plain_identity_label():
    p = MonoidPresentation.from_monoid(_cyclic_labelled(["e", "a", "b"]))
    labels, identity, _ = _coset_enumeration(
        p, group_ring(p, "'")[1], budget=10_000
    )
    assert labels[identity] == "1"


def _z2_times_idempotent():
    # Z/2 x {1, z} with z idempotent: z and w = (a, z) die in the group
    # completion, while the generator labelled "1" survives
    table = [
        [(i % 2 + j % 2) % 2 + 2 * (i // 2 | j // 2) for j in range(4)]
        for i in range(4)
    ]
    return FiniteMonoid(["e", "1", "z", "w"], 0, table)


def test_an_element_trivial_in_the_completion_maps_to_its_identity():
    m = _z2_times_idempotent()
    comp = group_completion(m)
    assert comp.order == 2
    identity = comp.classes[m.identity]
    assert comp.classes[0] == identity
    assert comp.classes[2] == identity
    assert comp.classes[3] == comp.classes[1]
    assert comp.classes[1] != identity


def _homomorphisms(src, dst):
    rest = [a for a in range(src.order()) if a != src.identity]
    for imgs in itertools.product(range(dst.order()), repeat=len(rest)):
        images = [dst.identity] * src.order()
        for a, b in zip(rest, imgs):
            images[a] = b
        if all(
            images[src.table[a][b]] == dst.table[images[a]][images[b]]
            for a in rest for b in rest
        ):
            yield MonoidMap(src, dst, images)


def _completion_map_bijective(f, cs, cd):
    # the rule weq_verdict applies to table completions: equal orders,
    # and the classes of the images f(a) fill the target completion
    return cs.order == cd.order and (
        len({cd.classes[b] for b in f.images}) == cd.order
    )


def test_completion_map_check_agrees_with_the_label_parsing_oracle():
    monoids = list(bundled_monoids().values()) + [
        FiniteMonoid.chain_of_idempotents(3),
        FiniteMonoid.left_zero_with_unit(3),
        _z2_times_idempotent(),
    ] + [random_monoid(seed) for seed in range(10)]
    tables = [group_completion(m) for m in monoids]
    rewritten = [old.RewritingCompletion(m) for m in monoids]
    assert all(c.monoid is not None for c in rewritten)
    checked = 0
    verdicts = set()
    for (src, cs, rs), (dst, cd, rd) in itertools.product(
        zip(monoids, tables, rewritten), repeat=2
    ):
        for f in _homomorphisms(src, dst):
            want = old._induced_completion_bijective(f, rs, rd)
            assert want is not None
            assert _completion_map_bijective(f, cs, cd) == want, (
                src, dst, f.images,
            )
            verdicts.add(want)
            checked += 1
    assert checked == 881
    assert verdicts == {True, False}


# every monoid the rewriting completion is compared with, by name
DIFFERENTIAL = {
    **bundled_monoids(),
    "chain3": FiniteMonoid.chain_of_idempotents(3),
    "left-zero3": FiniteMonoid.left_zero_with_unit(3),
    "z2-times-idempotent": _z2_times_idempotent(),
    **{f"random-{seed}": random_monoid(seed) for seed in range(30)},
    **{f"cyclic-{n}": FiniteMonoid.cyclic(n) for n in range(5, 13)},
}


@pytest.mark.parametrize("m", DIFFERENTIAL.values(), ids=DIFFERENTIAL.keys())
def test_table_completion_matches_the_rewriting_completion(m):
    table = group_completion(m)
    counted = group_completion(MonoidPresentation.from_monoid(m))
    rewritten = old.RewritingCompletion(m)
    quotient = quotient_table(m, table.classes)
    assert table.order == counted.order == rewritten.order == quotient.order()
    assert isomorphic_as_tables(quotient, rewritten.monoid)
    assert len(table.classes) == m.order()
    assert table.classes[m.identity] == quotient.identity
    # the classes form a homomorphism onto the completion table
    for a in range(m.order()):
        for b in range(m.order()):
            assert table.classes[m.table[a][b]] == quotient.table[
                table.classes[a]
            ][table.classes[b]]
    assert set(table.classes) == set(range(table.order))


def test_a_coset_enumerated_source_completion_is_exhausted():
    # at budget 5 rewriting completion of the idempotent pair's group
    # ring stops early, and nothing else completes the presentation
    p = MonoidPresentation.from_monoid(FiniteMonoid.idempotent_pair())
    assert not rewrite.complete(group_ring(p, "'")[0], 5).complete
    cs = group_completion(p, budget=5)
    assert isinstance(cs, Exhausted)
    assert cs.reason == "completion budget exhausted"


def test_weq_builds_no_rewriting_system(monkeypatch):
    calls = []
    for name in ("complete", "basis_in_degree", "basis_size"):
        real = getattr(rewrite, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("barloop")
                and getattr(mod, name, None) is real
            ):
                monkeypatch.setattr(mod, name, spy)
    verdict = weq_verdict(MonoidMap.identity(FiniteMonoid.cyclic(4)), hi=3)
    assert verdict.kind == "certified-equivalent"
    assert calls == []
    # the spies see the rewriting completion of a presentation
    group_completion(MonoidPresentation.from_monoid(FiniteMonoid.cyclic(4)))
    assert calls == ["complete", "basis_size"]
    # an exhausted completion stops at complete
    calls.clear()
    p = MonoidPresentation.from_monoid(FiniteMonoid.idempotent_pair())
    assert isinstance(group_completion(p, budget=5), Exhausted)
    assert calls == ["complete"]
