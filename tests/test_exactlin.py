"""Smith normal form and windowed homology."""

import random

import pytest
from test_properties import determinantal_diagonal

from barloop.errors import MismatchAt, WindowTooSmall
from barloop.exactlin import (
    ChainComplexWindow,
    HomologyEntry,
    HomologyTable,
    IntMatrix,
    homology_window,
    mapping_cone,
    smith_normal_form,
)


def snf_of(rows):
    return smith_normal_form(IntMatrix.from_rows(rows))


def test_snf_frozen_small_matrix():
    # d1 = gcd of entries = 2; d1*d2 = |det| = |12 - 16| = 4, so d = (2, 2).
    s = snf_of([[2, 4], [4, 6]])
    assert s.d == (2, 2)
    s.verify()


def test_snf_diagonal_passthrough():
    s = snf_of([[1, 0], [0, 3]])
    assert s.d == (1, 3)
    s.verify()


def test_snf_divisibility_is_enforced():
    # diag(2, 3) is not in normal form; SNF is diag(1, 6).
    s = snf_of([[2, 0], [0, 3]])
    assert s.d == (1, 6)
    s.verify()


def test_snf_zero_and_empty():
    s = snf_of([[0, 0], [0, 0]])
    assert s.d == (0, 0)
    s.verify()
    s = smith_normal_form(IntMatrix.zeros(0, 3))
    assert s.d == ()
    s = smith_normal_form(IntMatrix.zeros(3, 0))
    assert s.d == ()


def test_snf_rectangular():
    s = snf_of([[6, 10, 15]])
    assert s.d == (1,)
    s.verify()
    s = snf_of([[6], [10], [15]])
    assert s.d == (1,)
    s.verify()


def test_snf_big_entries_stay_exact():
    n = 10**30
    s = snf_of([[n, n + 2], [n + 4, n + 6]])
    s.verify()
    # det = n(n+6) - (n+2)(n+4) = -8; gcd of entries is 2.
    assert s.d == (2, 4)


def test_snf_random_properties_seeded():
    rng = random.Random(1009)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = IntMatrix(
            rows, cols, [rng.randrange(-9, 10) for _ in range(rows * cols)]
        )
        s = smith_normal_form(m)
        s.verify()
        assert s.d == determinantal_diagonal(m)
        for i in range(len(s.d) - 1):
            if s.d[i]:
                assert s.d[i + 1] % s.d[i] == 0


def test_matrix_json_roundtrip_decimal_strings():
    m = IntMatrix.from_rows([[10**25, -3], [0, 7]])
    d = m.to_json_dict()
    assert d["entries"][0] == str(10**25)
    assert IntMatrix.from_json_dict(d) == m


def two_periodic_complex(hi):
    """Rank-1 complex with boundaries alternating 0, 2, 0, 2, ...

    This is the window of the standard 2-periodic free resolution used as
    an independent oracle for the classifying-space homology of the
    2-element group: expected (Z, Z/2, 0, Z/2, ...).
    """
    ranks = {n: 1 for n in range(hi + 1)}
    bounds = {}
    for n in range(1, hi + 1):
        bounds[n] = IntMatrix.from_rows([[0 if n % 2 else 2]])
    return ChainComplexWindow(0, hi, ranks, bounds, closed_below=True)


def test_homology_two_periodic_oracle():
    table = homology_window(two_periodic_complex(5))
    assert table[0].iso(HomologyEntry(1, [], True))
    assert table[1].iso(HomologyEntry(0, [2], True))
    assert table[2].iso(HomologyEntry(0, [], True))
    assert table[3].iso(HomologyEntry(0, [2], True))
    assert table[4].iso(HomologyEntry(0, [], True))
    # top of the window is partial: the next differential is unknown
    assert not table[5].exact
    assert table[0].exact  # closed below


def test_homology_sphere_complex():
    # Cellular-style complex of a 2-sphere: ranks (1, 0, 1), zero boundaries.
    c = ChainComplexWindow(
        0,
        3,
        {0: 1, 1: 0, 2: 1, 3: 0},
        {
            1: IntMatrix.zeros(1, 0),
            2: IntMatrix.zeros(0, 1),
            3: IntMatrix.zeros(1, 0),
        },
        closed_below=True,
    )
    t = homology_window(c)
    assert t[0].iso(HomologyEntry(1, [], True))
    assert t[1].is_zero()
    assert t[2].iso(HomologyEntry(1, [], True))


def test_homology_detects_broken_composition():
    # d1 * d2 != 0 must be rejected.
    c = ChainComplexWindow(
        0,
        2,
        {0: 1, 1: 1, 2: 1},
        {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])},
    )
    with pytest.raises(MismatchAt):
        c.validate()
    with pytest.raises(MismatchAt):
        homology_window(c)
    # Only the top pair d_2∘d_3 breaks; d_1∘d_2 == 0.
    c = ChainComplexWindow(
        0,
        3,
        {0: 1, 1: 1, 2: 1, 3: 1},
        {
            1: IntMatrix.from_rows([[0]]),
            2: IntMatrix.from_rows([[1]]),
            3: IntMatrix.from_rows([[1]]),
        },
    )
    with pytest.raises(MismatchAt, match="d∘d != 0 from degree 3") as e:
        homology_window(c)
    assert e.value.degree == 3


def test_window_too_small_rejected():
    with pytest.raises(WindowTooSmall):
        ChainComplexWindow(3, 3, {3: 1}, {})


def test_homology_table_json_roundtrip():
    t = homology_window(two_periodic_complex(4))
    d = t.to_json_dict()
    assert d["1"]["torsion"] == ["2"]
    t2 = HomologyTable.from_json_dict(d)
    assert t.iso(t2)
    assert t2[0].exact


def test_homology_invariant_under_basis_change():
    rng = random.Random(4242)
    base = two_periodic_complex(4)
    for _ in range(20):
        # conjugate each boundary by random unimodular matrices
        tweaked = {}
        units = {}
        for n in range(0, 5):
            units[n] = _random_unimodular(rng, base.rank(n))
        for n in range(1, 5):
            # d'_n = U_{n-1} d_n U_n^{-1}; with rank-1 pieces the random
            # unimodular is just +-1, so this exercises the sign handling.
            tweaked[n] = units[n - 1] * base.boundary(n) * _unimodular_inverse(units[n])
        c = ChainComplexWindow(0, 4, dict(base.ranks), tweaked, closed_below=True)
        assert homology_window(c).iso(homology_window(base))


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n)
    rows = m.to_rows()
    for i in range(n):
        if rng.random() < 0.5:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows) if n else IntMatrix(0, 0, [])


def _unimodular_inverse(m):
    # inverse of a signed permutation-free diagonal +-1 matrix is itself
    return m


def test_mapping_cone_of_identity_is_acyclic():
    c = two_periodic_complex(5)
    maps = {n: IntMatrix.identity(c.rank(n)) for n in range(0, 6)}
    cone = mapping_cone(maps, c, c)
    cone.validate()
    t = homology_window(cone)
    for n in range(1, 5):
        assert t[n].is_zero(), f"cone not acyclic in degree {n}"
