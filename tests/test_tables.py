"""Finite group tables: parsing, validation, construction from
permutations and quotients, and the relation-checking homomorphism test."""

import random
from itertools import product

import pytest

from conjlab.quotients import make_spec
from conjlab.sepfunc import constant_prime, from_table, nth_prime
from conjlab.tables import (
    MAX_TABLE_ORDER,
    FiniteGroupTable,
    from_permutations,
    hom_check,
    load_table,
    parse_table,
)

from conftest import format_table, from_quotient_spec

D_TABLE = from_table([2, 31, 127, 1021, 8191])


def window_extension(n, zmod, w):
    """Group of order 4^n * zmod * n: two exponent-2 index windows
    x_0..x_{n-1}, y_0..y_{n-1}, a central z of order zmod with
    [x_i, y_j] = z^{w[(j-i) mod n]} up to sign, and the index rotation
    tau of order n. Built as a central extension by the bilinear cocycle
    B(v, u') = sum v_r u'_s w[(r-s) mod n], which the rotation preserves,
    so the multiplication below is associative by construction."""

    def rot(vec, t):
        return tuple(vec[(i - t) % n] for i in range(n))

    def cocycle(v1, u2):
        return sum(w[(r - s) % n] for r in range(n) for s in range(n)
                   if v1[r] and u2[s]) % zmod

    def mul(x, y):
        u1, v1, c1, t1 = x
        u2, v2, c2, t2 = y
        ru, rv = rot(u2, t1), rot(v2, t1)
        u = tuple(p ^ q for p, q in zip(u1, ru))
        v = tuple(p ^ q for p, q in zip(v1, rv))
        return u, v, (c1 + c2 + cocycle(v1, ru)) % zmod, (t1 + t2) % n

    zero = (0,) * n
    elems = [(u, v, c, t)
             for u in product((0, 1), repeat=n)
             for v in product((0, 1), repeat=n)
             for c in range(zmod) for t in range(n)]
    index = {el: i for i, el in enumerate(elems)}
    table = [[index[mul(x, y)] for y in elems] for x in elems]
    e0 = (1,) + (0,) * (n - 1)
    return FiniteGroupTable(table,
                            index[(e0, zero, 0, 0)],
                            index[(zero, e0, 0, 0)],
                            index[(zero, zero, 0, 1)])


@pytest.fixture(scope="module")
def q384():
    return window_extension(3, 2, (0, 1, 0))


@pytest.fixture(scope="module")
def q128():
    """Order-128 group with tau of order 2: the window pairing takes
    values v, vz in a Klein four-group that tau twists by v -> vz, so
    gamma_1 = v * (vz) = z survives even though the window has period 2."""

    def theta(u, w, a, k):
        for _ in range(k):
            u = (u[1], u[0])
            w = (w[1], w[0])
            a = (a[0], a[1] ^ a[0])
        return u, w, a

    # pairing table P(i, j) for the cocycle sum over w1[i] u2[j]; checked
    # against the twist: theta(P(i, j)) == P(i+1, j+1) with indices mod 2
    P = {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (1, 1), (1, 1): (0, 0)}

    def pair(w1, u2):
        av = az = 0
        for i in range(2):
            for j in range(2):
                if w1[i] and u2[j]:
                    av ^= P[i, j][0]
                    az ^= P[i, j][1]
        return av, az

    def mul(x, y):
        u1, w1, a1, t1 = x
        u2, w2, a2, t2 = y
        u2, w2, a2 = theta(u2, w2, a2, t1)
        bv, bz = pair(w1, u2)
        return (tuple(p ^ q for p, q in zip(u1, u2)),
                tuple(p ^ q for p, q in zip(w1, w2)),
                (a1[0] ^ a2[0] ^ bv, a1[1] ^ a2[1] ^ bz),
                t1 ^ t2)

    elems = [(u, w, a, t)
             for u in product((0, 1), repeat=2)
             for w in product((0, 1), repeat=2)
             for a in product((0, 1), repeat=2)
             for t in (0, 1)]
    index = {el: i for i, el in enumerate(elems)}
    table = [[index[mul(x, y)] for y in elems] for x in elems]
    zero = (0, 0)
    return FiniteGroupTable(table,
                            index[((1, 0), zero, zero, 0)],
                            index[(zero, (1, 0), zero, 0)],
                            index[(zero, zero, zero, 1)])


# ------------------------------------------------------------ table basics

def test_z2_table():
    Q = from_permutations((0, 1), (0, 1), (1, 0))
    assert Q.order == 2
    assert Q.identity == Q.alpha == Q.beta
    assert Q.element_order(Q.tau) == 2
    assert Q.mult_count > 0


def test_s3_table():
    Q = from_permutations((1, 0, 2), (2, 1, 0), (0, 1, 2))
    assert Q.order == 6
    assert Q.tau == Q.identity
    assert Q.element_order(Q.alpha) == 2
    k = Q.commutator(Q.alpha, Q.beta)
    assert Q.element_order(k) == 3
    assert Q.inv_of(Q.inv_of(Q.alpha)) == Q.alpha


def test_from_permutations_validation():
    with pytest.raises(ValueError):
        from_permutations((0, 0), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        from_permutations((0, 1), (0, 1, 2), (0, 1))


def test_construction_counts_no_mults(q128):
    assert q128.mult_count == 0


def test_rejects_non_groups():
    with pytest.raises(ValueError, match="not a group"):
        FiniteGroupTable([], 0, 0, 0)
    with pytest.raises(ValueError, match="not a group"):
        FiniteGroupTable([[0, 1], [1, 1]], 0, 0, 0)
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroupTable([[1, 1], [1, 1]], 0, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        FiniteGroupTable([[0, 2], [1, 0]], 0, 0, 0)
    with pytest.raises(ValueError):
        FiniteGroupTable([[0, 1], [1, 0]], 0, 0, 5)
    # latin square with identity and two-sided inverses, yet (2*5)*1 = 5
    # while 2*(5*1) = 2: associativity is genuinely checked
    loop = [
        [0, 1, 2, 3, 4, 5],
        [1, 5, 3, 4, 2, 0],
        [2, 3, 4, 5, 0, 1],
        [3, 4, 5, 0, 1, 2],
        [4, 2, 0, 1, 5, 3],
        [5, 0, 1, 2, 3, 4],
    ]
    with pytest.raises(ValueError, match="not a group"):
        FiniteGroupTable(loop, 0, 0, 0)


def test_parse_format_round_trip():
    Q = from_permutations((1, 0, 2), (2, 1, 0), (0, 1, 2))
    text = format_table(Q)
    R = parse_table(text)
    assert R.table == Q.table
    assert (R.alpha, R.beta, R.tau) == (Q.alpha, Q.beta, Q.tau)


def test_parse_accepts_comments_and_any_mark_order():
    Q = parse_table("""
    # two element group
    order 2
    0 1
    1 0
    tau 1   # the flip
    alpha 0
    beta 0
    """)
    assert Q.order == 2 and Q.tau == 1


@pytest.mark.parametrize("text,fragment", [
    ("", "unexpected end"),
    ("size 2", "must start with"),
    ("order x", "expected an integer"),
    ("order 0", "must be positive"),
    ("order 1 0 alpha 0 beta 0", "missing marked elements: tau"),
    ("order 1 0 alpha 0 beta 0 tau 0 gamma 1", "unexpected token"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_table(text)


def test_load_table(tmp_path):
    path = tmp_path / "z2.tbl"
    path.write_text(format_table(from_permutations((0, 1), (0, 1), (1, 0))))
    assert load_table(path).order == 2


# --------------------------------------------------------- quotient tables

def test_table_from_smallest_quotient():
    spec = make_spec(1, 2, D_TABLE)
    Q = from_quotient_spec(spec)
    assert Q.order == 8
    assert Q.element_order(Q.tau) == 1
    assert hom_check(Q, D_TABLE)


def test_quotient_table_cap():
    with pytest.raises(ValueError, match="exceeds the cap"):
        from_quotient_spec(make_spec(1, 13, D_TABLE))
    assert MAX_TABLE_ORDER == 2048


# ----------------------------------------------------------- morphism test

def test_hom_check_goldens():
    z2 = from_permutations((0, 1), (0, 1), (1, 0))
    assert hom_check(z2, D_TABLE)
    assert hom_check(z2, nth_prime())
    s3 = from_permutations((1, 0, 2), (2, 1, 0), (0, 1, 2))
    assert not hom_check(s3, D_TABLE)
    assert not hom_check(s3, constant_prime(3))


def test_hom_check_abelian_always_passes():
    rot = (1, 2, 3, 4, 0)
    sq = (2, 3, 4, 0, 1)
    for marks in ((rot, rot, rot), (rot, sq, rot), (sq, rot, (0, 1, 2, 3, 4))):
        Q = from_permutations(*marks)
        for d in (D_TABLE, nth_prime(), constant_prime(2)):
            assert hom_check(Q, d)


def test_hom_check_tail_depends_on_d(q384):
    # tau has order 3, so both residues of the 2^j cycle carry a gamma of
    # order 2 for all large j; only an eventually constant d with tail 2
    # can satisfy that
    assert hom_check(q384, constant_prime(2))
    assert hom_check(q384, from_table([2, 2]))
    assert not hom_check(q384, D_TABLE)
    assert not hom_check(q384, nth_prime())
    assert not hom_check(q384, constant_prime(31))


def test_hom_check_preperiodic_depends_on_d(q128):
    # tau has order 2: gamma_1 sits at j = 0 only, so d(0) = 2 suffices
    # and the tail never sees a nontrivial gamma
    assert hom_check(q128, D_TABLE)
    assert hom_check(q128, nth_prime())
    assert hom_check(q128, constant_prime(2))
    assert not hom_check(q128, constant_prime(31))


def relabeled(Q, rng):
    q = Q.order
    perm = list(range(q))
    rng.shuffle(perm)
    inv = [0] * q
    for i, p in enumerate(perm):
        inv[p] = i
    table = [[perm[Q.table[inv[x]][inv[y]]] for y in range(q)] for x in range(q)]
    return FiniteGroupTable(table, perm[Q.alpha], perm[Q.beta], perm[Q.tau])


def test_hom_check_is_isomorphism_invariant(q128):
    rng = random.Random(61)
    for m in (2, 3, 5):
        Q = from_quotient_spec(make_spec(1, m, D_TABLE))
        assert hom_check(Q, D_TABLE)
        for _ in range(3):
            assert hom_check(relabeled(Q, rng), D_TABLE)
    assert hom_check(relabeled(q128, rng), D_TABLE)
    assert not hom_check(relabeled(q128, rng), constant_prime(31))


def test_hom_check_survives_inner_twist(q128):
    # conjugating all three marks composes with an inner automorphism
    rng = random.Random(62)
    for _ in range(5):
        g = rng.randrange(q128.order)
        gi = q128.inv_of(g)
        marks = [q128.table[q128.table[gi][x]][g]
                 for x in (q128.alpha, q128.beta, q128.tau)]
        Q = FiniteGroupTable(q128.table, *marks)
        assert hom_check(Q, D_TABLE)
        assert not hom_check(Q, constant_prime(31))


def test_hom_check_mult_budget(q384):
    q384.mult_count = 0
    hom_check(q384, constant_prime(2))
    assert 0 < q384.mult_count <= 64 * q384.order ** 3
    q384.mult_count = 0
