"""Conjugacy layer: integer linear solver, twisted shift equations, the
commutator equation, and the full decision with certificates."""

import random
import signal
import time

import pytest

import conjlab.conjugacy as conjugacy
from conjlab.conjugacy import (
    REASON_AB,
    REASON_CENTRAL,
    REASON_T,
    REASON_TWISTED,
    ConjugacyCertificate,
    IntegerLinearSystem,
    central_defect,
    commutator_bilinear,
    conj_mod_C,
    conjugacy_decide,
    hnf_solve,
    solve_commutator_equation,
    solve_twisted_abelian,
    solve_twisted_derived,
)
from conjlab.extension import GElement, g_conj, g_equal, g_inv, g_mul, g_t, \
    parse_word, spell_element
from conjlab.nilpotent import (
    DElement,
    central_c,
    d_element,
    d_identity,
    d_mul,
    generator_a,
    generator_b,
    phi_shift,
)
from conjlab.sepfunc import constant_prime

from conftest import D_SPECS, banded_letters, box_solutions, d_comm, \
    decide_by_products, letters_to_g, letters_to_word, load_d, \
    merge_congruence, random_letters

AA, AB, BB, C = ("AA",), ("AB",), ("BB",), ("C",)


def nonc(x: DElement) -> dict:
    return {k: v for k, v in x.derived.items() if k[0] != "C"}


# ------------------------------------------------------------ integer solver

def test_hnf_frozen():
    assert hnf_solve(IntegerLinearSystem(((2,),), (4,))) == (2,)
    assert hnf_solve(IntegerLinearSystem(((2,),), (3,))) is None
    assert hnf_solve(IntegerLinearSystem(((1, 2), (3, 4)), (5, 6))) is None
    assert hnf_solve(IntegerLinearSystem((), ())) == ()


def test_system_validation():
    with pytest.raises(ValueError):
        IntegerLinearSystem(((1,),), (1, 2))
    with pytest.raises(ValueError):
        IntegerLinearSystem(((1,), (1, 2)), (0, 0))


def test_hnf_against_exhaustive_box():
    rng = random.Random(11)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(ncols))
                     for _ in range(nrows))
        rhs = tuple(rng.randint(-6, 6) for _ in range(nrows))
        x = hnf_solve(IntegerLinearSystem(rows, rhs))
        if x is None:
            assert box_solutions(rows, rhs, 8) == []
        else:
            for row, target in zip(rows, rhs):
                assert sum(c * v for c, v in zip(row, x)) == target


def test_hnf_constructed_solvable():
    rng = random.Random(12)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(ncols))
                     for _ in range(nrows))
        x0 = [rng.randint(-4, 4) for _ in range(ncols)]
        rhs = tuple(sum(c * v for c, v in zip(row, x0)) for row in rows)
        assert hnf_solve(IntegerLinearSystem(rows, rhs)) is not None


def test_solve_congruences_two_large_primes():
    # m is a product of two primes near 2^30 and the pivots are zero
    # divisors of it: elimination over Z/m must cost gcds in the digits of
    # m, never a factorisation of m. A slow solve is cut by an alarm so
    # that it fails instead of stalling the suite.
    P, Q = 1073741789, 1073741827
    m = P * Q
    x0 = {0: 123456789, 1: 987654321}
    lhs = [({0: 6 * P, 1: 5}, m), ({0: 4 * Q, 1: 2 * P}, m),
           ({0: 3, 1: 7}, Q)]
    rows = [(coeffs, sum(v * x0[c] for c, v in coeffs.items()) % mod, mod)
            for coeffs, mod in lhs]
    # the first row again, off by P; and P x = 1, where P is not a unit
    unsolvable = (rows + [(rows[0][0], rows[0][1] + P, m)],
                  rows + [({0: P}, 1, m)])

    def stalled(signum, frame):
        raise TimeoutError("solver stalled on a large modulus")

    previous = signal.signal(signal.SIGALRM, stalled)
    try:
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        sol = conjugacy.solve_congruences(rows, m)
        unsolved = [conjugacy.solve_congruences(r, m) for r in unsolvable]
        signal.setitimer(signal.ITIMER_REAL, 0)
        assert time.perf_counter() - t0 < 0.5
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert sol is not None and all(0 < v < m for v in sol.values())
    for coeffs, rhs, mod in rows:
        assert (sum(v * sol.get(c, 0) for c, v in coeffs.items()) - rhs) \
            % mod == 0
    assert unsolved == [None, None]


@pytest.mark.parametrize("sign", [1, -1])
def test_unit_pivots_keep_their_column(sign, monkeypatch):
    # a chain of 50 links s x_j - s x_{j+1} = j modulo 1021 and a row
    # x_0 = 5 that cascades down it: the row meets each link's pivot and
    # leaves one row for the next. A pivot of -1, stored as 1020, does
    # not divide the 1 it meets and would split into two rows every time
    # (100 row operations); scaled to 1 when stored, each meeting is one
    # row operation, whatever the sign
    m = 1021
    rows = [({0: 1}, 5, m)] + \
        [({j: sign, j + 1: -sign}, j, m) for j in range(50)]
    combines = []
    combine = conjugacy._combine

    def counted(*args):
        combines.append(args)
        return combine(*args)

    monkeypatch.setattr(conjugacy, "_combine", counted)
    sol = conjugacy.solve_congruences(rows, m)
    assert len(combines) == 50
    for coeffs, rhs, mod in rows:
        assert (sum(v * sol.get(c, 0) for c, v in coeffs.items()) - rhs) \
            % mod == 0


# ---------------------------------------------------------- twisted equations

def class_sums(delta: dict, step: int) -> dict:
    sums: dict = {}
    for p, v in delta.items():
        r = p % abs(step)
        sums[r] = sums.get(r, 0) + v
    return sums


def check_abelian_solution(h: dict, delta: dict, step: int):
    support = set(h) | set(delta)
    probe = set()
    for p in support:
        probe.update((p - step, p, p + step))
    for p in probe:
        assert h.get(p, 0) - h.get(p - step, 0) == delta.get(p, 0)


def test_twisted_abelian_frozen():
    assert solve_twisted_abelian({1: 1, 0: -1}, {}, 1) == ({0: -1}, {})
    assert solve_twisted_abelian({0: 1, -1: -1}, {}, -1) == ({0: 1}, {})
    assert solve_twisted_abelian({0: 1}, {}, 1) is None
    assert solve_twisted_abelian({}, {}, 3) == ({}, {})
    with pytest.raises(ValueError):
        solve_twisted_abelian({0: 1}, {}, 0)


def test_twisted_abelian_solvability_criterion():
    # solvable over finitely supported h iff each residue class of the
    # support sums to zero; when solvable the solution is unique because
    # the difference of two solutions is shift-periodic with finite support
    rng = random.Random(21)
    for _ in range(300):
        step = rng.choice([1, -1, 2, -2, 3])
        delta = {rng.randint(-4, 4): rng.randint(-2, 2) for _ in range(rng.randint(0, 4))}
        delta = {p: v for p, v in delta.items() if v}
        got = solve_twisted_abelian(delta, {}, step)
        solvable = all(v == 0 for v in class_sums(delta, step).values())
        assert (got is not None) == solvable
        if got is not None:
            check_abelian_solution(got[0], delta, step)
            assert got[1] == {}


def test_twisted_abelian_construct_and_recover():
    rng = random.Random(22)
    for _ in range(200):
        step = rng.choice([1, -1, 2, -2])
        h = {rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        h = {p: v for p, v in h.items() if v}
        probe = set()
        for p in h:
            probe.update((p, p + step))
        delta = {p: h.get(p, 0) - h.get(p - step, 0) for p in probe}
        delta = {p: v for p, v in delta.items() if v}
        ha, hb = solve_twisted_abelian(delta, delta, step)
        assert ha == h and hb == h


def test_twisted_abelian_tiny_box_anchor():
    # anchor the class-sum criterion itself on one instance by brute force
    delta = {0: 1}
    assert solve_twisted_abelian(delta, {}, 1) is None
    positions = range(-2, 3)
    from itertools import product
    for values in product(range(-2, 3), repeat=5):
        h = dict(zip(positions, values))
        if all(h.get(p, 0) - h.get(p - 1, 0) == delta.get(p, 0)
               for p in range(-3, 4)):
            pytest.fail(f"brute force found a solution: {h}")


def test_twisted_derived_frozen():
    delta = {("AA", 0, 1): 1, ("AA", 2, 3): -1}
    assert solve_twisted_derived(delta, 2) == {("AA", 0, 1): 1}
    assert solve_twisted_derived({("AA", 0, 1): 1}, 1) is None
    assert solve_twisted_derived({}, 5) == {}
    with pytest.raises(ValueError):
        solve_twisted_derived({("C", 1): 1}, 2)
    with pytest.raises(ValueError):
        solve_twisted_derived({("AA", 0, 1): 1}, 0)


def test_twisted_derived_construct_and_recover():
    rng = random.Random(23)
    kinds = ["AA", "AB", "BB"]
    for _ in range(200):
        step = rng.choice([1, -1, 2, -2])
        h: dict = {}
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(kinds)
            i = rng.randint(-3, 3)
            gap = rng.randint(0, 3) if kind == "AB" else rng.randint(1, 3)
            v = rng.randint(-3, 3)
            if v:
                h[(kind, i, i + gap)] = v
        delta: dict = {}
        for (kind, i, j), v in h.items():
            for key, w in (((kind, i, j), v), ((kind, i + step, j + step), -v)):
                u = delta.get(key, 0) + w
                if u:
                    delta[key] = u
                else:
                    delta.pop(key, None)
        assert solve_twisted_derived(delta, step) == h


# --------------------------------------------------------- commutator solver

def test_commutator_bilinear_matches_group_commutator():
    rng = random.Random(31)
    for _ in range(150):
        xa = {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
        xb = {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
        ya = {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
        yb = {rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
        x = d_element(a={k: v for k, v in xa.items() if v},
                      b={k: v for k, v in xb.items() if v})
        y = d_element(a={k: v for k, v in ya.items() if v},
                      b={k: v for k, v in yb.items() if v})
        got = commutator_bilinear(x.a_part, x.b_part, y.a_part, y.b_part)
        assert got == d_comm(x, y).derived


def test_commutator_solver_frozen():
    h = solve_commutator_equation(generator_a(0), d_element(derived={("AB", 0, 0): -1}))
    assert h == generator_b(0)


def test_commutator_solver_trivial_pivot():
    # h1 with no abelianized part commutes with everything mod centre
    h1 = d_element(derived={("AA", 0, 1): 2, ("C", 3): 1})
    assert solve_commutator_equation(h1, d_identity()) == d_identity()
    assert solve_commutator_equation(h1, d_element(derived={("C", 2): 5})) == d_identity()
    assert solve_commutator_equation(h1, d_element(derived={("AA", 0, 1): 1})) is None


def test_commutator_solver_rejects_ab_targets():
    with pytest.raises(ValueError):
        solve_commutator_equation(generator_a(0), generator_a(1))


def random_ab_element(rng, span=2, mag=2) -> DElement:
    a = {rng.randint(-span, span): rng.randint(-mag, mag) for _ in range(rng.randint(0, 2))}
    b = {rng.randint(-span, span): rng.randint(-mag, mag) for _ in range(rng.randint(0, 2))}
    return d_element(a={k: v for k, v in a.items() if v},
                     b={k: v for k, v in b.items() if v})


def test_commutator_solver_constructed_solvable():
    rng = random.Random(32)
    solved = 0
    for _ in range(200):
        h1 = random_ab_element(rng)
        h0 = random_ab_element(rng)
        target = d_comm(h0, h1)
        h = solve_commutator_equation(h1, target)
        assert h is not None
        assert nonc(d_comm(h, h1)) == nonc(target)
        solved += 1
    assert solved == 200


def test_commutator_solver_mirror_side():
    # pivot must come from the b coordinates when the a part is empty
    h1 = generator_b(0)
    target = d_comm(generator_a(0), h1)
    h = solve_commutator_equation(h1, target)
    assert h is not None
    assert nonc(d_comm(h, h1)) == nonc(target)


def test_commutator_solver_one_sided_brute():
    # None must mean no solution among small candidates; success must verify
    rng = random.Random(33)
    candidates = []
    for ea in (-1, 0, 1):
        for eb in (-1, 0, 1):
            for ia in (0, 1):
                for ib in (0, 1):
                    candidates.append(d_element(a={ia: ea} if ea else {},
                                                b={ib: eb} if eb else {}))
    for _ in range(120):
        h1 = random_ab_element(rng, span=1, mag=1)
        target_src = random_ab_element(rng, span=1, mag=1)
        target = d_element(derived=nonc(d_comm(target_src, h1)))
        extra = rng.choice([None, ("AA", 0, 1), ("AB", 0, 0)])
        if extra:
            der = dict(target.derived)
            der[extra] = der.get(extra, 0) + rng.choice([-1, 1])
            target = d_element(derived={k: v for k, v in der.items() if v})
        h = solve_commutator_equation(h1, target)
        if h is None:
            for cand in candidates:
                assert nonc(d_comm(cand, h1)) != nonc(target)
        else:
            assert nonc(d_comm(h, h1)) == nonc(target)


@pytest.mark.parametrize("p", (2, -2, 12, -12, 97, -1000003, 1000000007))
def test_lam_step_matches_gcd_merge(p):
    # the integrality step's one-column systems a lam = c (mod p^2), with
    # a = xi p as the commutator equation builds them, against the
    # gcd-only merge it replaced: the class (r, period) and its member
    # nearest 0. Half the systems are built around a solution lam0.
    rng = random.Random(f"lam {p}")
    p2 = p * p
    seen = set()
    for n in range(60):
        lam0 = rng.randrange(-p2, p2)
        pairs = []
        for _ in range(rng.randint(1, 4)):
            a = rng.choice((0, 1, -1, rng.randrange(-50, 50))) * p
            c = a * lam0 if n % 2 else rng.randrange(p2) * rng.choice((1, p))
            pairs.append((a, c))
        state = (0, 1)
        for a, c in pairs:
            state = merge_congruence(state, a % p2, c % p2, p2)
            if state is None:
                break
        step = conjugacy._lam_step(pairs, p2)
        seen.add(state is not None)
        if state is None:
            assert step is None, pairs
            continue
        lam, period = step
        r, old_period = state
        assert (lam % period, period) == (r, old_period), pairs
        assert lam == (r if abs(r) <= abs(r - period) or period == 1
                       else r - period)
        assert all((a * lam - c) % p2 == 0 for a, c in pairs)
    assert seen == {True, False}


# ------------------------------------------------------------- mod-C stage

def test_conj_mod_c_t_mismatch():
    assert conj_mod_C(g_t(1), g_t(2)) == (None, REASON_T)


def shift_reference(g1: GElement, g2: GElement):
    """conj_mod_C's reason for a pair of t-exponent 0 with one element in
    the derived subgroup, by brute force: the other must lie in it too,
    and some t^k, k in -8..8, must move g1's non-central part onto g2's
    (conjugation by D fixes the derived subgroup, which is central in D)."""
    if any(g.d_part.a_part or g.d_part.b_part for g in (g1, g2)):
        return REASON_AB
    target = nonc(g2.d_part)
    if any(nonc(phi_shift(g1.d_part, k)) == target for k in range(-8, 9)):
        return None
    return REASON_TWISTED


def test_conj_mod_c_central_layer():
    x = GElement(d_element(derived={("AA", 0, 1): 2, ("C", 1): 5}))
    y = GElement(phi_shift(x.d_part, 3))
    w, reason = conj_mod_C(x, y)
    assert reason is None and w == g_t(-3)
    both_central = conj_mod_C(GElement(central_c(1)), GElement(central_c(2)))
    assert both_central == (GElement(), None)
    w, reason = conj_mod_C(GElement(central_c(1)),
                           GElement(d_element(derived={("AA", 0, 1): 1})))
    assert w is None and reason == REASON_TWISTED

    rng = random.Random(32)

    def letters(families, idx_range=(0, 4)):
        return letters_to_g(random_letters(rng, max_len=3, idx_range=idx_range,
                                           families=families))

    # non-central indices 0..4 and central ones 1..6 overlap, so the
    # anchor must skip central keys; shifts stay inside the reference's
    # -8..8
    def derived():
        return GElement(d_comm(letters("ab").d_part, letters("ab").d_part))

    def central():
        return letters("c", (1, 6))

    seen = set()
    for case in range(400):
        g1 = g_mul(derived(), central())
        kind = case % 4
        if kind == 0:  # a t-shifted copy carrying central parts
            g2 = g_mul(GElement(phi_shift(g1.d_part, rng.randint(-4, 4))),
                       central())
        elif kind == 1:  # non-central parts that need not be shifts
            g2 = g_mul(derived(), central())
        elif kind == 2:  # central-only against non-central
            g2, g1 = g1, central()
        else:  # derived-only against an element with an a/b part
            g2 = letters("abc")
            while not (g2.d_part.a_part or g2.d_part.b_part):
                g2 = letters("abc")
        for x, y in ((g1, g2), (g2, g1)):
            w, reason = conj_mod_C(x, y)
            want = shift_reference(x, y)
            assert reason == want, (case, x, y)
            seen.add((kind, want))
            if want is None:
                delta = g_mul(g_conj(x, w), g_inv(y))
                assert delta.t_exp == 0, (case, x, y)
                assert not delta.d_part.a_part and not delta.d_part.b_part
                assert not nonc(delta.d_part), (case, x, y)
    # every kind of pair reaches the outcomes it can have
    assert seen >= {(0, None), (1, None), (1, REASON_TWISTED), (2, None),
                    (2, REASON_TWISTED), (3, REASON_AB)}


def test_conj_mod_c_untwisted_ab_mismatch():
    g = GElement(generator_a(0))
    assert conj_mod_C(g, GElement(d_mul(generator_a(0), generator_a(0))))[1] == REASON_AB
    assert conj_mod_C(g, GElement(central_c(1)))[1] == REASON_AB
    assert conj_mod_C(g, GElement(generator_b(0)))[1] == REASON_AB


def test_conj_mod_c_untwisted_shift_invariance():
    # same element relocated along the index line is conjugate via a power of t
    x = parse_word("a[0] b[2]^3")
    y = GElement(phi_shift(x.d_part, -5))
    w, reason = conj_mod_C(x, y)
    assert reason is None
    delta = g_mul(g_conj(x, w), g_inv(y))
    assert delta.t_exp == 0
    assert not delta.d_part.a_part and not delta.d_part.b_part
    assert not nonc(delta.d_part)


def test_conj_mod_c_twisted_unsolvable():
    assert conj_mod_C(parse_word("t"), parse_word("t a[0]")) == (None, REASON_TWISTED)


def test_conj_mod_c_twisted_constructed():
    rng = random.Random(41)
    for _ in range(60):
        letters = random_letters(rng, max_len=4, idx_range=(-2, 2), exp_range=(-2, 2))
        x = g_mul(letters_to_g(letters), g_t(rng.choice([-2, -1, 1, 2, 3])))
        w0 = letters_to_g(random_letters(rng, max_len=4, idx_range=(-2, 2),
                                         exp_range=(-2, 2)))
        y = g_conj(x, w0)
        w, reason = conj_mod_C(x, y)
        assert reason is None
        delta = g_mul(g_conj(x, w), g_inv(y))
        assert delta.t_exp == 0
        assert not delta.d_part.a_part and not delta.d_part.b_part
        assert not nonc(delta.d_part)


# ------------------------------------------------------------- full decision

def test_central_defect_is_the_translate():
    # g2 = w^-1 (g1 c) w for a central c: whichever conjugator modulo the
    # centre the decision finds, the defect is c^-1 exactly, in D and
    # before any relator, since it does not depend on the conjugator
    rng = random.Random(5)
    for _ in range(150):
        g1 = g_mul(letters_to_g(random_letters(rng, max_len=5,
                                               families="ab")),
                   g_t(rng.choice((0, 0, 1, -2, 3))))
        w = letters_to_g(random_letters(rng, max_len=6))
        c = d_element(derived={("C", rng.randint(1, 6)): rng.randint(-4, 4)
                               for _ in range(rng.randint(0, 2))})
        g2 = g_conj(g_mul(g1, GElement(c)), w)
        found, delta = central_defect(g1, g2)
        assert delta == {key: -v for key, v in c.derived.items()}, (g1, c)
        assert g_conj(g1, found) == \
            g_mul(g2, GElement(d_element(derived=delta)))
    assert central_defect(parse_word("t"), parse_word("t t")) == \
        (None, REASON_T)


def test_decide_constructed_conjugates(d_table):
    rng = random.Random(42)
    for _ in range(60):
        x = letters_to_g(random_letters(rng, max_len=5))
        w0 = letters_to_g(random_letters(rng, max_len=5))
        y = g_conj(x, w0)
        cert = conjugacy_decide(x, y, d_table)
        assert cert.is_conjugate
        assert g_equal(g_conj(x, cert.witness), y, d_table)


def test_decide_frozen_obstruction(d_table):
    x = parse_word("a[0]")
    y = parse_word("a[0] c[1]")
    cert = conjugacy_decide(x, y, d_table)
    assert cert.verdict == "non-conjugate"
    assert cert.reason == REASON_CENTRAL
    assert cert.obstruction == (1, -1)
    assert cert.reason_text() == "central-obstruction(1, -1)"


def test_decide_relator_killed_discrepancy(d_table):
    # c_1^2 dies under d(0) = 2, so the pair is genuinely conjugate
    cert = conjugacy_decide(parse_word("a[0]"), parse_word("a[0] c[1]^2"), d_table)
    assert cert.is_conjugate
    assert g_equal(g_conj(parse_word("a[0]"), cert.witness),
                   parse_word("a[0] c[1]^2"), d_table)


def test_decide_depends_on_d():
    x = parse_word("a[0]")
    y = parse_word("a[0] c[2]^31")
    table = constant_prime(31)
    # under d(1) = 31 the discrepancy c_2^31 is a relator
    assert conjugacy_decide(x, y, table).is_conjugate
    small = constant_prime(2)
    cert = conjugacy_decide(x, y, small)
    assert cert.verdict == "non-conjugate"
    assert cert.obstruction == (2, -31)


def test_decide_non_power_of_two_never_dies(d_table):
    cert = conjugacy_decide(parse_word("a[0]"), parse_word("a[0] c[3]^1000"), d_table)
    assert cert.verdict == "non-conjugate"
    assert cert.obstruction == (3, -1000)


def test_huge_exponent_decides_fast(d_table):
    # the commutator equation's integrality modulus is p^2 for the word's
    # own exponent p, a prime here: fixing lam must cost gcds in the
    # exponent's digits, never a factorisation of p. A slow decision is
    # cut by an alarm so that it fails instead of stalling the suite.
    def stalled(signum, frame):
        raise TimeoutError("decision stalled on a large exponent")

    previous = signal.signal(signal.SIGALRM, stalled)
    try:
        for e in (1000003, 1000000007):
            x = parse_word(f"a[0]^{e} b[1]")
            y = parse_word(f"A[2] a[0]^{e} b[1] a[2]")
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            cert = conjugacy_decide(x, y, d_table)
            signal.setitimer(signal.ITIMER_REAL, 0)
            assert time.perf_counter() - t0 < 0.5
            assert cert.is_conjugate
            assert g_equal(g_conj(x, cert.witness), y, d_table)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_decide_reason_paths(d_table):
    assert conjugacy_decide(g_t(1), g_t(2), d_table).reason == REASON_T
    assert conjugacy_decide(parse_word("a[0]"), parse_word("a[0]^2"),
                            d_table).reason == REASON_AB
    assert conjugacy_decide(parse_word("t"), parse_word("t a[0]"),
                            d_table).reason == REASON_TWISTED
    ident = conjugacy_decide(parse_word("t"), parse_word("t"), d_table)
    assert ident.is_conjugate and ident.reason is None


def banded_element(rng, n, t_exp):
    g = parse_word(letters_to_word(banded_letters(rng, n)))
    return g_mul(g, g_t(t_exp - g.t_exp))


@pytest.mark.parametrize("d_spec", D_SPECS[:3])
def test_decide_matches_product_reference(d_spec):
    # decide compares g_conj(g1, w) with g2 where the reference multiplies
    # out the residue; verdict, reason, obstruction and witness agree on
    # conjugates, central translates (relators or not) and abelian and
    # derived perturbations, t-balanced and twisted, at 16-256 letters
    d = load_d(d_spec)
    rng = random.Random(f"products {d_spec}")
    steps = {"conjugate": lambda: "",
             "translate-trivial": lambda: (
                 f"c[{2 ** (j := rng.randrange(3))}]^"
                 f"{d.value(j) * rng.choice((1, -1, 2))}"),
             "translate": lambda: (f"c[{rng.choice((1, 2, 3, 4, 6))}]^"
                                   f"{rng.choice((1, -1, 2, 5))}"),
             "abelian": lambda: rng.choice(("a", "B", "a[2]", "b[-3]")),
             "derived": lambda: "a[0] b[1] A[0] B[1]"}
    seen = set()
    for n in (16, 64, 256):
        for t_exp in (0, 0, 1, -2, 3):
            for kind, step in steps.items():
                g1 = banded_element(rng, n, t_exp)
                w = banded_element(rng, n // 4, rng.choice((-1, 0, 1)))
                g2 = g_conj(g_mul(g1, parse_word(step())), w)
                got = conjugacy_decide(g1, g2, d)
                want = decide_by_products(g1, g2, d)
                assert (got.verdict, got.reason, got.obstruction) == \
                    (want.verdict, want.reason, want.obstruction), (n, kind)
                assert (got.witness is None) == (want.witness is None)
                if got.witness is not None:
                    assert spell_element(got.witness) == \
                        spell_element(want.witness)
                seen.add(got.reason)
    assert {None, REASON_CENTRAL, REASON_AB, REASON_TWISTED} <= seen, seen


def test_wrong_witness_leaves_non_central_residue(d_table, monkeypatch):
    # a mod-centre witness that is wrong must trip the self-check, never
    # become a verdict: abelian and non-central derived residues, and a
    # t-exponent mismatch
    cases = [(parse_word("a"), parse_word("a"), g_t(1)),
             (parse_word("a b"), parse_word("a b a[1] b[2] A[1] B[2]"),
              GElement()),
             (parse_word("t a"), parse_word("t a a[1] a[3] A[1] A[3]"),
              GElement()),
             (parse_word("t"), parse_word("t^2"), GElement())]
    for g1, g2, w in cases:
        monkeypatch.setattr(conjugacy, "conj_mod_C",
                            lambda *args, w=w: (w, None))
        with pytest.raises(AssertionError, match="non-central residue"):
            conjugacy_decide(g1, g2, d_table)


def test_certificate_shape():
    cert = ConjugacyCertificate("conjugate", witness=g_t(2))
    assert cert.is_conjugate and cert.reason_text() is None
