"""End to end acceptance battery: one test per shipping criterion, with
the runtime and tolerance budgets pinned in the assertions."""

import random
import statistics
import time
from itertools import product
from pathlib import Path

from conftest import (
    box_solutions,
    canonical_key,
    conj_ball,
    d_comm,
    from_quotient_spec,
    letters_to_g,
    random_letters,
)

from conjlab.conjugacy import (
    IntegerLinearSystem,
    conjugacy_decide,
    hnf_solve,
    solve_twisted_abelian,
)
from conjlab.extension import GElement, g_conj, g_equal, g_inv, g_mul, g_t
from conjlab.machine import parse_program
from conjlab.nilpotent import (
    central_c,
    d_element,
    d_mul,
    generator_a,
    generator_b,
)
from conjlab.quotients import make_spec
from conjlab.search import SearchBudget, mckinsey_search
from conjlab.sepfunc import fast_majorant, from_table, is_prime
from conjlab.tables import FiniteGroupTable, from_permutations, hom_check

D_TABLE = from_table([2, 31, 127, 1021, 8191])
D_VALUES = [2, 31, 127, 1021, 8191]

PROGRAMS = Path(__file__).parent.parent / "scripts" / "programs"


def test_criterion_1_relation_suite():
    t0 = time.perf_counter()
    gens = [generator_a(i) for i in range(-4, 5)] \
        + [generator_b(i) for i in range(-4, 5)]
    for x in gens:
        for y in gens:
            k = d_comm(x, y)
            for z in gens:
                assert d_comm(k, z) == d_element()
    for i in range(-4, 5):
        for j in range(-4, 5):
            lhs = d_mul(d_comm(generator_a(i), generator_b(j)),
                        d_comm(generator_b(i), generator_a(j)))
            assert lhs == central_c(j - i)
    for i in range(-4, 5):
        assert g_conj(GElement(generator_a(i)), g_t(-1)) \
            == GElement(generator_a(i + 1))
        assert g_conj(GElement(generator_b(i)), g_t(-1)) \
            == GElement(generator_b(i + 1))
    rng = random.Random(11)
    for _ in range(1000):
        g1, g2, g3 = (letters_to_g(random_letters(rng, max_len=5))
                      for _ in range(3))
        assert g_mul(g_mul(g1, g2), g3) == g_mul(g1, g_mul(g2, g3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1 pass ({elapsed:.1f}s)")


def test_criterion_2_commutators_in_centre_are_trivial():
    t0 = time.perf_counter()
    rng = random.Random(13)

    def in_central_subgroup(g):
        return (g.t_exp == 0 and not g.d_part.a_part and not g.d_part.b_part
                and all(key[0] == "C" for key in g.d_part.derived))

    identity = GElement()
    for trial in range(1000):
        g1 = letters_to_g(random_letters(rng, max_len=8))
        if trial % 3 == 2:
            # bias towards commuting pairs so the forward direction of
            # the equivalence is exercised, not just vacuously true
            g2 = g_mul(g_mul(g1, g1), GElement(central_c(rng.randrange(1, 5))))
        else:
            g2 = letters_to_g(random_letters(rng, max_len=8))
        k = g_mul(g_mul(g_inv(g1), g_inv(g2)), g_mul(g1, g2))
        assert in_central_subgroup(k) == g_equal(k, identity, D_TABLE)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 2 pass ({elapsed:.1f}s)")


def test_criterion_3_conjugacy_soundness_completeness():
    t0 = time.perf_counter()
    rng = random.Random(17)
    for _ in range(500):
        g1 = letters_to_g(random_letters(rng, max_len=10))
        w = letters_to_g(random_letters(rng, max_len=10))
        g2 = g_conj(g1, w)
        cert = conjugacy_decide(g1, g2, D_TABLE)
        assert cert.is_conjugate
        assert g_equal(g_conj(g1, cert.witness), g2, D_TABLE)

    key = lambda g: canonical_key(g, D_TABLE)
    pairs = []
    for _ in range(12):
        g1 = letters_to_g(random_letters(rng, max_len=4,
                                         idx_range=(-2, 2), exp_range=(-2, 2)))
        w = letters_to_g(random_letters(rng, max_len=3,
                                        idx_range=(0, 0), exp_range=(-1, 1)))
        pairs.append((g1, g_conj(g1, w)))
    for _ in range(12):
        g1 = letters_to_g(random_letters(rng, max_len=4,
                                         idx_range=(-2, 2), exp_range=(-2, 2)))
        g2 = g_mul(g1, GElement(central_c(rng.choice((1, 2)))))
        pairs.append((g1, g2))
    for g1, g2 in pairs:
        ball = conj_ball(g1, 6, key)
        brute = key(g2) in ball
        cert = conjugacy_decide(g1, g2, D_TABLE)
        if brute:
            assert cert.is_conjugate
        if not cert.is_conjugate:
            assert not brute
        else:
            assert g_equal(g_conj(g1, cert.witness), g2, D_TABLE)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 3 pass ({elapsed:.1f}s)")


def test_criterion_4_central_obstruction_end_to_end():
    pairs = []
    for i in range(5):
        g1 = GElement(generator_a(0))
        g2 = GElement(d_mul(generator_a(0), central_c(2 ** i)))
        pairs.append((g1, g2))
        t0 = time.perf_counter()
        cert = conjugacy_decide(g1, g2, D_TABLE)
        elapsed = time.perf_counter() - t0
        assert not cert.is_conjugate
        assert elapsed < 1.0
        out = mckinsey_search(g1, g2, D_TABLE,
                              SearchBudget(max_conj_len=0,
                                           max_order=D_VALUES[i] - 1))
        assert out.verdict == "budget-exhausted"
    for i in range(3):
        g1, g2 = pairs[i]
        out = mckinsey_search(g1, g2, D_TABLE, SearchBudget(max_conj_len=0))
        assert out.verdict == "non-conjugate"
        assert out.witness_order >= D_VALUES[i]
    print("criterion 4 pass")


def test_criterion_5_decision_time_stays_polynomial():
    t0 = time.perf_counter()
    rng = random.Random(19)
    families = "abct"

    def exact_length_letters(length):
        out = []
        for _ in range(length):
            kind = rng.choice(families)
            idx = 0 if kind == "t" else rng.randrange(-6, 7)
            if kind == "c" and idx == 0:
                idx = 1
            out.append((kind, idx, rng.choice((-1, 1))))
        return out

    medians = []
    for length in (16, 32, 64, 128, 256):
        g1 = letters_to_g(exact_length_letters(length))
        w = letters_to_g(exact_length_letters(length))
        g2 = g_conj(g1, w)
        runs = []
        for _ in range(3):
            t1 = time.perf_counter()
            cert = conjugacy_decide(g1, g2, D_TABLE)
            runs.append(time.perf_counter() - t1)
            assert cert.is_conjugate
        medians.append(max(statistics.median(runs), 1e-4))
    for prev, cur in zip(medians, medians[1:]):
        assert cur / prev <= 40.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 5 pass ({elapsed:.1f}s, medians {medians})")


def test_criterion_6_majorant_contracts():
    for name in ("const1.rm", "linear.rm", "power2.rm"):
        prog = parse_program((PROGRAMS / name).read_text())
        d = fast_majorant(prog)
        values = [d.value(n) for n in range(21)]
        outputs = [d.program_output(n) for n in range(21)]
        assert all(is_prime(v) for v in values)
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        assert all(v >= o for v, o in zip(values, outputs))
        for n, m in ((0, 2), (3, 10), (7, 50), (12, 200)):
            probe = fast_majorant(prog)
            _, steps = probe.at_least_with_steps(n, m)
            assert steps <= 64 * m * m
        for n in (0, 2, 5, 9):
            probe = fast_majorant(prog)
            v, steps = probe.value_with_steps(n)
            assert steps <= 64 * v * v
    print("criterion 6 pass")


def test_criterion_7_hom_check_goldens():
    z2 = from_permutations((0, 1), (0, 1), (1, 0))
    z2.mult_count = 0
    assert hom_check(z2, D_TABLE)
    assert z2.mult_count <= 64 * z2.order ** 3
    s3 = from_permutations((1, 0, 2), (2, 1, 0), (0, 1, 2))
    assert not hom_check(s3, D_TABLE)

    rng = random.Random(23)

    def relabeled(Q):
        perm = list(range(Q.order))
        rng.shuffle(perm)
        inv = [0] * Q.order
        for i, p in enumerate(perm):
            inv[p] = i
        table = [[perm[Q.table[inv[x]][inv[y]]] for y in range(Q.order)]
                 for x in range(Q.order)]
        return FiniteGroupTable(table, perm[Q.alpha], perm[Q.beta],
                                perm[Q.tau])

    def inner_twist(Q):
        g = rng.randrange(Q.order)
        gi = Q.inv_of(g)
        marks = [Q.table[Q.table[gi][x]][g] for x in (Q.alpha, Q.beta, Q.tau)]
        return FiniteGroupTable(Q.table, *marks)

    tables = []
    for m in (2, 3, 4, 5, 7):
        Q = from_quotient_spec(make_spec(1, m, D_TABLE))
        tables += [relabeled(Q), relabeled(Q), inner_twist(Q), inner_twist(Q)]
    assert len(tables) == 20
    for Q in tables:
        Q.mult_count = 0
        assert hom_check(Q, D_TABLE)
        assert Q.mult_count <= 64 * Q.order ** 3
    print("criterion 7 pass")


def test_criterion_8_solver_oracle_equivalence():
    rng = random.Random(29)
    disagreements = 0

    for _ in range(200):
        n_rows = rng.randrange(1, 4)
        n_vars = rng.randrange(1, 4)
        rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(n_vars))
                     for _ in range(n_rows))
        rhs = tuple(rng.randrange(-6, 7) for _ in range(n_rows))
        sol = hnf_solve(IntegerLinearSystem(rows, rhs))
        if sol is not None:
            if any(sum(r * x for r, x in zip(row, sol)) != b
                   for row, b in zip(rows, rhs)):
                disagreements += 1
        brute = box_solutions(rows, rhs, 6)
        if brute and sol is None:
            disagreements += 1

    def brute_chain(delta):
        # h[p] - h[p-1] = delta[p] with h finitely supported; any solution
        # is the prefix-sum profile, so a window enumeration is complete
        if not delta:
            return True
        lo, hi = min(delta), max(delta)
        bound = sum(abs(v) for v in delta.values())
        positions = range(lo, hi)
        for values in product(range(-bound, bound + 1),
                              repeat=len(positions)):
            h = dict(zip(positions, values))
            if all(h.get(p, 0) - h.get(p - 1, 0) == delta.get(p, 0)
                   for p in range(lo - 1, hi + 2)):
                return True
        return False

    def check(h, delta):
        keys = set(h) | set(delta)
        if not keys:
            return True
        lo, hi = min(keys), max(keys)
        return all(h.get(p, 0) - h.get(p - 1, 0) == delta.get(p, 0)
                   for p in range(lo - 1, hi + 2))

    for _ in range(200):
        base = rng.randrange(-2, 2)
        delta_a = {base + off: rng.randrange(-2, 3) for off in range(3)}
        delta_a = {p: v for p, v in delta_a.items() if v}
        delta_b = {base + off: rng.randrange(-2, 3) for off in range(2)}
        delta_b = {p: v for p, v in delta_b.items() if v}
        sol = solve_twisted_abelian(delta_a, delta_b, 1)
        brute = brute_chain(delta_a) and brute_chain(delta_b)
        if (sol is not None) != brute:
            disagreements += 1
        if sol is not None:
            ha, hb = sol
            if not (check(ha, delta_a) and check(hb, delta_b)):
                disagreements += 1

    assert disagreements == 0
    print("criterion 8 pass")
