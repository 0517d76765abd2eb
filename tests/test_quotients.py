"""Index-folded finite quotients: legitimacy of central moduli, images,
orders, and agreement between exhaustive and algebraic conjugacy."""

import math
import random
from copy import deepcopy
from itertools import product

import pytest

from conjlab.conjugacy import solve_congruences
from conjlab.extension import GElement, g_conj, g_inv, g_mul, g_t, \
    parse_word
from conjlab.nilpotent import DElement, central_c, d_element
from conjlab.quotients import (
    FoldedQuotient,
    _key_cycle,
    c_fold,
    finite_conjugate,
    make_spec,
    quotient_conjugate_exact,
    quotient_is_well_defined,
    relator_folds,
    required_c_modulus,
)
from conjlab.search import SearchBudget, spec_stream
from conjlab.sepfunc import constant_prime, from_table, nth_prime

from conftest import D_SPECS, c_survives, folded_power, from_parts, \
    full_system_conjugate, identity, letters_to_g, load_d, log2_order, \
    orbit_closure_search, quotient_conjugator, random_letters

D_TABLE = from_table([2, 31, 127, 1021, 8191])


# ------------------------------------------------------------ index folding

# moduli above every exponent used below, so the images show the index
# folding alone; at k = I/2 the flip c_k = c_{-k} = c_k^{-1} forces 2-torsion
FOLD2 = FoldedQuotient(2, 64, (2,))
FOLD4 = FoldedQuotient(4, 64, (64, 2))


def frozen(el):
    """A canonical hashable key of a folded element."""
    return tuple(frozenset(part.items()) for part in el[:3]) + (el[3],)


def test_project_mod_i_frozen():
    assert FOLD4.image(g_t(7)) == FOLD4.image(g_t(-1)) == \
        identity()[:3] + (3,)

    # c_3 folds onto c_1^{-1}, c_2 stays, c_4 folds onto c_0 = 1
    assert FOLD4.image(parse_word("c[3]"))[2] == {("C", 1): 63}
    assert FOLD4.image(parse_word("c[2]"))[2] == {("C", 2): 1}
    assert FOLD4.image(parse_word("c[4]")) == identity()

    assert FOLD2.image(parse_word("c[1]^2")) == identity()
    assert FOLD2.image(parse_word("c[1]^3"))[2] == {("C", 1): 1}
    assert FOLD4.image(parse_word("c[1]^9"))[2] == {("C", 1): 9}


def test_project_mod_i_reorders_generators():
    # a_1 a_2 folds to indices 1, 0; restoring ascending order inside the
    # image costs a commutator, so plain coordinate folding would be wrong
    g = FOLD2.image(parse_word("a[1] a[2]"))
    assert g[0] == {0: 1, 1: 1}
    assert g[2] == {("AA", 0, 1): 63}


def test_fold_respects_multiplication():
    rng = random.Random(51)
    for I in (1, 2, 3, 4):
        fq = make_spec(I, 64, constant_prime(2))
        for _ in range(40):
            x = letters_to_g(random_letters(rng, max_len=4))
            y = letters_to_g(random_letters(rng, max_len=4))
            assert fq.image(g_mul(x, y)) == fq.mul(fq.image(x), fq.image(y))


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_rotate_is_conjugation_by_t(d_spec):
    # rotate(x, s) is t^s x t^-s: the image of the conjugate of g by t^-s
    d = load_d(d_spec)
    rng = random.Random(f"rotate {d_spec}")
    for I in (1, 2, 3, 4, 8, 12):
        fq = make_spec(I, 930, d)
        for _ in range(4):
            g = letters_to_g(random_letters(rng, max_len=6, idx_range=(-9, 9)))
            x = fq.image(g)
            for s in range(-I, 2 * I + 1):
                assert fq.rotate(x, s) == fq.image(g_conj(g, g_t(-s))), \
                    (I, s, g)


def test_power_matches_repeated_product():
    rng = random.Random(55)
    for fq in (make_spec(2, 2, D_TABLE), make_spec(3, 3, constant_prime(3)),
               FoldedQuotient(4, 64, (64, 2)), make_spec(8, 31, D_TABLE)):
        I, m = fq.I, fq.m
        for _ in range(6):
            x = fq.image(letters_to_g(random_letters(rng, max_len=6,
                                                     families="abc")))
            x = fq.mul(x, from_parts(fq, derived={
                ("AB", 0, I - 1): rng.randrange(1, m),
                ("C", rng.randint(1, 2 * I)): rng.randrange(1, m)}))
            assert x[2] and x[3] == 0
            acc = x
            for n in range(1, 13):
                assert folded_power(fq, x, n) == acc, (fq, x, n)
                acc = fq.mul(acc, x)


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_orbit_cycle_walk_matches_search(d_spec):
    # the walk under +s reaches what the search over +-s reaches
    d = load_d(d_spec)
    for I in (1, 2, 3, 4, 6, 8, 12):
        for m in (2, 6, 31):
            fq = make_spec(I, m, d)
            keys = [("AA", i, j) for i in range(I) for j in range(i + 1, I)]
            keys += [("BB", i, j) for _, i, j in keys]
            keys += [("AB", i, j) for i in range(I) for j in range(i, I)]
            for s in range(I):
                for key in keys:
                    cycle = list(_key_cycle(fq, key, s))
                    walked = ({k for k, _, _ in cycle},
                              {w[0] for _, _, w in cycle if w})
                    assert walked == orbit_closure_search(fq, key, s), \
                        (I, m, s, key)
                    # each step is the rotation of a unit coordinate
                    for (k, sign, wrap), (nk, _, _) in zip(
                            cycle, cycle[1:] + cycle[:1]):
                        want = {nk: sign % m}
                        if wrap:
                            ck, v = wrap
                            want[ck] = v % fq.c_moduli[ck[1] - 1]
                        assert fq.rotate(({}, {}, {k: 1}, 0), s)[2] == want


def test_two_torsion_cycles_wrap_with_one_parity():
    # every cycle of AB(i, i + h), h = I/2, has length h/gcd(s, h) and
    # wraps onto c_h a number of times of parity L s/h, whatever i; so
    # one such cycle frees the 2-torsion row as much as all of them
    for I in range(2, 65, 2):
        h = I // 2
        fq = FoldedQuotient(I, 2, (2,) * h)
        for s in range(1, I):
            for i in range(h):
                cycle = list(_key_cycle(fq, ("AB", i, i + h), s))
                L = len(cycle)
                assert L == h // math.gcd(s, h), (I, s, i)
                wraps = sum(1 for _, _, w in cycle if w and w[0] == ("C", h))
                assert wraps % 2 == L * s // h % 2, (I, s, i)


# --------------------------------------------------------- central moduli

def test_required_c_modulus_frozen_table():
    assert required_c_modulus(2, 1, 2, D_TABLE) == 2
    assert required_c_modulus(4, 1, 2, D_TABLE) == 2
    assert required_c_modulus(4, 2, 2, D_TABLE) == 1
    assert required_c_modulus(8, 1, 31, D_TABLE) == 1
    assert required_c_modulus(8, 2, 31, D_TABLE) == 31
    assert required_c_modulus(8, 3, 31, D_TABLE) == 31
    assert required_c_modulus(8, 4, 31, D_TABLE) == 1
    with pytest.raises(ValueError):
        required_c_modulus(4, 3, 2, D_TABLE)
    with pytest.raises(ValueError):
        required_c_modulus(4, 0, 2, D_TABLE)


def test_required_c_modulus_metadata_dependence():
    # the cycle of 2^j mod 3 hits both residues; a constant d keeps its
    # value, a strictly increasing d forces the modulus down to one
    assert required_c_modulus(3, 1, 2, constant_prime(2)) == 2
    assert required_c_modulus(3, 1, 2, nth_prime()) == 1
    assert required_c_modulus(3, 1, 2, D_TABLE) == 1
    assert required_c_modulus(2, 1, 6, nth_prime()) == 2


def _relator_c_modulus(I, k, m, d):
    """M(k) straight from the relators c_{2^j}^{d(j)}: the gcd of m, of 2
    at k = I/2, and of every d(j) with 2^j = +-k mod I. An eventually
    constant d reaches every residue past its constant start within one
    pre-period and one cycle; any other d is unbounded on the cycle."""
    first_seen: dict = {}
    j = 0
    while pow(2, j, I) not in first_seen:
        first_seen[pow(2, j, I)] = j
        j += 1
    pre = first_seen[pow(2, j, I)]
    period = j - pre
    targets = {k % I, -k % I}
    g = m
    if 2 * k == I:
        g = math.gcd(g, 2)
    if d.eventual_constant is not None:
        start = d.eventual_constant[0]
        for j in range(start + pre + period):
            if pow(2, j, I) in targets:
                g = math.gcd(g, d.value(j))
        return g
    for j in range(pre):
        if pow(2, j, I) in targets:
            g = math.gcd(g, d.value(j))
    if any(pow(2, j, I) in targets for j in range(pre, pre + period)):
        g = 1
    return g


class _Unqueried:
    """A d whose queries raise: only its metadata may be read."""

    def __init__(self, eventual_constant):
        self.eventual_constant = eventual_constant

    def value(self, n):
        raise AssertionError("value queried")

    def at_least(self, n, m):
        raise AssertionError("at_least queried")


def test_relator_folds_reads_metadata_only():
    # I = 6: 2^0 = 1 is pre-periodic; the cycle 2, 4 folds onto k = 2,
    # and k = 3 is reached by no relator
    assert list(relator_folds(6, _Unqueried((3, 7)))) == \
        [(1, (0,), 0), (2, (1, 2), 7)]
    assert list(relator_folds(6, _Unqueried(None))) == \
        [(1, (0,), 0), (2, (), 1)]
    # I = 8: 1, 2, 4 are pre-periodic and the cycle is 2^3 = 0 mod 8
    assert list(relator_folds(8, _Unqueried(None))) == \
        [(1, (0,), 0), (2, (1,), 0), (4, (2,), 0)]
    assert list(relator_folds(1, _Unqueried(None))) == []
    for I in range(1, 65):
        for meta in (None, (0, 2), (5, 31)):
            assert [k for k, _, _ in relator_folds(I, _Unqueried(meta))] == \
                sorted({min(pow(2, j, I), -pow(2, j, I) % I)
                        for j in range(2 * I)} - {0})


def test_c_moduli_match_relator_oracle():
    i_values = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 16, 24, 32, 48, 64]
    m_values = [2, 3, 4, 5, 8, 9, 25, 27, 31, 32, 64, 127, 1021, 2048]
    for d_spec in D_SPECS + ["program:scripts/programs/power2.rm", "constant:2"]:
        d = load_d(d_spec)
        for I in i_values:
            for m in m_values:
                expected = tuple(_relator_c_modulus(I, k, m, d)
                                 for k in range(1, I // 2 + 1))
                assert make_spec(I, m, d).c_moduli == expected, (d_spec, I, m)


def test_make_spec_orders():
    assert make_spec(1, 2, D_TABLE).order() == 8
    assert make_spec(2, 2, D_TABLE).order() == 2048
    assert make_spec(8, 31, D_TABLE).order() == 8 * 31 ** 110
    assert make_spec(16, 127, D_TABLE).order() == 16 * 127 ** 413


def test_log2_order_matches_order():
    for spec in (make_spec(1, 2, D_TABLE), make_spec(2, 2, D_TABLE),
                 make_spec(3, 5, nth_prime()), make_spec(8, 31, D_TABLE)):
        assert math.isclose(log2_order(spec), math.log2(spec.order()),
                            rel_tol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        FoldedQuotient(0, 2, ())
    with pytest.raises(ValueError):
        FoldedQuotient(2, 1, (2,))
    with pytest.raises(ValueError):
        FoldedQuotient(4, 2, (2,))  # M(2) missing
    with pytest.raises(ValueError):
        FoldedQuotient(2, 2, (0,))
    # a modulus that does not divide m: c_1 and c_{-1} would fold apart
    with pytest.raises(ValueError):
        FoldedQuotient(2, 2, (3,))
    with pytest.raises(ValueError):
        FoldedQuotient(3, 4, (3,))
    # at k = I/2 the flip c_k = c_k^{-1} allows 2-torsion at most
    with pytest.raises(ValueError):
        FoldedQuotient(2, 4, (4,))
    with pytest.raises(ValueError):
        FoldedQuotient(4, 9, (9, 3))
    # a dict of moduli is refused: iterating it would read its keys, here
    # a modulus of 1, and pass the checks above
    with pytest.raises(TypeError):
        FoldedQuotient(2, 2, {1: 3})
    # only the central indices of modulus > 1 survive in an image
    fq = FoldedQuotient(3, 2, (2,))
    assert fq.image(parse_word("c[1]"))[2] == {("C", 1): 1}
    assert fq.image_is_trivial(parse_word("c[1]^2"))
    fq = FoldedQuotient(4, 3, (3, 1))
    assert fq.image(parse_word("c[2]")) == identity()
    assert fq.image(parse_word("c[1]"))[2] == {("C", 1): 1}
    fq = FoldedQuotient(2, 2, (2,))
    assert fq.image(parse_word("c[1]")) == fq.image(parse_word("c[-1]"))


def test_well_definedness_guards_images():
    spec = FoldedQuotient(3, 2, (2,))
    assert quotient_is_well_defined(spec, constant_prime(2))
    assert not quotient_is_well_defined(spec, D_TABLE)
    for I in (1, 2, 3, 4, 6, 8):
        assert quotient_is_well_defined(make_spec(I, 6, D_TABLE), D_TABLE)


@pytest.mark.parametrize("fq", [make_spec(2, 2, D_TABLE),
                                make_spec(3, 3, constant_prime(3)),
                                make_spec(8, 31, D_TABLE)],
                         ids=["Q(2,2)", "Q(3,3)", "Q(8,31)"])
def test_operations_leave_arguments_unchanged(fq):
    # elements are shared values: no operation may write into the dicts
    # of an argument, even where it returns a part unchanged
    rng = random.Random(fq.name())
    for _ in range(6):
        x = fq.image(letters_to_g(random_letters(rng, max_len=5)))
        g = fq.image(letters_to_g(random_letters(rng, max_len=5)))
        y = fq.conj(x, g)
        before = deepcopy((x, g, y))
        fq.mul(x, g)
        fq.inv(x)
        fq.conj(x, g)
        for shift in (0, 1, -1, fq.I):
            fq.rotate(x, shift)
        assert quotient_conjugate_exact(x, y, fq)
        quotient_conjugate_exact(x, g, fq)
        assert (x, g, y) == before
    word = letters_to_g(random_letters(rng, max_len=6))
    before = deepcopy(word)
    fq.image(word)
    fq.image_is_trivial(word)
    assert word == before


# ------------------------------------------------------ element invariant

def _assert_reduced(fq, el):
    """el holds only nonzero, reduced coordinates, its central keys are
    ("C", k) with 1 <= k <= I//2 and a modulus above 1, and its
    non-central keys are folded basis keys."""
    a, b, der, t = el
    assert 0 <= t < fq.I
    for part in (a, b):
        assert all(0 <= i < fq.I and 0 < v < fq.m for i, v in part.items())
    for key, v in der.items():
        if key[0] == "C":
            assert len(key) == 2 and 1 <= key[1] <= fq.I // 2, key
            mod = fq.c_moduli[key[1] - 1]
            assert mod > 1, key
            assert 0 < v < mod, (key, v)
        else:
            kind, i, j = key
            assert kind in ("AA", "AB", "BB") and 0 <= i <= j < fq.I, key
            assert i < j or kind == "AB", key
            assert 0 < v < fq.m, (key, v)


@pytest.mark.parametrize("fq", [make_spec(2, 2, D_TABLE),
                                make_spec(3, 3, constant_prime(3)),
                                FoldedQuotient(4, 64, (64, 2)),
                                make_spec(8, 31, D_TABLE)],
                         ids=["Q(2,2)", "Q(3,3)", "Q(4,64)", "Q(8,31)"])
def test_results_hold_only_reduced_coordinates(fq):
    I, m = fq.I, fq.m
    rng = random.Random(f"invariant {fq.name()}")
    for _ in range(25):
        gx = letters_to_g(random_letters(rng, max_len=6, idx_range=(-9, 9)))
        gy = letters_to_g(random_letters(rng, max_len=6, idx_range=(-9, 9)))
        x, y = fq.image(gx), fq.image(gy)
        pairs = [(i, j) for i in range(I) for j in range(i, I)]
        derived = {("AB", i, j): rng.randint(-2 * m, 2 * m)
                   for i, j in rng.sample(pairs, min(3, len(pairs)))}
        derived.update({("C", k): rng.randint(-2 * m, 2 * m)
                        for k in rng.sample(range(-2 * I, 2 * I + 1), 4)})
        i, j = sorted(rng.sample(range(I), 2))
        derived[rng.choice(("AA", "BB")), i, j] = rng.randint(-m, m)
        made = from_parts(
            fq, a={p: rng.randint(-2 * m, 2 * m) for p in range(I)},
            b={p: rng.randint(-2 * m, 2 * m) for p in range(I)},
            derived=derived, t=rng.randint(-2 * I, 2 * I))
        results = [x, y, fq.mul(x, y), fq.inv(x), fq.conj(x, y), made,
                   fq.mul(made, x), fq.inv(made), fq.conj(made, y)]
        results += [fq.rotate(z, shift) for z in (x, made)
                    for shift in (1, -1, I + 1, rng.randint(-3 * I, 3 * I))]
        for el in results:
            _assert_reduced(fq, el)


# ----------------------------------------------------------------- images

def test_image_is_homomorphism():
    rng = random.Random(52)
    for fq in (make_spec(2, 2, D_TABLE), make_spec(3, 3, constant_prime(3))):
        for _ in range(60):
            x = letters_to_g(random_letters(rng, max_len=5))
            y = letters_to_g(random_letters(rng, max_len=5))
            assert fq.image(g_mul(x, y)) == fq.mul(fq.image(x), fq.image(y))
            assert fq.image(g_inv(x)) == fq.inv(fq.image(x))
            assert fq.image_is_trivial(g_mul(x, g_inv(x)))


def test_image_kills_relators():
    # the defining central relators map to the identity exactly when the
    # moduli are legitimate
    fq = make_spec(4, 2, D_TABLE)
    for i in range(6):
        relator = GElement(d_element(derived={("C", 2 ** i): D_TABLE.value(i)}))
        assert fq.image_is_trivial(relator)


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_c_survives_matches_image(d_spec):
    # the witness walk reads survival off the moduli; the folded image of
    # the central generator is the reference
    specs = spec_stream(load_d(d_spec), SearchBudget())
    for fq in specs[::7]:
        for i in range(7):
            assert c_survives(fq, 2 ** i) == \
                (not fq.image_is_trivial(GElement(central_c(2 ** i)))), \
                (fq, i)


def test_image_from_parts_round_trip():
    fq = make_spec(2, 2, D_TABLE)
    assert fq.image(parse_word("a[0]")) == from_parts(fq, a={0: 1})
    assert fq.image(parse_word("t")) == from_parts(fq, t=1)
    assert fq.image(GElement()) == identity()


def assert_image_of_lift(fq, x):
    """The lemma mul, inv and conj rest on: the element of G with x's own
    coordinates maps back to x."""
    a, b, der, t = x
    assert fq.image(GElement(DElement(a, b, der), t)) == x, (fq, x)


# I = 1 has no central index, I = 2 the 2-torsion c_1 (of modulus 1
# under constant:3), and every d leaves some central modulus of 1
LIFT_QUOTIENTS = ((1, 2), (2, 2), (2, 6), (3, 4), (4, 6), (6, 9),
                  (32, 1021))


@pytest.mark.parametrize("d_spec", D_SPECS[:4])
def test_image_of_lift_is_the_element(d_spec):
    # random images of words, and of coordinates far from canonical
    d = load_d(d_spec)
    rng = random.Random(f"lift {d_spec}")
    moduli = set()
    for I, m in LIFT_QUOTIENTS:
        fq = make_spec(I, m, d)
        moduli.update(fq.c_moduli)
        for _ in range(10):
            assert_image_of_lift(fq, fq.image(letters_to_g(random_letters(
                rng, max_len=8, idx_range=(-2 * I, 2 * I), families="abct"))))
            pairs = [(i, j) for i in range(I) for j in range(i, I)]
            derived = {("AB", i, j): rng.randint(-2 * m, 2 * m)
                       for i, j in rng.sample(pairs, min(3, len(pairs)))}
            derived.update({("C", k): rng.randint(-2 * m, 2 * m)
                            for k in rng.sample(range(1, 2 * I + 1), 2)})
            assert_image_of_lift(fq, from_parts(
                fq, a={p: rng.randint(-2 * m, 2 * m) for p in range(I)},
                b={p: rng.randint(-2 * m, 2 * m) for p in range(I)},
                derived=derived, t=rng.randint(-2 * I, 2 * I)))
    assert 1 in moduli


def test_image_of_lift_on_every_element_of_q22():
    fq = make_spec(2, 2, constant_prime(3))
    assert fq.order() == 1024
    for x in fq.elements():
        assert_image_of_lift(fq, x)


def _central(*pairs):
    """The central element with the ("C", k) exponents of pairs."""
    der = {}
    for k, e in pairs:
        der[("C", k)] = der.get(("C", k), 0) + e
    return GElement(d_element(derived=der))


def triviality_pool(spec):
    """(kind, element) pairs that reach each branch of image_is_trivial,
    with both answers where the kind allows them."""
    I, m = spec.I, spec.m
    half = I // 2
    pool = []
    # central: indices at and past I, folds onto I/2, sign-flipped folds
    # (c_{I-k} = c_k^-1), and multiples of each M(k)
    for k in (I, 2 * I + 3, I + half, I - 1 or 1):
        pool.append(("central", _central((k, 1))))
    for k in sorted({1, half} & set(range(1, half + 1))):
        mod = spec.c_moduli[k - 1]
        pool += [("central", _central((k + I, mod))),
                 ("central", _central((k, mod + 1))),
                 ("central", _central((k, 1), (I - k, 1)))]
    # a residue sum of 1 or -1, off the multiples of m
    for word in ("a[0]", f"a[1] b[{I + 2}]^-1"):
        pool.append(("residues", parse_word(word)))
    # residue sums that cancel
    for word in (f"a[0] A[{I}]", f"a[0]^{m}", f"a[0] b[0] A[{I}] B[{I}]"):
        pool.append(("cancelling", parse_word(word)))
    # derived keys off the centre only
    for der in ({("AA", 0, I): 1}, {("AB", 0, I): 1}, {("BB", 1, I + 1): m},
                {("AB", 0, I): 1, ("C", I): -1}):
        pool.append(("noncentral", GElement(d_element(derived=der))))
    # t-exponents on and off the multiples of I
    shifted = []
    for kind, g in pool[::10]:
        for n in (-I, 2 * I, I + 1):
            shifted.append(("t" if n % I else kind,
                            g_mul(g_t(n), GElement(g.d_part))))
    return pool + shifted


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_image_is_trivial_matches_full_image(d_spec, monkeypatch):
    # the shortcuts of image_is_trivial against the full image, on every
    # 7th quotient the search walks: a central element or an off-multiple
    # t-exponent never takes the full fold, an element with an a- or
    # b-part or a non-central derived key always does. mckinsey_search
    # reads a nontrivial image of z = g1 g2^-1 as unequal images of g1
    # and g2, with no comparison of its own, so that reading is checked
    # on every 4th z too.
    rng = random.Random(d_spec)
    specs = spec_stream(load_d(d_spec), SearchBudget())[::7]
    assert max(fq.I for fq in specs) == 64
    g1 = letters_to_g(random_letters(rng, max_len=4))
    fold = FoldedQuotient._fold
    folds = []

    def counted(fq, *args):
        folds.append(1)
        return fold(fq, *args)

    monkeypatch.setattr(FoldedQuotient, "_fold", counted)
    seen = set()
    for fq in specs:
        x = fq.image(g1)
        for n, (kind, z) in enumerate(triviality_pool(fq)):
            before = len(folds)
            trivial = fq.image_is_trivial(z)
            took_fold = len(folds) > before
            assert trivial == (not any(fq.image(z))), (fq, kind, z)
            assert took_fold == (kind not in ("central", "t")), \
                (fq, kind, z)
            seen.add((kind, trivial))
            if n % 4 == 0:
                g2 = g_mul(g_inv(z), g1)
                assert fq.image_is_trivial(g_mul(g1, g_inv(g2))) == \
                    (x == fq.image(g2)), (fq, z)
    assert seen == {(kind, trivial)
                    for kind in ("central", "cancelling", "noncentral")
                    for trivial in (True, False)} | {("residues", False),
                                                      ("t", False)}


def defect_pool(rng, spec):
    """(kind, derived) central defects for one spec, by ("C", k) keys:
    random keys and exponents, a key k beside one that folds onto I - k
    (c_{I-k} = c_k^-1, so equal exponents cancel), and keys that fold
    onto the 2-torsion c_{I/2}."""
    I = spec.I
    pool = []
    for _ in range(2):
        der: dict = {}
        for _ in range(rng.randint(1, 3)):
            key = ("C", rng.randint(1, 3 * I))
            der[key] = der.get(key, 0) + rng.choice((1, -1, 2, 3, 31))
        pool.append(("random", der))
    if I >= 3:
        k = rng.randint(1, (I - 1) // 2)
        e = rng.choice((1, -2, 5))
        for flip in (I - k, 2 * I - k):
            pool += [("sign-flip", {("C", k): e, ("C", flip): e}),
                     ("sign-flip", {("C", k): e, ("C", flip): e + 1})]
    if I % 2 == 0:
        for e in (1, 2, -3):
            pool.append(("two-torsion", {("C", I // 2 + I): e}))
    return pool


def dies_by_hand(spec, der):
    """Whether the central element with these ("C", n) exponents dies in
    spec, folded without FoldedQuotient: c_n goes to c_r, r = n mod I,
    c_0 = 1, c_{I-k} = c_k^-1, and c_k has order M(k)."""
    I = spec.I
    folded: dict = {}
    for (_, n), e in der.items():
        r = n % I
        k, e = (r, e) if 2 * r <= I else (I - r, -e)
        if k:
            folded[k] = folded.get(k, 0) + e
    return all(e % spec.c_moduli[k - 1] == 0 for k, e in folded.items())


@pytest.mark.parametrize("d_spec", D_SPECS[:4])
def test_kills_matches_image_is_trivial(d_spec):
    # the search skips the exact route in every quotient where the pair's
    # central defect dies (kills); image_is_trivial, the full image of
    # the central element and a fold by hand are the references, on
    # every quotient the search walks
    rng = random.Random(d_spec)
    seen = set()
    for fq in spec_stream(load_d(d_spec), SearchBudget()):
        for kind, der in defect_pool(rng, fq):
            g = GElement(d_element(derived=der))
            killed = fq.kills(der)
            assert killed == fq.image_is_trivial(g) == \
                (not any(fq.image(g))) == dies_by_hand(fq, der), \
                (fq, der)
            seen.add((kind, killed))
    assert seen == {(kind, killed)
                    for kind in ("random", "sign-flip", "two-torsion")
                    for killed in (True, False)}


def central_fold_by_hand(fq, n, e):
    """The derived part of the image of c_n^e, from c_fold alone: c_n
    goes to c_k, k = c_fold(n, I), with sign -1 when n mod I > I/2, and
    the exponent is read modulo M(k); nothing survives at k = 0."""
    I = fq.I
    k = c_fold(n, I)
    if not k:
        return {}
    sign = -1 if 2 * (n % I) > I else 1
    v = sign * e % fq.c_moduli[k - 1]
    return {("C", k): v} if v else {}


def assert_central_fold(fq):
    """kills and from_parts on every single central key c_n, n in
    -2I..2I, against central_fold_by_hand."""
    for n in range(-2 * fq.I, 2 * fq.I + 1):
        for e in (1, -1, 2):
            der = {("C", n): e}
            want = central_fold_by_hand(fq, n, e)
            assert from_parts(fq, derived=der) == ({}, {}, want, 0), \
                (fq, n, e)
            assert fq.kills(der) == (not want), (fq, n, e)


@pytest.mark.parametrize("fq", [FoldedQuotient(1, 2, ()),
                                FoldedQuotient(2, 2, (2,)),
                                FoldedQuotient(3, 3, (3,)),
                                FoldedQuotient(4, 64, (64, 2)),
                                FoldedQuotient(6, 6, (3, 6, 2))],
                         ids=["Q(1,2)", "Q(2,2)", "Q(3,3)", "Q(4,64)",
                              "Q(6,6)"])
def test_central_fold_matches_c_fold(fq):
    # the one fold of a central key, in _acc_terms, reads the moduli
    # tuple; c_fold and the moduli are the reference
    assert_central_fold(fq)


@pytest.mark.parametrize("d_spec", ["table:2,31,127,1021,8191",
                                    "constant:3"])
def test_central_fold_on_ladder_quotients(d_spec):
    # per I, the first quotient the search walks with an index of modulus
    # 1, and the first with one beside a modulus above 2, where the sign
    # of a flipped fold shows
    picked = {}
    for fq in spec_stream(load_d(d_spec), SearchBudget()):
        if 1 in fq.c_moduli:
            picked.setdefault((fq.I, max(fq.c_moduli) > 2), fq)
    assert len(picked) >= 15
    for fq in picked.values():
        assert_central_fold(fq)


def test_order_and_enumeration():
    # the enumeration yields exactly fq.order() distinct elements, each
    # in reduced form: no zero and no unreduced coordinate is stored
    for fq, order in ((make_spec(1, 2, D_TABLE), 8),
                      (make_spec(1, 3, constant_prime(3)), 27),
                      (make_spec(2, 2, D_TABLE), 2048)):
        elems = list(fq.elements())
        assert len(elems) == len({frozen(x) for x in elems}) == \
            fq.order() == order
        for el in elems:
            a, b, der, t = el
            assert all(0 < v < fq.m for part in (a, b) for v in part.values())
            assert all(0 < v < (fq.c_moduli[key[1] - 1] if key[0] == "C"
                                else fq.m)
                       for key, v in der.items())
            _assert_reduced(fq, el)


# -------------------------------------------------------- conjugacy in Q

def test_exact_matches_exhaustive_on_smallest_quotient():
    fq = make_spec(1, 2, D_TABLE)
    elems = list(fq.elements())
    for x in elems:
        for y in elems:
            assert finite_conjugate(x, y, fq) == \
                quotient_conjugate_exact(x, y, fq)


def test_exact_matches_exhaustive_on_q22():
    fq = make_spec(2, 2, D_TABLE)
    rng = random.Random(53)
    elems = None
    for _ in range(40):
        if rng.random() < 0.5:
            x = fq.image(letters_to_g(random_letters(rng, max_len=4,
                                                     idx_range=(-2, 2))))
            g = fq.image(letters_to_g(random_letters(rng, max_len=4,
                                                     idx_range=(-2, 2))))
            y = fq.conj(x, g)
        else:
            if elems is None:
                elems = list(fq.elements())
            x, y = rng.choice(elems), rng.choice(elems)
        assert finite_conjugate(x, y, fq) == \
            quotient_conjugate_exact(x, y, fq)


@pytest.mark.parametrize("d_spec", ["table:2,3,5", "constant:3"])
def test_exact_matches_exhaustive_on_streamed_specs(d_spec):
    # every quotient the search walks below order 4096, on conjugates,
    # central translates of conjugates and abelianization perturbations
    d = load_d(d_spec)
    rng = random.Random(d_spec)
    specs = spec_stream(d, SearchBudget(max_order=4096))
    assert len(specs) == 11
    for fq in specs:
        assert len(list(fq.elements())) == fq.order()
        c1 = fq.image(parse_word("c[1]"))
        for _ in range(3):
            x = fq.image(letters_to_g(random_letters(rng, max_len=5)))
            y = fq.conj(x, fq.image(letters_to_g(random_letters(rng, max_len=5))))
            perturbed = fq.mul(y, fq.image(parse_word(rng.choice("abAB"))))
            for other in (y, fq.mul(y, c1), perturbed):
                assert finite_conjugate(x, other, fq) == \
                    quotient_conjugate_exact(x, other, fq), (fq, x, other)
        # t and t c_1 meet only through a derived conjugator on the orbit
        # of [a_0, b_1], whose rotation wraps onto the 2-torsion c_1
        t = fq.image(parse_word("t"))
        tc = fq.mul(t, c1)
        assert finite_conjugate(t, tc, fq) == \
            quotient_conjugate_exact(t, tc, fq)


def test_exact_handles_huge_quotients():
    fq = make_spec(8, 31, D_TABLE)
    rng = random.Random(54)
    for _ in range(12):
        x = fq.image(letters_to_g(random_letters(rng, max_len=5)))
        g = fq.image(letters_to_g(random_letters(rng, max_len=5)))
        y = fq.conj(x, g)
        assert quotient_conjugate_exact(x, y, fq)
        assert fq.conj(x, quotient_conjugator(x, y, fq)) == y
    with pytest.raises(ValueError):
        finite_conjugate(identity(), identity(), fq)
    # twisted pairs whose rotation closure covers every derived key, and
    # the McKinsey witnesses that separate two such pairs
    for I, m, central in ((32, 1021, "c[8]"), (48, 8191, "c[16]")):
        fq = make_spec(I, m, D_TABLE)
        x = fq.image(parse_word("T b[2] a"))
        for _ in range(2):
            g = fq.image(letters_to_g(random_letters(rng, max_len=5)))
            y = fq.conj(x, g)
            assert quotient_conjugate_exact(x, y, fq)
            assert fq.conj(x, quotient_conjugator(x, y, fq)) == y
        y = fq.image(parse_word(f"T b[2] a {central}"))
        assert not quotient_conjugate_exact(x, y, fq), (fq, central)
        assert quotient_conjugator(x, y, fq) is None


def test_separating_witness_in_q22():
    # the quotient that certifies a_0 and a_0 c_1 are not conjugate
    fq = make_spec(2, 2, D_TABLE)
    x = fq.image(parse_word("a[0]"))
    y = fq.image(parse_word("a[0] c[1]"))
    assert x != y
    assert not quotient_conjugate_exact(x, y, fq)
    assert not finite_conjugate(x, y, fq)


def test_exact_conjugacy_respects_t_classes():
    fq = make_spec(3, 2, constant_prime(2))
    x = fq.image(parse_word("t a[0]"))
    y = fq.image(parse_word("t^2 a[0]"))
    assert not quotient_conjugate_exact(x, y, fq)
    assert quotient_conjugate_exact(
        x, fq.conj(x, fq.image(parse_word("b[1] t"))), fq)


AGREEMENT_IS = (2, 3, 4, 6, 8, 12, 16)
AGREEMENT_MS = (2, 3, 4, 6, 9, 31)


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_exact_route_agrees_with_full_system(d_spec):
    # the cycle walk solved mod m and hnf_solve on the full system with
    # slack columns agree on solvability, for conjugates and for central,
    # derived and abelian translates of them, at s in {0, +-1, +-2, I/2};
    # every conjugator the route returns conjugates x to y. The full
    # system takes about 0.1 s a decision at I = 12 and 0.25 s at I = 16,
    # so there the five d share out the shifts.
    d = load_d(d_spec)
    di = D_SPECS.index(d_spec)
    rng = random.Random(f"agreement {d_spec}")
    seen = set()
    for k, I in enumerate(AGREEMENT_IS):
        shifts = sorted({0, 1, -1, 2, -2, I // 2})
        if I >= 12:
            shifts = shifts[di::len(D_SPECS)]
        for r, s in enumerate(shifts):
            m = AGREEMENT_MS[(k + r + di) % len(AGREEMENT_MS)]
            fq = make_spec(I, m, d)
            x = fq.mul(from_parts(fq, t=s), fq.image(letters_to_g(
                random_letters(rng, max_len=4, families="abc"))))
            g = fq.image(letters_to_g(random_letters(rng, max_len=3)))
            y = fq.conj(x, g)
            others = (y, fq.mul(y, fq.image(parse_word("c[1]"))),
                      fq.mul(y, from_parts(fq,
                                           derived={("AB", 0, I // 2): 1})),
                      fq.mul(y, fq.image(parse_word(rng.choice("ab")))))
            # past I = 6 the derived translate is left out, and the
            # abelian one costs no system
            for other in others if I < 8 else others[:2] + others[3:]:
                got = quotient_conjugate_exact(x, other, fq)
                assert got == full_system_conjugate(x, other, fq), \
                    (fq, x, other)
                conj = quotient_conjugator(x, other, fq)
                assert (conj is not None) == got
                if got:
                    assert fq.conj(x, conj) == other, (fq, x, other)
                seen.add((I, got))
    assert seen >= {(I, got) for I in AGREEMENT_IS if I < 12
                    for got in (True, False)}


def test_solve_congruences_matches_brute_force():
    # random systems of 1-3 rows in 1-3 columns, each row modulo a
    # divisor of m, against every x in (Z/m)^cols; m covers prime powers,
    # where pivots of valuation 1 and 2 occur, products of distinct
    # primes, and 12, 18 and 36, where a prime repeats beside a second
    rng = random.Random(61)
    seen = set()
    for m in (4, 6, 8, 9, 12, 27, 30, 10, 15, 18, 36):
        divisors = [k for k in range(1, m + 1) if m % k == 0]
        for _ in range(40):
            ncols = rng.randint(1, 3)
            rows = [({c: rng.randrange(-m, m) for c in range(ncols)},
                     rng.randrange(m), rng.choice(divisors))
                    for _ in range(rng.randint(1, 3))]

            def holds(x):
                return all((sum(v * x.get(c, 0) for c, v in coeffs.items())
                            - rhs) % mod == 0 for coeffs, rhs, mod in rows)

            sol = solve_congruences(rows, m)
            brute = any(holds(dict(enumerate(x)))
                        for x in product(range(m), repeat=ncols))
            assert (sol is not None) == brute, (m, rows)
            if sol is not None:
                assert holds(sol) and all(0 < v < m for v in sol.values())
            seen.add(brute)
    assert seen == {True, False}
