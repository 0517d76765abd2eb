"""Collection layer: frozen coordinate examples, agreement with the
independent cocycle oracle, and the budgeted triviality tests."""

import random
from copy import deepcopy

import pytest
from hypothesis import given, strategies as st

from conjlab.conjugacy import commutator_bilinear
from conjlab.extension import GElement, g_equal, g_mul, parse_word
from conjlab.nilpotent import (
    DElement,
    _collect,
    _derived_diff,
    _surviving_c,
    aa_terms,
    ab_terms,
    bb_terms,
    c_terms,
    central_c,
    d_element,
    d_identity,
    d_inv,
    d_mul,
    d_twisted_conj,
    generator_a,
    generator_b,
    is_identity_d,
    is_in_C,
    is_in_derived,
    phi_shift,
    power_of_two_exponent,
)
from conjlab.quotients import make_spec

from conftest import (
    D_SPECS,
    banded_letters,
    d_comm,
    d_letters_st,
    free_inv,
    free_mul,
    free_shift,
    identity,
    letters_to_g,
    letters_to_word,
    load_d,
    og_from_letters,
    og_mul,
    rho,
    rho_g,
)


def d_of(letters) -> DElement:
    g = letters_to_g(letters)
    assert g.t_exp == 0
    return g.d_part


def free_of(letters):
    h, n = og_from_letters(letters)
    assert n == 0
    return h


# ------------------------------------------------------------------- frozen

def test_collection_example():
    got = d_mul(generator_b(0), generator_a(0))
    assert got == DElement({0: 1}, {0: 1}, {("AB", 0, 0): -1})


def test_term_canonicalization():
    assert aa_terms(0, 1) == ((("AA", 0, 1), 1),)
    assert aa_terms(1, 0) == ((("AA", 0, 1), -1),)
    assert aa_terms(2, 2) == ()
    assert bb_terms(3, -1, 2) == ((("BB", -1, 3), -2),)
    assert ab_terms(0, 0) == ((("AB", 0, 0), 1),)
    assert ab_terms(2, 5, -1) == ((("AB", 2, 5), -1),)
    assert ab_terms(5, 2) == ((("AB", 2, 5), 1), (("C", 3), -1))
    # [b_2, a_5] = [a_5, b_2]^-1, collected from b_2 a_5, rewrites
    # through c_3
    der = {}
    _collect(der, {}, {2: 1}, {5: 1}, {})
    assert der == {("AB", 2, 5): -1, ("C", 3): 1}
    assert c_terms(0) == ()
    assert c_terms(4) == ((("C", 4), 1),)
    assert c_terms(-4) == ((("C", 4), -1),)


def test_power_of_two_exponent():
    assert power_of_two_exponent(1) == 0
    assert power_of_two_exponent(2) == 1
    assert power_of_two_exponent(1024) == 10
    assert power_of_two_exponent(3) is None
    assert power_of_two_exponent(6) is None
    assert power_of_two_exponent(0) is None


def test_phi_shift_fixes_centre_and_moves_indices():
    assert phi_shift(central_c(2), 5) == central_c(2)
    x = d_element(a={0: 1}, derived={("AA", 0, 1): 1})
    assert phi_shift(x, 2) == d_element(a={2: 1}, derived={("AA", 2, 3): 1})
    assert phi_shift(x, 0) is x


def test_membership_predicates():
    assert is_in_derived(central_c(3))
    assert is_in_C(central_c(3))
    assert is_in_derived(d_element(derived={("AA", 0, 1): 1}))
    assert not is_in_C(d_element(derived={("AA", 0, 1): 1}))
    assert not is_in_derived(generator_a(0))


def test_element_validation():
    # d_element is the validating constructor for keys from outside the
    # library; every malformed form must still be refused
    for key in [(), "AA", ("XY", 0, 1), ("AA", 0), ("AA", 1, 0),
                ("AA", 2, 2), ("BB", 3, 1), ("BB", 0, 0), ("AB", 2, 1),
                ("AB", 0, "1"), ("C", 0), ("C", -2), ("C", 1, 2)]:
        with pytest.raises(ValueError):
            d_element(derived={key: 1})
    assert d_element(a={0: 0}, derived={("C", 1): 0}) == d_identity()


# ----------------------------------------------------------- oracle agreement

@given(d_letters_st)
def test_oracle_word_fold(letters):
    assert d_of(letters) == rho(free_of(letters))


@given(d_letters_st, d_letters_st)
def test_oracle_mul(u, v):
    got = d_mul(d_of(u), d_of(v))
    assert got == rho(free_mul(free_of(u), free_of(v)))


@given(d_letters_st)
def test_oracle_inv(letters):
    assert d_inv(d_of(letters)) == rho(free_inv(free_of(letters)))


@given(d_letters_st, d_letters_st)
def test_oracle_commutator(u, v):
    x, y = free_of(u), free_of(v)
    oracle = free_mul(free_mul(free_mul(x, y), free_inv(x)), free_inv(y))
    got = d_comm(d_of(u), d_of(v))
    assert got == rho(oracle)
    assert is_in_derived(got)


@given(d_letters_st, st.integers(min_value=-5, max_value=5))
def test_oracle_shift(letters, n):
    assert phi_shift(d_of(letters), n) == rho(free_shift(free_of(letters), n))


@given(d_letters_st, st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5))
def test_shift_is_an_automorphism(letters, n, m):
    x = d_of(letters)
    assert phi_shift(phi_shift(x, n), m) == phi_shift(x, n + m)


@given(d_letters_st, d_letters_st, st.integers(min_value=-3, max_value=3))
def test_shift_respects_mul(u, v, n):
    x, y = d_of(u), d_of(v)
    assert phi_shift(d_mul(x, y), n) == d_mul(phi_shift(x, n), phi_shift(y, n))


# ---------------------------------------------------------- decide scale

def test_oracle_at_decide_scale():
    # the hypothesis strategies stay within 8 letters and indices +-4;
    # decide multiplies elements with about 13 generators per family and
    # 240 derived keys
    rng = random.Random(8)
    sizes = []
    for n in (256, 512, 1024, 1024):
        u, v = banded_letters(rng, n), banded_letters(rng, n)
        ou, ov = og_from_letters(u), og_from_letters(v)
        gx, gy = parse_word(letters_to_word(u)), parse_word(letters_to_word(v))
        assert gx == rho_g(ou) and gy == rho_g(ov)
        x, y = gx.d_part, gy.d_part
        hx, hy = ou[0], ov[0]
        sizes += [(len(g.a_part), len(g.b_part), len(g.derived))
                  for g in (x, y)]
        assert d_mul(x, y) == rho(free_mul(hx, hy))
        assert d_inv(x) == rho(free_inv(hx))
        for shift in (-7, 3):
            assert phi_shift(x, shift) == rho(free_shift(hx, shift))
        assert g_mul(gx, gy) == rho_g(og_mul(ou, ov))
        assert (commutator_bilinear(x.a_part, x.b_part, y.a_part, y.b_part)
                == d_comm(x, y).derived)
    # the largest operands fill the band: 13 indices a family, 230+ keys
    assert max(a for a, _, _ in sizes) == max(b for _, b, _ in sizes) == 13
    assert max(k for _, _, k in sizes) >= 230


def test_operands_are_never_written(d_table):
    # the kernel writes into dicts, and d_mul hands back an operand
    # itself for an identity factor: no call may write into an argument
    rng = random.Random(9)
    fq = make_spec(8, 31, d_table)
    e, fe = GElement(), identity()
    for n in (0, 16, 64, 256):
        gx = parse_word(letters_to_word(banded_letters(rng, n)))
        gy = parse_word(letters_to_word(banded_letters(rng, n)))
        x, y = gx.d_part, gy.d_part
        fx, fy = fq.image(gx), fq.image(gy)
        calls = [
            (d_mul, (x, y)), (d_mul, (x, e.d_part)), (d_mul, (e.d_part, y)),
            (d_inv, (x,)), (d_twisted_conj, (x, y, 2)),
            (d_twisted_conj, (y, x, 0)), (g_mul, (gx, gy)), (g_mul, (gx, e)),
            (g_mul, (e, gy)),
            (commutator_bilinear, (x.a_part, x.b_part, y.a_part, y.b_part)),
            (fq.mul, (fx, fy)), (fq.mul, (fx, fe)), (fq.mul, (fe, fy)),
            (fq.inv, (fx,)), (fq.rotate, (fx, 3)), (fq.image, (gx,)),
        ]
        for fn, args in calls:
            before = deepcopy(args)
            fn(*args)
            assert args == before, (fn.__name__, n)


def test_twisted_conj_matches_three_products():
    # h^-1 x shift^n(h) in one pass against d_inv, two d_mul and phi_shift
    rng = random.Random(12)
    words = [parse_word(letters_to_word(banded_letters(rng, n))).d_part
             for n in (1, 8, 64, 256)]
    commutator = d_element(derived={("AA", -1, 2): 2, ("AB", 0, 0): -1,
                                    ("BB", 1, 3): 5})
    hs = [d_identity(), d_mul(central_c(3), central_c(1)), commutator,
          d_mul(words[1], commutator)] + words
    xs = [d_identity(), central_c(2), commutator] + words
    derived_keys = 0
    for h in hs:
        derived_keys += any(key[0] != "C" for key in h.derived)
        for x in xs:
            for n in range(-3, 4):
                got = d_twisted_conj(h, x, n)
                assert got == d_mul(d_mul(d_inv(h), x), phi_shift(h, n)), \
                    (h, x, n)
                assert 0 not in got.derived.values()
    assert derived_keys >= 4
    x = words[2]
    assert d_twisted_conj(d_identity(), x, 3) is x


def test_derived_diff_is_the_product_when_parts_agree():
    rng = random.Random(13)
    for n in (0, 8, 64, 256):
        x = parse_word(letters_to_word(banded_letters(rng, n))).d_part
        for y in (x, d_mul(x, central_c(3)),
                  d_mul(x, d_element(derived={("AB", -2, 1): 4}))):
            diff = _derived_diff(x, y)
            prod = d_mul(d_inv(x), y)
            assert not prod.a_part and not prod.b_part
            assert diff == prod.derived
        assert _derived_diff(x, d_mul(x, generator_a(5))) is None
        assert _derived_diff(x, d_mul(generator_b(-5), x)) is None


# --------------------------------------------------------------- group laws

@given(d_letters_st, d_letters_st, d_letters_st)
def test_associativity(u, v, w):
    x, y, z = d_of(u), d_of(v), d_of(w)
    assert d_mul(d_mul(x, y), z) == d_mul(x, d_mul(y, z))


@given(d_letters_st)
def test_inverse_and_identity(letters):
    x = d_of(letters)
    e = d_identity()
    assert d_mul(x, d_inv(x)) == e
    assert d_mul(d_inv(x), x) == e
    assert d_mul(x, e) == x
    assert d_mul(e, x) == x
    assert d_inv(d_inv(x)) == x


@given(d_letters_st, d_letters_st)
def test_commutators_are_central(u, v):
    # 2-step: [x, y] commutes with everything we can throw at it
    k = d_comm(d_of(u), d_of(v))
    for probe in (generator_a(0), generator_b(2), d_of(v)):
        assert d_comm(k, probe) == d_identity()


# ----------------------------------------------------- budgeted triviality

def test_is_identity_under_relators(d_table):
    assert is_identity_d(d_identity(), d_table)
    assert not is_identity_d(central_c(1), d_table)
    assert is_identity_d(d_element(derived={("C", 1): 2}), d_table)
    assert is_identity_d(d_element(derived={("C", 2): 31}), d_table)
    assert not is_identity_d(d_element(derived={("C", 2): 30}), d_table)
    assert is_identity_d(d_element(derived={("C", 4): 127 * 3}), d_table)
    assert not is_identity_d(d_element(derived={("C", 3): 12}), d_table)
    assert not is_identity_d(generator_a(0), d_table)
    assert not is_identity_d(d_element(derived={("AA", 0, 1): 2}), d_table)


def test_identity_test_never_computes_large_values():
    class Huge:
        calls = 0

        def at_least(self, n, m):
            return True

        def value(self, n):
            raise AssertionError("value() must not be called")

    d = Huge()
    assert not is_identity_d(central_c(4), d)
    assert not is_identity_d(d_element(derived={("C", 1): 10 ** 9}), d)


def _two_pass_survivor(x, d):
    """The pair that _surviving_c replaces: a triviality walk over the
    sorted C keys, then on a nontrivial element a second walk for the
    first surviving (k, gamma)."""
    def dies(k, gamma):
        j = power_of_two_exponent(k)
        return (j is not None and not d.at_least(j, abs(gamma) + 1)
                and gamma % d.value(j) == 0)

    coords = sorted(x.derived.items())
    if all(dies(key[1], gamma) for key, gamma in coords):
        return None
    return next((key[1], gamma) for key, gamma in coords
                if not dies(key[1], gamma))


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_surviving_c_matches_two_pass_walk(d_spec):
    d = load_d(d_spec)
    rng = random.Random(f"survivor {d_spec}")
    killed = 0
    for _ in range(150):
        derived = {}
        for _ in range(rng.randint(1, 4)):
            k = rng.choice((1, 2, 4, 8, 16, 1, 2, 4, 3, 6, 12))
            j = power_of_two_exponent(k)
            if j is not None and rng.random() < 0.7:
                gamma = d.value(j) * rng.choice((-3, -1, 1, 2, 5))
            else:
                gamma = rng.randint(-40, 40)
            derived[("C", k)] = derived.get(("C", k), 0) + gamma
        x = d_element(derived=derived)
        survivor = _surviving_c(x, d)
        assert survivor == _two_pass_survivor(x, d), (d_spec, derived)
        assert is_identity_d(x, d) == (survivor is None)
        killed += survivor is None
    assert 10 < killed < 140, killed  # both outcomes are exercised


def test_d_equal_mod_relators(d_table):
    def equal(x, y):
        return g_equal(GElement(x), GElement(y), d_table)

    assert equal(central_c(1), d_inv(central_c(1)))
    assert equal(d_element(derived={("C", 2): 33}),
                 d_element(derived={("C", 2): 2}))
    assert not equal(central_c(1), d_identity())
    x = d_mul(generator_a(0), central_c(1))
    assert not equal(x, generator_a(0))
    assert equal(d_mul(x, central_c(1)), generator_a(0))
