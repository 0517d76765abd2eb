"""Shift extension and the word layer: parsing, spelling, lengths, and
oracle agreement for the G operations."""

import random

import pytest
from hypothesis import given, strategies as st

from conjlab.extension import (
    GElement,
    WordParseError,
    c_witness_word,
    g_conj,
    g_equal,
    g_identity,
    g_inv,
    g_mul,
    g_t,
    parse_word,
    spell_element,
    word_length,
)
from conjlab.nilpotent import central_c, d_element, generator_a, \
    is_identity_d

from conftest import (
    letters_st,
    letters_to_g,
    letters_to_word,
    og_from_letters,
    og_inv,
    og_mul,
    random_letters,
    rho_g,
)


# ------------------------------------------------------------------- frozen

def test_parse_basic_word():
    g = parse_word("a t a T")
    assert g == GElement(d_element(a={0: 1, 1: 1}))
    assert parse_word("t^3").t_exp == 3
    assert parse_word("") == g_identity()
    assert parse_word("a[5]") == GElement(d_element(a={5: 1}))
    assert parse_word("B^2") == GElement(d_element(b={0: -2}))
    assert parse_word("c[-2]") == GElement(d_element(derived={("C", 2): -1}))


def test_parse_uppercase_indexed_inverses():
    # the README "Input formats" example
    assert parse_word("t a[1]^2 B[-1] c[2]") == \
        parse_word("t a[1]^2 b[-1]^-1 c[2]")
    assert parse_word("A[2]^3") == parse_word("a[2]^-3")
    assert parse_word("C[3]") == parse_word("c[3]^-1")
    assert parse_word("C[-2]^2") == parse_word("c[-2]^-2")
    assert word_length("B[-1]") == word_length("b[-1]") == 3
    assert word_length("C[2]^-2") == 48


def test_parse_zero_exponents_and_c0():
    for word in ("a^0", "b[3]^0", "c[2]^0", "t^0", "c[0]", "C[0]^5",
                 "A[1]^0", "a b[3]^0 A", "t b[3]^0 c[0] T"):
        assert parse_word(word) == g_identity(), word
    assert parse_word("a[2] a[2]^0 t^0") == parse_word("a[2]")


def test_conjugation_by_t():
    assert g_conj(GElement(generator_a(0)), g_t(-1)) == GElement(generator_a(1))
    assert g_conj(GElement(generator_a(0)), g_t(3)) == \
        GElement(d_element(a={-3: 1}))


def test_inverse_with_twist():
    got = g_inv(GElement(generator_a(0), 1))
    assert got == GElement(d_element(a={-1: -1}), -1)


# ----------------------------------------------------------- oracle agreement

@given(letters_st)
def test_oracle_parse(letters):
    assert parse_word(letters_to_word(letters)) == rho_g(og_from_letters(letters))


def _mixed_token(rng):
    """One token in any of the word forms, with the (kind, index,
    exponent) letters it stands for."""
    form = rng.randrange(7)
    kind = rng.choice("ab")
    i = rng.randint(-8, 8)
    e = rng.choice([-3, -2, -1, 0, 1, 2, 3])
    if form == 0:
        c = rng.choice("tabTAB")
        return c, [(c.lower(), 0, 1 if c.islower() else -1)]
    if form == 1:
        return f"{kind}[{i}]^{e}", [(kind, i, e)]
    if form == 2:
        return f"{kind.upper()}[{i}]^{e}", [(kind, i, -e)]
    if form == 3:
        k = rng.randint(-3, 3)
        return f"c[{k}]^{e}", [("c", k, e)]
    if form == 4:
        k = rng.randint(-3, 3)
        return f"C[{k}]", [("c", k, -1)]
    if form == 5:
        n = rng.randint(-2, 2)
        return f"t^{n}", [("t", 0, n)]
    return (f"{kind}[{i}]^{e} {kind.upper()}[{i}]^{e}",
            [(kind, i, e), (kind, i, -e)])


def test_oracle_parse_at_decide_scale():
    # the one-pass parser against the per-token g_mul fold and the free
    # model, on words as long as the decide set-up reads
    rng = random.Random(11)
    for n in (0, 1, 8, 64, 256, 1024, 1024):
        tokens, letters = [], []
        for _ in range(n):
            text, parts = _mixed_token(rng)
            tokens.append(text)
            letters.extend(parts)
        word = " ".join(tokens)
        got = parse_word(word)
        assert got == letters_to_g(letters) == rho_g(og_from_letters(letters))
        again = parse_word(word)
        assert again == got
        for x, y in ((got.d_part.a_part, again.d_part.a_part),
                     (got.d_part.b_part, again.d_part.b_part),
                     (got.d_part.derived, again.d_part.derived)):
            assert x is not y


@given(letters_st, letters_st)
def test_oracle_g_mul(u, v):
    got = g_mul(letters_to_g(u), letters_to_g(v))
    assert got == rho_g(og_mul(og_from_letters(u), og_from_letters(v)))


@given(letters_st)
def test_oracle_g_inv(letters):
    assert g_inv(letters_to_g(letters)) == rho_g(og_inv(og_from_letters(letters)))


@given(letters_st, letters_st)
def test_oracle_g_conj(u, v):
    x, w = og_from_letters(u), og_from_letters(v)
    oracle = og_mul(og_mul(og_inv(w), x), w)
    assert g_conj(letters_to_g(u), letters_to_g(v)) == rho_g(oracle)


@given(letters_st)
def test_g_group_laws(letters):
    x = letters_to_g(letters)
    assert g_mul(x, g_inv(x)) == g_identity()
    assert g_mul(g_inv(x), x) == g_identity()
    assert g_inv(g_inv(x)) == x


# -------------------------------------------------------------- word lengths

def test_word_length_accounting():
    assert word_length("") == 0
    assert word_length("a") == 1
    assert word_length("a^3 T^2") == 5
    assert word_length("a[2]") == 5
    assert word_length("b[-3]^2") == 14
    assert word_length("c[2]") == 24
    assert word_length("c[1]^-2") == 32
    assert word_length("t^-5") == 5
    assert word_length("a[0]") == 1


@pytest.mark.parametrize("k", [1, 2, 3, 7, 40])
def test_c_witness_word(k):
    w = c_witness_word(k)
    assert word_length(w) == 8 * k + 8
    assert parse_word(w) == GElement(central_c(k))


def test_c_witness_word_rejects_small_k():
    with pytest.raises(ValueError):
        c_witness_word(0)


def test_parse_errors_carry_positions():
    with pytest.raises(WordParseError) as err:
        parse_word("q")
    assert err.value.position == 0
    with pytest.raises(WordParseError) as err:
        parse_word("a  q^2")
    assert err.value.position == 3
    for bad in ("a[", "a[1]^", "x^2", "a[x]", "a^2^3", "ab", "c[2]]"):
        with pytest.raises(WordParseError):
            parse_word(bad)


# ----------------------------------------------------------------- spelling

@given(letters_st)
def test_spell_roundtrip(letters):
    g = letters_to_g(letters)
    assert parse_word(spell_element(g)) == g


def test_spell_details():
    assert spell_element(g_identity()) == ""
    assert spell_element(g_t(-2)) == "t^-2"
    g = GElement(d_element(a={0: 12345}))
    assert spell_element(g) == "a[0]^12345"
    assert parse_word(spell_element(g)) == g
    h = GElement(d_element(derived={("AA", -1, 2): 3, ("C", 2): -1}), 4)
    assert parse_word(spell_element(h)) == h
    big = GElement(d_element(derived={("C", 3): 10 ** 6}))
    assert parse_word(spell_element(big)) == big
    assert word_length(spell_element(big)) < 10 ** 8


def test_g_equal_mod_relators(d_table):
    assert g_equal(GElement(d_element(derived={("C", 1): 2})), g_identity(),
                   d_table)
    assert not g_equal(g_t(), g_identity(), d_table)
    assert g_equal(parse_word("a c[1]"), parse_word("c[1]^-1 a"), d_table)
    assert not g_equal(parse_word("a"), parse_word("a c[1]"), d_table)


def test_g_equal_matches_product_form(d_table):
    # g_equal compares t-exponents and D-parts; the product form tests
    # x^-1 y for triviality. Under d_table, c[1]^2, c[2]^31 and
    # c[4]^-127 are relators.
    rng = random.Random(14)
    steps = ["", "c[1]^2", "c[2]^31", "c[4]^-127", "c[1]", "c[3]^2",
             "a[1]", "t", "a[0] b[1] A[0] B[1]"]
    equal = 0
    for _ in range(200):
        x = letters_to_g(random_letters(rng, max_len=6))
        y = g_mul(x, parse_word(rng.choice(steps)))
        if rng.random() < 0.5:
            x, y = y, x
        prod = g_mul(g_inv(x), y)
        want = prod.t_exp == 0 and is_identity_d(prod.d_part, d_table)
        assert g_equal(x, y, d_table) == want, (x, y)
        equal += want
    assert 30 < equal < 170, equal
