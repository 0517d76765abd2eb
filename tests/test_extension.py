"""Shift extension and the word layer: parsing, spelling, lengths, and
oracle agreement for the G operations."""

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
    is_identity_g,
    parse_word,
    spell_element,
    word_length,
)
from conjlab.nilpotent import central_c, d_element, generator_a

from conftest import (
    letters_st,
    letters_to_g,
    letters_to_word,
    og_from_letters,
    og_inv,
    og_mul,
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
    assert is_identity_g(GElement(d_element(derived={("C", 1): 2})), d_table)
    assert not is_identity_g(g_t(), d_table)
    assert g_equal(parse_word("a c[1]"), parse_word("c[1]^-1 a"), d_table)
    assert not g_equal(parse_word("a"), parse_word("a c[1]"), d_table)
