"""Interleaved conjugator/quotient search and the witness growth table."""

import hashlib
import random
import tracemalloc
from itertools import product

import conftest
import pytest
from conftest import D_SPECS, c_survives, eager_ladder, letters_to_g, \
    load_d, log2_order, prime_powers_up_to, random_letters, \
    unpruned_mckinsey_search, unpruned_word_phase

from conjlab import search
from conjlab.conjugacy import conjugacy_decide
from conjlab.extension import GElement, g_conj, g_equal, g_inv, g_mul, \
    g_t, parse_word
from conjlab.machine import parse_program
from conjlab.nilpotent import central_c, d_element, d_equal, \
    d_letter_conj, d_mul, generator_a, phi_shift
from conjlab.quotients import FoldedQuotient, make_spec, \
    quotient_is_well_defined, required_c_modulus
from conjlab.search import (
    I_LADDER,
    SearchBudget,
    growth_table,
    mckinsey_search,
    rf_witness_order,
    spec_stream,
)
from conjlab.sepfunc import constant_prime, fast_majorant, from_table, \
    parse_d_spec

D_TABLE = from_table([2, 31, 127, 1021, 8191])


def grid_ids(specs):
    return [(s.I, s.m, s.c_moduli) for s in specs]


@pytest.fixture
def spec_builds(monkeypatch):
    """A list that grows by one for every FoldedQuotient built."""
    built = []
    check = FoldedQuotient.__post_init__

    def counted(fq):
        built.append(fq)
        check(fq)

    monkeypatch.setattr(FoldedQuotient, "__post_init__", counted)
    return built


# ------------------------------------------------------------- spec stream

def test_spec_stream_full_grid():
    specs = spec_stream(D_TABLE, SearchBudget())
    assert len(specs) == len(I_LADDER) * len(prime_powers_up_to(8192))
    assert specs[0].order() == 8
    orders = [s.order() for s in specs[:60]]
    assert orders == sorted(orders)
    assert I_LADDER == (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def test_spec_stream_max_order_is_exact():
    keep = spec_stream(D_TABLE, SearchBudget(max_order=2048))
    ids = {(s.I, s.m) for s in keep}
    assert (2, 2) in ids
    assert all(s.order() <= 2048 for s in keep)
    drop = spec_stream(D_TABLE, SearchBudget(max_order=2047))
    ids = {(s.I, s.m) for s in drop}
    assert (2, 2) not in ids
    assert all(s.order() <= 2047 for s in drop)


def test_spec_stream_max_specs():
    assert len(spec_stream(D_TABLE, SearchBudget(max_specs=7))) == 7


def filtered_walk(ladder, budget):
    """The spec-by-spec walk of the sorted ladder, exact order test."""
    out = []
    for spec in ladder:
        if budget.max_order is None or spec.order() <= budget.max_order:
            out.append(spec)
            if len(out) >= budget.max_specs:
                break
    return out


@pytest.mark.parametrize("budget", [
    SearchBudget(), SearchBudget(max_specs=300),
    SearchBudget(max_order=10 ** 6), SearchBudget(max_order=2 ** 600),
    SearchBudget(max_order=2 ** 600, max_specs=40)])
def test_spec_stream_matches_filtered_walk(budget):
    ladder = spec_stream(D_TABLE, SearchBudget(max_specs=10 ** 9))
    assert len(ladder) == len(I_LADDER) * len(prime_powers_up_to(8192))
    expected = filtered_walk(ladder, budget)
    out = spec_stream(D_TABLE, budget)
    assert out == expected
    # the result is the caller's own list, not a view of the cache
    out.reverse()
    out.append(None)
    assert spec_stream(D_TABLE, budget) == expected


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_lazy_ladder_matches_eager_reference(d_spec):
    d = load_d(d_spec)
    assert grid_ids(spec_stream(d, SearchBudget())) == \
        grid_ids(eager_ladder(d))


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_ladder_keys_are_log2_orders(d_spec):
    ladder = search._ladder(load_d(d_spec))
    specs = ladder.built(len(ladder.keys))
    for j, (key, spec) in enumerate(zip(ladder.keys, specs)):
        assert key.hex() == log2_order(spec).hex(), spec
        if j % 61 == 0:  # exact orders reach 2^80000; a sample suffices
            assert ladder.order(j) == spec.order(), spec


def test_zero_max_specs_walks_nothing_under_max_order():
    # max_specs bounds the walk before its first position, with or
    # without max_order
    for budget in (SearchBudget(max_specs=0),
                   SearchBudget(max_specs=0, max_order=100000)):
        assert spec_stream(D_TABLE, budget) == []
        assert all(rf_witness_order(i, D_TABLE, budget) is None
                   for i in range(3))
        out = mckinsey_search(parse_word("a[0]"), parse_word("a[0] c[1]"),
                              D_TABLE, budget)
        assert out.verdict == "budget-exhausted"
        assert out.quotients_tested == 0
    one = SearchBudget(max_specs=1, max_order=100000)
    assert len(spec_stream(D_TABLE, one)) == 1


@pytest.mark.parametrize("field, value", [
    ("max_order", 0), ("max_order", -5), ("max_specs", -1),
    ("max_conj_len", -1)])
def test_search_budget_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field.replace("_", "-")):
        SearchBudget(**{field: value})


WITNESS_BUDGETS = [SearchBudget()] + \
    [SearchBudget(max_specs=n) for n in (1, 4430, 4431, 11908, 11909)] + \
    [SearchBudget(max_order=n) for n in (2047, 2048, 10 ** 6, 2 ** 600)] + \
    [SearchBudget(max_order=n, max_specs=k)
     for n, k in ((2048, 8), (10 ** 6, 50), (2 ** 600, 4431))]


def near_key_budgets(ladder):
    """Budgets whose max_order lies within one bit of a walked key: the
    exact order of walk position j and its neighbours, alone and with a
    max_specs that ends the walk inside the band of exact checks."""
    out = []
    for j in (9, 700, 4431, 9916):
        order = ladder.order(j)
        for bound in (order - 1, order, order + 1):
            out += [SearchBudget(max_order=bound),
                    SearchBudget(max_order=bound, max_specs=j)]
    return out


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_walk_matches_reference_walk(d_spec):
    ladder = search._ladder(load_d(d_spec))
    for budget in WITNESS_BUDGETS + near_key_budgets(ladder):
        assert list(ladder.walk(budget)) == \
            conftest.reference_walk(ladder, budget), budget


def test_near_key_budgets_skip_inside_the_band():
    # order - 1 at a walked key fails that key's exact check inside the
    # band, so span skips it rather than stopping before it
    ladder = search._ladder(D_TABLE)
    for j in (9, 700, 4431, 9916):
        budget = SearchBudget(max_order=ladder.order(j) - 1)
        stop, skipped = ladder.span(budget)
        assert j in skipped and stop > j


def test_walk_counts_passing_positions_only():
    # on a real ladder the exact orders ascend with the keys, so the
    # skipped positions close the band; orders planted to alternate across
    # the bound pin that max_specs counts the positions that pass
    ladder = search._Ladder(D_TABLE)
    ladder.order = lambda j: 2 ** 38 + j % 2
    full = conftest.reference_walk(ladder, SearchBudget(max_order=2 ** 38))
    assert full[-1] + 1 - len(full) > 100  # skipped between passes
    for n in range(len(full) - 60, len(full) + 2, 3):
        budget = SearchBudget(max_order=2 ** 38, max_specs=n)
        assert list(ladder.walk(budget)) == \
            conftest.reference_walk(ladder, budget), n


def first_survivor_orders(ladder, budget, i_values):
    """The order of the first spec in the reference walk of ladder within
    budget in which c_{2^i} survives, or None, for each i."""
    walk = conftest.reference_walk(ladder, budget)
    specs = ladder.built(walk[-1] + 1 if walk else 0)
    out = []
    for i in i_values:
        first = next((specs[j] for j in walk
                      if c_survives(specs[j], 2 ** i)), None)
        out.append(first and first.order())
    return out


def witness_i_values(d_spec):
    # nth-prime has no survivor of c_{2^i} on the ladder for i >= 5
    return range(8 if d_spec == "nth-prime" else 5)


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_rf_witness_order_is_first_survivor(d_spec):
    d = load_d(d_spec)
    ladder = search._ladder(d)
    i_values = witness_i_values(d_spec)
    for budget in WITNESS_BUDGETS + near_key_budgets(ladder):
        assert [rf_witness_order(i, d, budget) for i in i_values] == \
            first_survivor_orders(ladder, budget, i_values), budget
    if d_spec == "nth-prime":
        assert [rf_witness_order(i, d) for i in (5, 6, 7)] == [None] * 3


@pytest.mark.parametrize("d_spec", D_SPECS)
def test_cold_rf_witness_order_is_first_survivor(d_spec):
    # each budget on a fresh d, whose ladder no walk has sorted: a budget
    # that spans the whole ladder ranks the survivors alone and leaves
    # the ladder unsorted, and a cut budget sorts it on first use
    reference = search._ladder(load_d(d_spec))
    i_values = witness_i_values(d_spec)
    whole = len(I_LADDER) * len(prime_powers_up_to(8192))
    for budget in WITNESS_BUDGETS:
        d = load_d(d_spec)
        assert [rf_witness_order(i, d, budget) for i in i_values] == \
            first_survivor_orders(reference, budget, i_values), budget
        spans_all = budget.max_order is None and budget.max_specs >= whole
        assert ("pos" in vars(search._ladder(d))) != spans_all, budget


def test_ladder_walk_order_is_pinned():
    # the walk order of the default d, as the float keys sort it; a change
    # to the keys that flips a near tie must fail here, not move
    # quotients_tested
    ladder = search._Ladder(D_TABLE)
    text = ",".join(map(str, ladder.pos))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        "3dc820462c039bfc"


# --------------------------------------------------------------- mckinsey

def test_mckinsey_equal_words():
    g = parse_word("t a[2] c[1]")
    out = mckinsey_search(g, g, D_TABLE)
    assert out.verdict == "conjugate"
    assert out.conjugator_word == ""
    assert out.conjugators_tested == 1
    assert out.quotients_tested == 0


def test_mckinsey_shift_conjugate():
    g1 = GElement(generator_a(0))
    g2 = g_conj(g1, parse_word("t"))
    out = mckinsey_search(g1, g2, D_TABLE)
    assert out.verdict == "conjugate"
    assert out.conjugator_word == "t"
    assert out.conjugators_tested == 2
    assert out.quotients_tested == 16


def test_mckinsey_two_letter_conjugator():
    g1 = parse_word("t a[1] b[-1]")
    g2 = g_conj(g1, parse_word("b a"))
    out = mckinsey_search(g1, g2, D_TABLE, SearchBudget(max_conj_len=2))
    assert out.verdict == "conjugate"
    w = parse_word(out.conjugator_word)
    assert g_equal(g_conj(g1, w), g2, D_TABLE)


def test_mckinsey_separates_central_translate():
    g1 = parse_word("a[0]")
    g2 = parse_word("a[0] c[1]")
    out = mckinsey_search(g1, g2, D_TABLE)
    assert out.verdict == "non-conjugate"
    assert out.witness_order == 2048
    assert (out.witness_spec.I, out.witness_spec.m) == (2, 2)
    assert out.conjugators_tested == 1
    assert 1 <= out.quotients_tested <= 16
    assert not conjugacy_decide(g1, g2, D_TABLE).is_conjugate


def test_mckinsey_separates_twist_mismatch():
    out = mckinsey_search(parse_word("t"), parse_word("t t"), D_TABLE)
    assert out.verdict == "non-conjugate"
    assert out.witness_order == 2048


def test_mckinsey_large_witness_uses_exact_route():
    # under a constant d the smallest quotient keeping c_1 alive has
    # order 3 * 31^19, far beyond exhaustive enumeration
    d = constant_prime(31)
    out = mckinsey_search(parse_word("a[0]"), parse_word("a[0] c[1]"), d,
                          SearchBudget(max_conj_len=1))
    assert out.verdict == "non-conjugate"
    assert out.witness_order == make_spec(3, 31, d).order()
    cert = conjugacy_decide(parse_word("a[0]"), parse_word("a[0] c[1]"), d)
    assert not cert.is_conjugate


def test_mckinsey_budget_exhausted():
    budget = SearchBudget(max_conj_len=1, max_order=10 ** 6)
    g1 = parse_word("a[0]")
    g2 = parse_word("a[0] c[2]")
    out = mckinsey_search(g1, g2, D_TABLE, budget)
    assert out.verdict == "budget-exhausted"
    assert out.conjugator_word is None and out.witness_spec is None
    assert out.conjugators_tested == 7
    assert out.quotients_tested == len(spec_stream(D_TABLE, budget))
    # the pair is separable in principle, just not within this budget
    assert not conjugacy_decide(g1, g2, D_TABLE).is_conjugate


def test_spec_cache_is_per_d_object():
    # in-memory majorants all share the descriptor "program:<memory>"; a
    # ladder cached by descriptor would hand dB the moduli of dA and a
    # "separating" quotient that is not even a quotient for dB
    dA = fast_majorant(parse_program("halt"))
    dB = fast_majorant(parse_program("inc y\nhalt"))
    g1, g2 = parse_word("a[0]"), parse_word("T a[0] c[1]^5 t")
    budget = SearchBudget(max_conj_len=0, max_specs=20)
    first = mckinsey_search(g1, g2, dA, budget)
    assert first.verdict == "non-conjugate"
    assert quotient_is_well_defined(first.witness_spec, dA)
    assert conjugacy_decide(g1, g2, dB).is_conjugate
    out = mckinsey_search(g1, g2, dB, budget)
    assert out.verdict == "budget-exhausted"


def test_mckinsey_agrees_with_decision():
    rng = random.Random(97)
    budget = SearchBudget(max_conj_len=2, max_specs=20)
    for _ in range(25):
        g1 = letters_to_g(random_letters(rng, max_len=5,
                                         idx_range=(-2, 2), exp_range=(-2, 2)))
        conj_word = " ".join(rng.choice("tabTAB")
                             for _ in range(rng.randrange(0, 3)))
        g2 = g_conj(g1, parse_word(conj_word))
        out = mckinsey_search(g1, g2, D_TABLE, budget)
        assert out.verdict == "conjugate"
        w = parse_word(out.conjugator_word)
        assert g_equal(g_conj(g1, w), g2, D_TABLE)
        assert conjugacy_decide(g1, g2, D_TABLE).is_conjugate


def reference_word_phase(g1, g2, d, length):
    """Every word of one length in product order, parsed and conjugated
    from scratch: the first hit and its position, or (None, 6**length)."""
    for pos, letters in enumerate(product("tabTAB", repeat=length), 1):
        word = " ".join(letters)
        if g_equal(g_conj(g1, parse_word(word)), g2, d):
            return word, pos
    return None, 6 ** length


def word_phase_pool(seed):
    rng = random.Random(seed)
    pool = []
    for twist in (0, 0, 1, -2):
        g1 = g_mul(letters_to_g(random_letters(
            rng, max_len=4, idx_range=(-2, 2), exp_range=(-2, 2),
            families="ab")), g_t(twist))
        rand = " ".join(rng.choice("tabTAB")
                        for _ in range(rng.randrange(1, 4)))
        for word in ("t T a", "a A b", "b B", "T t A", "b T a", rand):
            pool.append((g1, g_conj(g1, parse_word(word))))
        pool.append((g1, g_mul(g1, g_t(1))))
        pool.append((g1, g_mul(g_conj(g1, parse_word(rand)),
                               parse_word("a[1]"))))
        pool.append((g1, g_mul(g1, parse_word("c[1]"))))
        pool.append((g1, g_mul(g_conj(g1, parse_word("a t")),
                               parse_word("c[2]^-1"))))
    return pool


@pytest.mark.parametrize("d", [D_TABLE, constant_prime(3)],
                         ids=["default", "constant:3"])
def test_word_tree_matches_reference_walk(d, monkeypatch):
    pool = word_phase_pool(2026)
    outcomes = {}
    for walk in ("tree", "reference"):
        if walk == "reference":
            monkeypatch.setattr(search, "_word_phase", reference_word_phase)
        for n, (g1, g2) in enumerate(pool):
            for length in range(4):
                budget = SearchBudget(max_conj_len=length, max_specs=24)
                out = mckinsey_search(g1, g2, d, budget)
                outcomes.setdefault((n, length), []).append(
                    (out.verdict, out.conjugator_word, out.conjugators_tested,
                     out.quotients_tested))
    for key, (tree, reference) in outcomes.items():
        assert tree == reference, key
    verdicts = {v[0][0] for v in outcomes.values()}
    assert verdicts == {"conjugate", "non-conjugate", "budget-exhausted"}
    # some hits lie past skipped words with a cancelling pair
    assert any(v[0][1] == "b T a" for v in outcomes.values())


@pytest.mark.parametrize("d", [D_TABLE, constant_prime(3)],
                         ids=["default", "constant:3"])
def test_word_phase_matches_reference_walk(d):
    # the search no longer walks the words of a non-conjugate pair, so
    # the tree is checked directly on every pair, conjugate or not. A
    # phase is only walked after every shorter one failed (its
    # cancelling-pair pruning relies on that), so each pair stops at its
    # first hit
    pool = word_phase_pool(2026)
    assert not all(conjugacy_decide(g1, g2, d).is_conjugate
                   for g1, g2 in pool)
    for n, (g1, g2) in enumerate(pool):
        for length in range(4):
            want = reference_word_phase(g1, g2, d, length)
            assert search._word_phase(g1, g2, d, length) == want, (n, length)
            if want[0] is not None:
                break


def test_word_phase_memory_is_per_depth():
    # a non-conjugate pair walks the whole phase; a breadth-first layer
    # of its 1296 words would hold hundreds of kilobytes of conjugates
    g1 = parse_word("a[0] b[1] a[2]^-1 b[-1]^2")
    g2 = parse_word("a[0] b[1] a[2]^-1 b[-1]^2 c[1]")
    tracemalloc.start()
    try:
        out = search._word_phase(g1, g2, D_TABLE, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == (None, 6 ** 4)
    assert peak < 32 * 2 ** 10


def test_word_step_matches_g_conj():
    # the word walk's child of (h, s) under a letter, one d_letter_conj
    # call or one shift, is g_conj by the letter, for every letter and
    # t-exponent -3..3, the identity included
    rng = random.Random(14)
    pool = [GElement()]
    for t in range(-3, 4):
        for _ in range(5):
            g = letters_to_g(random_letters(rng, max_len=6))
            pool.append(g_mul(g, g_t(t - g.t_exp)))
    assert {c.t_exp for c in pool} == set(range(-3, 4))
    for c in pool:
        h, s = c.d_part, c.t_exp
        for letter, (family, e) in zip(search._LETTERS, search._STEPS):
            step = phi_shift(h, -e) if family == "t" else \
                d_letter_conj(h, family, e, s)
            assert GElement(step, s) == g_conj(c, parse_word(letter)), \
                (c, letter)


def _derived(der):
    return GElement(d_element(derived=der))


def test_d_equal_matches_g_equal():
    # the word walk's leaf test: pairs of equal t-exponent g and g z, with
    # z non-central, central and surviving, or central and dying
    rng = random.Random(15)
    differences = {
        "noncentral": [parse_word("b[1]"), _derived({("AA", 0, 2): 1}),
                       _derived({("AB", -1, 1): 2}),
                       _derived({("BB", 0, 1): 1, ("C", 1): 2})],
        "surviving": [_derived({("C", 1): 1}), _derived({("C", 3): 2}),
                      _derived({("C", 2): 30}),
                      _derived({("C", 1): 2, ("C", 8): 1})],
        "dying": [GElement(), _derived({("C", 1): 2}),
                  _derived({("C", 2): 31}),
                  _derived({("C", 1): -2, ("C", 4): 127})],
    }
    for g in (letters_to_g(random_letters(rng, max_len=6)) for _ in range(20)):
        for kind, zs in differences.items():
            for z in zs:
                g2 = g_mul(g, z)
                equal = d_equal(g.d_part, g2.d_part, D_TABLE)
                assert equal == g_equal(g, g2, D_TABLE), (g, z)
                assert equal == (kind == "dying"), (g, z)


# a conjugate of g1 by the 6-letter word t a b t B a, beyond the word
# radius: z = g1 g2^-1 is not central, and the central defect dies in
# every quotient
BEYOND_RADIUS = ("a b A t b T", "A b T B A T a b A t b T t a b t B a")


@pytest.mark.parametrize("g1, g2, budget, tested", [
    ("a[0]", "a[0] c[1]", SearchBudget(), 9),
    ("a[0]", "a[0] c[4]", SearchBudget(), 7209),
    ("t a", "t a c[1]", SearchBudget(max_specs=50), 50),
    ("t", "t t", SearchBudget(), 9),
    (*BEYOND_RADIUS, SearchBudget(max_specs=500), 500),
], ids=["readme", "relator-c4", "max-specs", "t-mismatch", "beyond-radius"])
def test_one_triviality_test_per_tested_quotient(g1, g2, budget, tested,
                                                  monkeypatch):
    # the traced benchmark checks that search makes exactly one
    # image_is_trivial call per quotient it counts as tested
    calls = []
    original = FoldedQuotient.image_is_trivial

    def counted(fq, g):
        calls.append(fq)
        return original(fq, g)

    monkeypatch.setattr(FoldedQuotient, "image_is_trivial", counted)
    out = mckinsey_search(parse_word(g1), parse_word(g2), D_TABLE, budget)
    assert out.quotients_tested == len(calls) == tested


@pytest.fixture
def exact_routes(monkeypatch):
    """A list that grows by one for every exact route the search runs."""
    calls = []
    original = search.quotient_conjugate_exact

    def counted(x, y, spec):
        calls.append(spec)
        return original(x, y, spec)

    monkeypatch.setattr(search, "quotient_conjugate_exact", counted)
    return calls


def test_exact_route_runs_only_where_the_defect_survives(exact_routes):
    # a central translate under table:2,3,5: z has a nontrivial image in
    # 350 of the 351 quotients walked, and the defect c_1 survives in 4
    d = parse_d_spec("table:2,3,5")
    g1 = parse_word("a b A t b T")
    g2 = g_conj(g_mul(g1, parse_word("c[1]")), parse_word("A"))
    out = mckinsey_search(g1, g2, d)
    assert (out.verdict, out.witness_spec.name(), out.quotients_tested,
            out.conjugators_tested) == \
        ("non-conjugate", "Q(I=4,m=2)", 351, 1555)
    assert len(exact_routes) == 4
    # a conjugate pair beyond the word radius: the defect dies everywhere
    exact_routes.clear()
    out = mckinsey_search(*map(parse_word, BEYOND_RADIUS), D_TABLE,
                          SearchBudget(max_specs=500))
    assert (out.verdict, out.quotients_tested, out.conjugators_tested) == \
        ("budget-exhausted", 500, 1555)
    assert exact_routes == []


def pruning_pool(rng):
    """(kind, g1, g2) pairs with every shape the defect pruning meets:
    conjugates by words within the word radius and beyond it, central
    translates (twisted when g1 has a nonzero t-exponent), and
    perturbations by one letter."""
    pool = []
    for twist in (0, 0, 1, -2):
        g1 = g_mul(letters_to_g(random_letters(
            rng, max_len=5, idx_range=(-2, 2), exp_range=(-2, 2),
            families="ab")), g_t(twist))

        def word(lo, hi):
            return parse_word(" ".join(rng.choice("tabTAB")
                                       for _ in range(rng.randint(lo, hi))))

        c1 = parse_word(f"c[1]^{rng.choice((1, -1))}")
        pool += [("within", g1, g_conj(g1, word(1, 3))),
                 ("beyond", g1, g_conj(g1, word(6, 7))),
                 ("translate", g1, g_conj(g_mul(g1, c1), word(0, 3))),
                 ("perturbation", g1,
                  g_mul(g_conj(g1, word(1, 3)), word(1, 1)))]
    return pool


@pytest.mark.parametrize("d_spec", D_SPECS[:4])
def test_pruned_search_matches_unpruned_walk(d_spec, exact_routes,
                                             monkeypatch):
    # the search skips the exact route where the central defect dies;
    # the walk that runs it on every spec where z is nontrivial must
    # return the same outcome, all fields
    unpruned = []
    original = conftest.quotient_conjugate_exact
    monkeypatch.setattr(conftest, "quotient_conjugate_exact",
                        lambda *args: unpruned.append(1) or original(*args))
    d = load_d(d_spec)
    budget = SearchBudget(max_specs=300)
    rng = random.Random(d_spec)
    verdicts = set()
    for kind, g1, g2 in pruning_pool(rng):
        out = mckinsey_search(g1, g2, d, budget)
        assert out == unpruned_mckinsey_search(g1, g2, d, budget), \
            (kind, g1, g2)
        verdicts.add(out.verdict)
    assert verdicts == {"conjugate", "non-conjugate", "budget-exhausted"}
    assert len(exact_routes) < len(unpruned)


def test_non_conjugate_pair_walks_no_word(monkeypatch):
    # when the pair's central defect proves it non-conjugate, no word of
    # any length conjugates it: every phase L counts 6**L words, unwalked
    def walked(*args):
        raise AssertionError("a non-conjugate pair walked its words")

    monkeypatch.setattr(search, "_word_phase", walked)
    budget = SearchBudget(max_specs=300)
    relator_pairs = [(parse_word("a[0]"), parse_word(f"a[0] c[{2 ** i}]"))
                     for i in range(3)]
    for d_spec in D_SPECS[:4]:
        d = load_d(d_spec)
        pool = pruning_pool(random.Random(d_spec))
        pairs = [(g1, g2) for kind, g1, g2 in pool
                 if kind in ("translate", "perturbation")] + relator_pairs
        for g1, g2 in pairs:
            assert not conjugacy_decide(g1, g2, d).is_conjugate
            assert mckinsey_search(g1, g2, d, budget) == \
                unpruned_mckinsey_search(g1, g2, d, budget), (d_spec, g1, g2)
    # radius 8 counts the 1 + 6 + ... + 6**8 = (6**9 - 1) / 5 words of
    # phases 0..8
    out = mckinsey_search(*relator_pairs[2], D_TABLE,
                          SearchBudget(max_conj_len=8))
    assert (out.verdict, out.witness_spec.name(), out.quotients_tested,
            out.conjugators_tested) == \
        ("non-conjugate", "Q(I=16,m=127)", 7209, 2_015_539)
    # a conjugate pair still walks its words
    g1 = parse_word("a b A t b T")
    with pytest.raises(AssertionError, match="walked its words"):
        mckinsey_search(g1, g_conj(g1, parse_word("b T a")), D_TABLE)


# ------------------------------------------------------- witness growth

def test_rf_witness_orders():
    assert rf_witness_order(0, D_TABLE) == 2048
    assert rf_witness_order(1, D_TABLE) == make_spec(8, 31, D_TABLE).order()
    assert rf_witness_order(1, D_TABLE, SearchBudget(max_order=10 ** 6)) is None


def test_rf_witness_order_walks_no_position(monkeypatch):
    def walk(ladder, budget):
        raise AssertionError("the witness walked the ladder")

    monkeypatch.setattr(search._Ladder, "walk", walk)
    rows = growth_table(parse_d_spec("table:2,31,127,1021,8191"), range(5))
    assert [r.witness_order.bit_length() for r in rows] == \
        [12, 548, 2891, 15959, 46116]


def test_growth_table_builds_at_most_one_spec_per_row(spec_builds):
    rows = growth_table(parse_d_spec("table:2,31,127,1021,8191"), range(5))
    assert [r.witness_order.bit_length() for r in rows] == \
        [12, 548, 2891, 15959, 46116]
    assert len(spec_builds) <= len(rows)


def test_cold_mckinsey_builds_the_specs_it_tests(spec_builds):
    out = mckinsey_search(parse_word("a[0]"), parse_word("a[0] c[1]"),
                          parse_d_spec("table:2,31,127,1021,8191"))
    assert out.verdict == "non-conjugate"
    assert out.quotients_tested == 9
    assert len(spec_builds) <= out.quotients_tested + search._CHUNK


def test_growth_table_leaves_the_ladder_unsorted():
    d = parse_d_spec("table:2,31,127,1021,8191")
    rows = growth_table(d, range(5))
    assert [r.witness_order.bit_length() for r in rows] == \
        [12, 548, 2891, 15959, 46116]
    assert "pos" not in vars(search._ladder(d))


def test_meeting_matches_one_gcd_per_modulus():
    ladder = search._Ladder(D_TABLE)
    for b in [*range(3001), 8191 * 3, 2 ** 61 - 1, 10 ** 30 + 57]:
        assert list(ladder.meeting(b)) == conftest.reference_meeting(b), b


def test_cold_growth_table_memory():
    # a fresh d keeps its bounds and the keys of the few quotients where
    # each c_{2^i} survives, neither the sorted walk (about 145 KB) nor
    # its ~13k specs; the witness walk builds no folded arithmetic
    tracemalloc.start()
    try:
        rows = growth_table(parse_d_spec("table:2,31,127,1021,8191"), range(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.witness_order.bit_length() for r in rows] == \
        [12, 548, 2891, 15959, 46116]
    assert peak < 4 * 2 ** 20  # 37 KiB measured


def test_growth_table_rows():
    rows = growth_table(D_TABLE, range(4))
    assert [r.i for r in rows] == [0, 1, 2, 3]
    assert [r.word_length for r in rows] == [16, 24, 40, 72]
    expected = [
        2048,
        make_spec(8, 31, D_TABLE).order(),
        make_spec(16, 127, D_TABLE).order(),
        make_spec(32, 1021, D_TABLE).order(),
    ]
    assert [r.witness_order for r in rows] == expected
    assert all(r.decide_seconds >= 0 for r in rows)
    # anchor the witness identities: these quotients keep the relator
    # alive, the natural smaller candidates force it to die
    assert required_c_modulus(16, 4, 127, D_TABLE) == 127
    assert required_c_modulus(32, 8, 1021, D_TABLE) == 1021
    assert required_c_modulus(8, 4, 127, D_TABLE) == 1
    assert required_c_modulus(12, 4, 127, D_TABLE) == 1
    assert required_c_modulus(16, 8, 1021, D_TABLE) == 1
    assert required_c_modulus(24, 8, 1021, D_TABLE) == 1


def shift_window_pool(seed):
    """Seeded pairs (g1, g2) with t-exponent s in {0, +-1, +-2, +-3}:
    conjugates, central translates of conjugates, and abelianization
    perturbations of them, by the letter a_0 or by a shift."""
    rng = random.Random(seed)
    pool = []
    for s in (0, 1, -1, 2, -2, 3, -3):
        for _ in range(3):
            g1 = g_mul(letters_to_g(random_letters(
                rng, max_len=4, idx_range=(-3, 3), exp_range=(-2, 2),
                families="abc")), g_t(s))
            word = " ".join(rng.choice("tabTAB")
                            for _ in range(rng.randrange(1, 5)))
            g2 = g_conj(g1, parse_word(word))
            pool += [(g1, g2), (g1, g_mul(g2, parse_word("c[1]"))),
                     (g1, g_mul(g2, parse_word("a[0]"))),
                     (g1, g_conj(g2, parse_word("b[2]")))]
    return pool


def test_shift_window_matches_unpruned_walk(monkeypatch):
    # the pruned walk and the walk without the shift window return the
    # same (word, position) at every length 0..4; the pruned one builds
    # fewer children
    counts = {"pruned": 0, "unpruned": 0}
    step = search.d_letter_conj

    def counting(walk):
        def counted(*args):
            counts[walk] += 1
            return step(*args)
        return counted

    monkeypatch.setattr(search, "d_letter_conj", counting("pruned"))
    monkeypatch.setattr(conftest, "d_letter_conj", counting("unpruned"))
    pool = shift_window_pool(2027)
    # the edge cases: no final shift at all, g1 in the derived subgroup
    # (every shift is final), and s = 3 with several residues
    g = parse_word("a[0] b[1]^2 t")
    pool += [(g, g_mul(g, parse_word("a[5]"))),
             (parse_word("a[0] b[1] A[0] B[1]"), parse_word("c[1] a[1] A[1]")),
             (parse_word("a[0] a[1] a[2] t^3"),
              parse_word("a[1] a[2] a[3] t^3"))]
    hits = 0
    for g1, g2 in pool:
        for length in range(5):
            want = unpruned_word_phase(g1, g2, D_TABLE, length)
            assert search._word_phase(g1, g2, D_TABLE, length) == want, \
                (g1, g2, length)
            hits += want[0] is not None
    assert hits
    assert counts["pruned"] < counts["unpruned"]


def test_shift_window_edge_cases():
    h = parse_word("a[0] b[1]^2").d_part
    # s = 0: the final shift is unique, or there is none
    assert search._shift_window(h, phi_shift(h, 2), 0, 3) == \
        {sigma: abs(sigma - 2) for sigma in range(-3, 4)}
    assert search._shift_window(h, phi_shift(h, 4), 0, 3) is None
    assert search._shift_window(h, d_mul(h, generator_a(5)), 0, 3) is None
    # g1 in the derived subgroup: every shift is final
    z = parse_word("a[0] b[1] A[0] B[1]").d_part
    assert set(search._shift_window(z, z, 0, 2).values()) == {0}
    # s = 3: a_0 a_1 a_2 folds to the all-ones residue class, which every
    # shift keeps; a_0 a_1 alone is final at shifts 1 mod 3
    ones = parse_word("a[0] a[1] a[2]").d_part
    assert set(search._shift_window(
        ones, parse_word("a[4] a[5] a[9]").d_part, 3, 4).values()) == {0}
    pair = parse_word("a[0] a[1]").d_part
    window = search._shift_window(pair, parse_word("a[1] a[5]").d_part, -3, 4)
    assert [f for f, dist in window.items() if dist == 0] == [-2, 1, 4]
    assert window[0] == window[2] == 1


def history_pool(rng):
    """12 pairs per entry of D_SPECS: conjugates, central translates of
    conjugates and a/b perturbations of conjugates of short words."""
    pool = []
    for d_spec in D_SPECS:
        for i in range(12):
            x = letters_to_g(random_letters(rng, max_len=4, idx_range=(-2, 2),
                                            exp_range=(-2, 2)))
            w = letters_to_g(random_letters(rng, max_len=2, idx_range=(-1, 1),
                                            exp_range=(-1, 1)))
            y = g_conj(x, w)
            if i % 3 == 1:
                y = g_mul(y, GElement(central_c(rng.choice((1, 2, 3, 4)))))
            elif i % 3 == 2:
                y = g_mul(y, GElement(generator_a(rng.randint(-2, 2))))
            pool.append((d_spec, x, y))
    return pool


def test_verdicts_do_not_depend_on_what_ran_before():
    # a verdict must never depend on what ran earlier in the process: two
    # shuffled orders, each with one d shared by the pool and with a
    # fresh d per pair, give the same certificates and search outcomes
    pool = history_pool(random.Random(4))
    budget = SearchBudget(max_conj_len=2, max_specs=64)
    runs = []
    for order_seed in (1, 2):
        order = list(range(len(pool)))
        random.Random(order_seed).shuffle(order)
        for shared in (True, False):
            ds = {d_spec: load_d(d_spec) for d_spec in D_SPECS}
            got = {}
            for i in order:
                d_spec, x, y = pool[i]
                d = ds[d_spec] if shared else load_d(d_spec)
                got[i] = (conjugacy_decide(x, y, d),
                          mckinsey_search(x, y, d, budget))
            runs.append(got)
    for run in runs[1:]:
        assert run == runs[0]
    verdicts = {(cert.verdict, outcome.verdict)
                for cert, outcome in runs[0].values()}
    assert {("conjugate", "conjugate"),
            ("non-conjugate", "non-conjugate")} <= verdicts
