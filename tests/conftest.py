"""Shared oracles and generators.

The main oracle is an independent model of the ambient free 2-step
nilpotent group on the generators a_i, b_i: elements are triples
(v, w, z) with v the abelianized exponent vector over keys ('a', i) /
('b', i), w an exponent vector over ordered generator pairs K < L
(the basis commutators [K, L] of the free group), and z a central
vector over the c-indices k >= 1. Multiplication adds a bilinear
cocycle to w: collecting the right factor's generators through the
left factor's produces [L, K]^{v1[L] * v2[K]} for every inverted pair,
so

    gamma(v1, v2)[(K, L)] = -v1[L] * v2[K]   for K < L.

The production code never sees this model. A linear reduction rho maps
it onto the packaged normal form (the pair [a_i, b_j] with i > j
rewrites to AB(j, i) - C(i - j)), and agreement of rho with the
packaged collection over random words is the correctness oracle for
the whole coordinate layer.
"""

import functools
import math
import random
from itertools import compress, product, repeat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from conjlab.conjugacy import REASON_CENTRAL, ConjugacyCertificate, \
    IntegerLinearSystem, _ext_gcd, commutator_bilinear, conj_mod_C, hnf_solve
from conjlab.extension import GElement, g_conj, g_inv, g_mul, parse_word
from conjlab.nilpotent import DElement, _collect, _surviving_c, \
    d_element, d_equal, d_inv, d_letter_conj, d_mul, is_in_C, phi_shift
from conjlab.quotients import FoldedQuotient, _exact_route, _key_cycle, \
    _minus, _orbit_chain_solve, c_bounds, c_fold, c_moduli_from_bounds, \
    quotient_conjugate_exact, quotient_order
from conjlab.search import I_LADDER, _CANCELS, _CHUNK, _LETTERS, _STEPS, \
    McKinseyOutcome, spec_stream
from conjlab.sepfunc import from_table, constant_prime, nth_prime, \
    parse_d_spec
from conjlab.tables import MAX_TABLE_ORDER, FiniteGroupTable

settings.register_profile(
    "conjlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("conjlab")


# ---------------------------------------------------------------- free model

def free_identity():
    return ({}, {}, {})


def _bump(d, key, delta):
    v = d.get(key, 0) + delta
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def free_letter(kind, idx, exp):
    """Oracle element of a single letter a_idx^exp, b_idx^exp, c_idx^exp."""
    if exp == 0:
        return free_identity()
    if kind in ("a", "b"):
        return ({(kind, idx): exp}, {}, {})
    if kind != "c":
        raise ValueError(kind)
    z = {}
    if idx > 0:
        z[idx] = exp
    elif idx < 0:
        z[-idx] = -exp
    return ({}, {}, z)


def free_mul(x, y):
    v1, w1, z1 = x
    v2, w2, z2 = y
    v = dict(v1)
    for key, e in v2.items():
        _bump(v, key, e)
    w = dict(w1)
    for key, e in w2.items():
        _bump(w, key, e)
    for L, eL in v1.items():
        for K, eK in v2.items():
            if K < L:
                _bump(w, (K, L), -eL * eK)
    z = dict(z1)
    for k, e in z2.items():
        _bump(z, k, e)
    return v, w, z


def free_inv(x):
    v, w, z = x
    iv = {k: -e for k, e in v.items()}
    iw = {key: -e for key, e in w.items()}
    keys = list(v)
    for i, K in enumerate(keys):
        for L in keys[i + 1:]:
            P, Q = (K, L) if K < L else (L, K)
            _bump(iw, (P, Q), -v[P] * v[Q])
    iz = {k: -e for k, e in z.items()}
    return iv, iw, iz


def free_shift(x, n):
    v, w, z = x
    sv = {(kind, i + n): e for (kind, i), e in v.items()}
    sw = {((k1, i + n), (k2, j + n)): e
          for ((k1, i), (k2, j)), e in w.items()}
    return sv, sw, dict(z)


def rho(x) -> DElement:
    """Reduce an oracle element to the packaged normal form."""
    v, w, z = x
    a = {i: e for (kind, i), e in v.items() if kind == "a"}
    b = {i: e for (kind, i), e in v.items() if kind == "b"}
    der = {}
    for ((k1, i), (k2, j)), e in w.items():
        if k1 == "a" and k2 == "a":
            _bump(der, ("AA", i, j), e)
        elif k1 == "b" and k2 == "b":
            _bump(der, ("BB", i, j), e)
        elif i <= j:
            _bump(der, ("AB", i, j), e)
        else:
            _bump(der, ("AB", j, i), e)
            _bump(der, ("C", i - j), -e)
    for k, e in z.items():
        _bump(der, ("C", k), e)
    return d_element(a=a, b=b, derived=der)


# oracle for the shift extension: pairs (free element, t exponent)

def og_identity():
    return free_identity(), 0


def og_mul(x, y):
    h1, n1 = x
    h2, n2 = y
    return free_mul(h1, free_shift(h2, n1)), n1 + n2


def og_inv(x):
    h, n = x
    return free_shift(free_inv(h), -n), -n


def rho_g(x) -> GElement:
    h, n = x
    return GElement(rho(h), n)


def og_from_letters(letters):
    acc = og_identity()
    for kind, idx, exp in letters:
        if kind == "t":
            step = (free_identity(), exp)
        else:
            step = (free_letter(kind, idx, exp), 0)
        acc = og_mul(acc, step)
    return acc


# ------------------------------------------------------------- word plumbing

def letters_to_word(letters) -> str:
    tokens = []
    for kind, idx, exp in letters:
        base = "t" if kind == "t" else f"{kind}[{idx}]"
        tokens.append(base if exp == 1 else f"{base}^{exp}")
    return " ".join(tokens)


def banded_letters(rng, n, band=6):
    """n letters over t a b T A B whose running t-exponent stays within
    +-band, as in the conjbench decide pairs: the a- and b-letters then
    land on the 2 band + 1 indices -band..band."""
    letters, pos = [], 0
    for _ in range(n):
        c = rng.choice("tabTAB")
        if (c == "t" and pos >= band) or (c == "T" and pos <= -band):
            c = rng.choice("abAB")
        pos += (c == "t") - (c == "T")
        letters.append((c.lower(), 0, 1 if c.islower() else -1))
    return letters


def random_letters(rng: random.Random, max_len=8, idx_range=(-4, 4),
                   exp_range=(-3, 3), families="abct"):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        kind = rng.choice(families)
        idx = rng.randint(*idx_range)
        if kind == "c" and idx == 0:
            idx = 1
        exp = 0
        while exp == 0:
            exp = rng.randint(*exp_range)
        letters.append((kind, idx, exp))
    return letters


def random_word(rng: random.Random, **kw) -> str:
    return letters_to_word(random_letters(rng, **kw))


LETTER_ELEMENTS = {w: parse_word(w) for w in "tabTAB"}


def conj_ball(x: GElement, depth: int, key):
    """Canonical keys of every conjugate of x by a word of length <= depth,
    via breadth first search over single-letter conjugations."""
    start = key(x)
    seen = {start: x}
    frontier = [x]
    for _ in range(depth):
        nxt = []
        for g in frontier:
            for el in LETTER_ELEMENTS.values():
                h = g_conj(g, el)
                k = key(h)
                if k not in seen:
                    seen[k] = h
                    nxt.append(h)
        frontier = nxt
    return seen


def canonical_key(g: GElement, d):
    """Hashable exact-equality key in the quotient group, for a d whose
    values are all cheap to compute (tables, constants)."""
    der = []
    for key in sorted(g.d_part.derived):
        gamma = g.d_part.derived[key]
        if key[0] == "C":
            k = key[1]
            if k >= 1 and k & (k - 1) == 0:
                gamma %= d.value(k.bit_length() - 1)
        if gamma:
            der.append((key, gamma))
    return (g.t_exp,
            tuple(sorted(g.d_part.a_part.items())),
            tuple(sorted(g.d_part.b_part.items())),
            tuple(der))


# ------------------------------------------------------- hypothesis strategies

idx_st = st.integers(min_value=-4, max_value=4)
nz_idx_st = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
exp_st = st.sampled_from([-3, -2, -1, 1, 2, 3])

_d_letter = st.one_of(
    st.tuples(st.just("a"), idx_st, exp_st),
    st.tuples(st.just("b"), idx_st, exp_st),
    st.tuples(st.just("c"), nz_idx_st, exp_st),
)
letter_st = st.one_of(_d_letter, st.tuples(st.just("t"), st.just(0), exp_st))

letters_st = st.lists(letter_st, max_size=8)
d_letters_st = st.lists(_d_letter, max_size=8)


def letters_to_g(letters) -> GElement:
    acc = GElement()
    for kind, idx, exp in letters:
        acc = g_mul(acc, parse_word(letters_to_word([(kind, idx, exp)])))
    return acc


def d_comm(x: DElement, y: DElement) -> DElement:
    return d_mul(d_mul(d_mul(x, y), d_inv(x)), d_inv(y))


def decide_by_products(g1: GElement, g2: GElement, d) -> ConjugacyCertificate:
    """conjugacy_decide with its final step built from full products, the
    reference for the comparison the decision makes instead: the central
    residue is (w^-1 g1 w) g2^-1, with w^-1 g1 w as two g_mul and a
    g_inv, read off the product's normal form."""
    witness, reason = conj_mod_C(g1, g2)
    if witness is None:
        return ConjugacyCertificate("non-conjugate", reason=reason)
    conj = g_mul(g_mul(g_inv(witness), g1), witness)
    delta = g_mul(conj, g_inv(g2))
    if delta.t_exp != 0 or not is_in_C(delta.d_part):
        raise AssertionError("mod-centre witness left a non-central residue")
    survivor = _surviving_c(delta.d_part, d)
    if survivor is None:
        return ConjugacyCertificate("conjugate", witness=witness)
    return ConjugacyCertificate("non-conjugate", reason=REASON_CENTRAL,
                                obstruction=survivor)


# ------------------------------------------------------------ group tables

def format_table(Q: FiniteGroupTable) -> str:
    lines = [f"order {Q.order}"]
    lines.extend(" ".join(str(v) for v in row) for row in Q.table)
    lines.append(f"alpha {Q.alpha}")
    lines.append(f"beta {Q.beta}")
    lines.append(f"tau {Q.tau}")
    return "\n".join(lines) + "\n"


def from_quotient_spec(fq) -> FiniteGroupTable:
    """Multiplication table of a finite quotient, marking the images of
    a_0, b_0, and t."""
    order = fq.order()
    if order > MAX_TABLE_ORDER:
        raise ValueError(f"order {order} exceeds the cap {MAX_TABLE_ORDER}")

    def frozen(el):  # folded elements are dicts, which do not hash
        return tuple(frozenset(part.items()) for part in el[:3]) + (el[3],)

    elems = list(fq.elements())
    index = {frozen(el): i for i, el in enumerate(elems)}
    table = [[index[frozen(fq.mul(x, y))] for y in elems] for x in elems]
    alpha = index[frozen(from_parts(fq, a={0: 1}))]
    beta = index[frozen(from_parts(fq, b={0: 1}))]
    tau = index[frozen(from_parts(fq, t=1))]
    return FiniteGroupTable(table, alpha, beta, tau)


# -------------------------------------------------------- folded elements

def identity():
    """The identity of every folded quotient."""
    return {}, {}, {}, 0


def from_parts(fq, a=None, b=None, derived=None, t=0):
    """The image in fq of the element of G with these coordinate dicts,
    given in D's coordinates (any indices, unreduced exponents)."""
    return fq.image(GElement(DElement(a or {}, b or {}, derived or {}), t))


# ------------------------------------------------------- the quotient ladder

REPO = Path(__file__).resolve().parents[1]
# eventually constant (two tables, a constant), strictly increasing, and
# program-backed without metadata
D_SPECS = ["table:2,31,127,1021,8191", "table:2,3,5", "constant:3",
           "nth-prime", "program:scripts/programs/linear.rm"]


def load_d(d_spec):
    """parse_d_spec, with a program path taken from the repository root."""
    if d_spec.startswith("program:"):
        d_spec = f"program:{REPO / d_spec[len('program:'):]}"
    return parse_d_spec(d_spec)


@functools.cache
def prime_powers_up_to(cap):
    """The prime powers up to cap, ascending, by trial division."""
    out = []
    for p in range(2, cap + 1):
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            q = p
            while q <= cap:
                out.append(q)
                q *= p
    return tuple(sorted(out))


def reference_meeting(b):
    """The y, ascending, whose y-th prime power up to 8192 shares a prime
    with b (every y for b = 0), by one gcd per modulus: the reference for
    search._Ladder.meeting."""
    ms = prime_powers_up_to(8192)
    return list(compress(range(len(ms)),
                         map((1).__ne__, map(math.gcd, ms, repeat(b)))))


def log2_order(spec):
    """The float log2 order of a built spec."""
    return quotient_order(spec.I, spec.m, spec.c_moduli, log2=True)


def c_survives(spec, n):
    """Whether c_n survives in the quotient, read off its moduli: c_n
    folds onto k = c_fold(n, I) and survives exactly when k != 0 and
    M(k) != 1."""
    k = c_fold(n, spec.I)
    return k != 0 and spec.c_moduli[k - 1] != 1


def eager_ladder(d):
    """Every spec of the grid I_LADDER x prime powers up to 8192, built
    and sorted by (log2 order, I, m): the reference for the order in
    which search walks its lazy ladder."""
    ms = prime_powers_up_to(8192)
    specs = [FoldedQuotient(I, m, c_moduli_from_bounds(m, c_bounds(I, d)))
             for I in I_LADDER for m in ms]
    specs.sort(key=lambda s: (log2_order(s), s.I, s.m))
    return specs


def reference_walk(ladder, budget):
    """The walk positions of a search ladder within budget, one position
    at a time in walk order: max_order is applied exactly, with the float
    key only used to skip the exact comparison far from the bound and to
    stop past it, and max_specs truncates the tail. The reference for
    _Ladder.walk and _Ladder.span."""
    if budget.max_order is None:
        return list(range(min(budget.max_specs, len(ladder.keys))))
    bound = math.log2(budget.max_order)
    out = []
    for j, approx in enumerate(ladder.keys):
        if len(out) >= budget.max_specs or approx > bound + 1:
            break  # the budget is spent, or the keys ascend past it
        if approx > bound - 1 and ladder.order(j) > budget.max_order:
            continue
        out.append(j)
    return out


def orbit_closure_search(fq, key, s):
    """The reference for quotients._key_cycle: breadth-first search
    from a non-central key over rotations by +s and -s, collecting every
    non-central key reached and every central key the rotations touch."""
    nonc, cs = set(), set()
    frontier = [key]
    while frontier:
        cur = frontier.pop()
        if cur in nonc:
            continue
        nonc.add(cur)
        for shift in (s, -s):
            for nk in fq.rotate(({}, {}, {cur: 1}, 0), shift)[2]:
                if nk[0] == "C":
                    cs.add(nk)
                elif nk not in nonc:
                    frontier.append(nk)
    return nonc, cs


# ------------------------------------------------------------------ fixtures

@pytest.fixture
def d_table():
    return from_table([2, 31, 127, 1021, 8191])


@pytest.fixture
def d_const2():
    return constant_prime(2)


@pytest.fixture
def d_nth():
    return nth_prime()


def box_solutions(rows, rhs, bound):
    """Every integer solution of rows * x = rhs with coordinates in
    [-bound, bound], by exhaustive enumeration (numpy-backed)."""
    import numpy as np

    ncols = len(rows[0]) if rows else 0
    if ncols == 0:
        return [()] if all(v == 0 for v in rhs) else []
    A = np.array(rows, dtype=np.int64)
    grid = np.array(list(product(range(-bound, bound + 1), repeat=ncols)),
                    dtype=np.int64)
    hits = (A @ grid.T == np.array(rhs, dtype=np.int64)[:, None]).all(axis=0)
    return [tuple(int(v) for v in row) for row in grid[hits]]


def full_system_conjugate(x, y, fq):
    """The reference for quotients.quotient_conjugate_exact: for each
    t-power n of the conjugator below gcd(s, I) and the abelianized
    solution h0, one integer system over every key of the rotation
    closure of the relevant derived coordinates, with a column per orbit
    generator, a column per non-central key for the derived conjugator
    part, and a slack column per row for its modulus, solved by
    hnf_solve."""
    I, m = fq.I, fq.m
    if x == y:
        return True
    if x[3] != y[3]:
        return False
    s = x[3]
    r = math.gcd(s, I)
    orbits = [[(p - k * s) % I for k in range(I // r)] for p in range(r)]
    for n in range(r):
        xr = fq.rotate(x, -n)
        h0a = _orbit_chain_solve(_minus(fq, y[0], xr[0]), orbits, m)
        h0b = _orbit_chain_solve(_minus(fq, y[1], xr[1]), orbits, m)
        if h0a is None or h0b is None:
            continue
        mid = fq.conj(xr, from_parts(fq, a=h0a, b=h0b))
        assert mid[0] == y[0] and mid[1] == y[1]
        if _full_system(fq, mid, y, s, orbits) is not None:
            return True
    return False


def _full_system(fq, mid, y, s, orbits):
    I, m = fq.I, fq.m

    def modulus(key):
        return fq.c_moduli[key[1] - 1] if key[0] == "C" else m

    ma, mb = mid[0], mid[1]
    kappa_cols = []
    for family in ("a", "b"):
        for orbit in orbits:
            ones = dict.fromkeys(orbit, 1)
            xi_a, xi_b = (ones, {}) if family == "a" else ({}, ones)
            gen = from_parts(fq, a=xi_a, b=xi_b)
            wa, wb, wd, _ = fq.mul(fq.inv(gen), fq.rotate(gen, s))
            assert not (wa or wb)
            terms = commutator_bilinear(ma, mb, xi_a, xi_b).items()
            kappa_cols.append(fq._acc_terms(wd, terms))
    rhs_keys = fq._acc_terms(dict(y[2]),
                             ((key, -v) for key, v in mid[2].items()))
    seeds = set(rhs_keys)
    for col in kappa_cols:
        seeds.update(col)
    nonc_rel, c_rel = set(), set()
    for key in seeds:
        if key[0] == "C":
            c_rel.add(key)
            continue
        oc, cs = orbit_closure_search(fq, key, s)
        nonc_rel |= oc
        c_rel |= cs
    if I % 2 == 0 and ("C", I // 2) in c_rel:
        for i in range(I // 2):
            nonc_rel |= orbit_closure_search(fq, ("AB", i, i + I // 2), s)[0]
    row_keys = sorted(nonc_rel) + sorted(c_rel)
    if not row_keys:
        return ()
    delta_cols = sorted(nonc_rel)
    row_pos = {key: r for r, key in enumerate(row_keys)}
    base = len(kappa_cols)
    slack = base + len(delta_cols)
    rows = [[0] * (slack + len(row_keys)) for _ in row_keys]
    rhs = [rhs_keys.get(key, 0) for key in row_keys]
    for c, col in enumerate(kappa_cols):
        for key, v in col.items():
            rows[row_pos[key]][c] = v
    for c, key in enumerate(delta_cols):
        rows[row_pos[key]][base + c] -= 1
        for nk, v in fq.rotate(({}, {}, {key: 1}, 0), s)[2].items():
            mod = modulus(nk)
            rows[row_pos[nk]][base + c] += v - mod if 2 * v > mod else v
    for r, key in enumerate(row_keys):
        rows[r][slack + r] = modulus(key)
    return hnf_solve(IntegerLinearSystem(tuple(map(tuple, rows)), tuple(rhs)))


def folded_power(fq, x, n):
    """x^n for an x of t-exponent 0, in closed form: the a- and b-parts
    and the derived part scale by n, and each of the n(n-1)/2 ordered
    pairs of factors adds the collection correction corr(x, x)."""
    a, b, der, _ = x
    pairs = n * (n - 1) // 2
    corr = {}
    _collect(corr, a, b, a, b)
    raw = {key: n * v for key, v in der.items()}
    for key, v in corr.items():
        raw[key] = raw.get(key, 0) + pairs * v
    return fq._fold({i: n * v for i, v in a.items()},
                    {i: n * v for i, v in b.items()}, raw, 0)


def quotient_conjugator(x, y, fq):
    """A conjugator g with conj(x, g) == y in the quotient, rebuilt from
    the solved quotients._exact_route, or None when
    quotient_conjugate_exact(x, y, fq) is False: g = t^n h0 kappa delta,
    a t-power, the particular abelian solution, powers of the orbit
    generators, and derived coordinates walked along their cycles."""
    if x == y:
        return identity()
    found = _exact_route(fq, x, y)
    if found is None:
        return None
    n, h0, (gens, rows, cycles, sol) = found
    g = fq.mul(from_parts(fq, t=n), h0)
    for c, (b_family, orbit) in enumerate(gens):
        v = sol.get(c)
        if v:
            ones = dict.fromkeys(orbit, 1)
            gen = (from_parts(fq, b=ones) if b_family
                   else from_parts(fq, a=ones))
            g = fq.mul(g, folded_power(fq, gen, v))
    delta: dict = {}
    base = len(gens)
    for idx, start in enumerate(cycles):
        # delta at the next key is sign * delta here plus that key's
        # kappa terms minus its right-hand side
        d = sol.get(base + idx, 0)
        carry = 0
        for key, sign, _ in _key_cycle(fq, start, x[3]):
            if key != start:
                coeffs, rhs = rows.get(key, ({}, 0))
                d = (carry - rhs
                     + sum(w * sol.get(c, 0) for c, w in coeffs.items())) \
                    % fq.m
            if d:
                delta[key] = d
            carry = sign * d
    return fq.mul(g, from_parts(fq, derived=delta))


# ------------------------------------------------------- congruence merge

def merge_congruence(state, a, c, modulus):
    """Intersect state = (residue, period) with a*x = c (mod modulus): the
    gcd-only one-variable merge that fixed the commutator equation's
    integrality parameter before solve_congruences did, kept as the
    reference for conjugacy._lam_step."""
    g = math.gcd(a, modulus)
    if c % g:
        return None
    if modulus == g:
        return state
    m2 = modulus // g
    a2, c2 = (a // g) % m2, (c // g) % m2
    _, inv, _ = _ext_gcd(a2, m2)
    r2 = (c2 * inv) % m2
    r1, m1 = state
    gg = math.gcd(m1, m2)
    if (r2 - r1) % gg:
        return None
    _, p, _ = _ext_gcd(m1 // gg, m2 // gg)
    lcm = m1 // gg * m2
    r = (r1 + m1 * ((r2 - r1) // gg) * p) % lcm
    return r, lcm


# ------------------------------------------------------- the word walk

def unpruned_word_phase(g1: GElement, g2: GElement, d, length: int):
    """The reference for search._word_phase: the same depth-first walk
    over product("tabTAB", repeat=length) with the cancelling-pair
    pruning only, every other child built and every leaf compared. The
    first conjugating word and its 1-based position, or (None, 6**length).
    """
    n = len(_LETTERS)
    s = g1.t_exp
    if s != g2.t_exp:
        return None, n ** length
    h2 = g2.d_part
    if length == 0:
        return ("" if d_equal(g1.d_part, h2, d) else None), 1
    path, conj = [], [g1.d_part]
    reached = 0
    i = 0
    while True:
        if i == n:
            if not path:
                return None, reached
            conj.pop()
            i = path.pop() + 1
            continue
        if path and i == _CANCELS[path[-1]]:
            reached += n ** (length - len(path) - 1)
            i += 1
            continue
        family, e = _STEPS[i]
        if family == "t":
            c = phi_shift(conj[-1], -e)
        else:
            c = d_letter_conj(conj[-1], family, e, s)
        if len(path) + 1 < length:
            path.append(i)
            conj.append(c)
            i = 0
            continue
        reached += 1
        if d_equal(c, h2, d):
            return " ".join(_LETTERS[j] for j in path + [i]), reached
        i += 1


# ------------------------------------------------------- the quotient walk

def unpruned_mckinsey_search(g1: GElement, g2: GElement, d, budget):
    """The reference for search.mckinsey_search: word phase L, then the
    next _CHUNK specs of spec_stream(d, budget), until both run out, with
    the exact route run on every spec where z = g1 g2^-1 has a nontrivial
    image, and no central defect read."""
    z = g_mul(g1, g_inv(g2))
    specs = spec_stream(d, budget)
    words = quotients = 0
    step = 0
    while True:
        if step <= budget.max_conj_len:
            word, reached = unpruned_word_phase(g1, g2, d, step)
            words += reached
            if word is not None:
                return McKinseyOutcome("conjugate", conjugator_word=word,
                                       quotients_tested=quotients,
                                       conjugators_tested=words)
        chunk = specs[step * _CHUNK:(step + 1) * _CHUNK]
        for fq in chunk:
            quotients += 1
            if fq.image_is_trivial(z):
                continue
            if not quotient_conjugate_exact(fq.image(g1), fq.image(g2),
                                            fq):
                return McKinseyOutcome("non-conjugate", witness_spec=fq,
                                       witness_order=fq.order(),
                                       quotients_tested=quotients,
                                       conjugators_tested=words)
        step += 1
        if step > budget.max_conj_len and len(chunk) < _CHUNK:
            return McKinseyOutcome("budget-exhausted",
                                   quotients_tested=quotients,
                                   conjugators_tested=words)
