"""Interleaved search for conjugacy evidence.

A pair of elements is either conjugate (witnessed by a conjugator word)
or, when the central exponents make the group conjugacy separable, some
finite quotient separates the pair. Neither side is known in advance, so
the search interleaves the two enumerations: conjugator words by length,
and finite quotients walked in order of (approximate) size from a ladder
of index moduli crossed with prime power exponent moduli.

The quotient walk prunes hard: a quotient can only separate the pair if
it separates z = g1 * g2^-1 from the identity whenever the pair is a
central translate, and more generally equal images can never separate,
so each spec first gets the cheap triviality test of z before any
conjugacy work. Conjugacy inside a quotient is then settled by the exact
coordinate decision, whatever the quotient's order, and a separating
quotient is checked to be well defined for d before it is returned.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from itertools import product
from math import log2
from typing import Optional

from .conjugacy import conjugacy_decide
from .extension import (
    GElement,
    c_witness_word,
    g_equal,
    g_conj,
    g_inv,
    g_mul,
    parse_word,
    word_length,
)
from .nilpotent import central_c, d_mul, generator_a
from .quotients import FiniteQuotientSpec, c_bounds, \
    quotient_conjugate_exact, quotient_is_well_defined, spec_from_bounds

I_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)

_CHUNK = 16  # specs examined between conjugator-word phases


@dataclass(frozen=True)
class SearchBudget:
    max_conj_len: int = 4
    max_order: Optional[int] = None
    max_specs: int = 20000


@dataclass(frozen=True)
class McKinseyOutcome:
    verdict: str  # "conjugate", "non-conjugate", "budget-exhausted"
    conjugator_word: Optional[str] = None
    witness_spec: Optional[FiniteQuotientSpec] = None
    witness_order: Optional[int] = None
    quotients_tested: int = 0
    conjugators_tested: int = 0


def _prime_powers(cap: int):
    sieve = bytearray([1]) * (cap + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(cap ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = b"\x00" * len(sieve[p * p::p])
    out = []
    for p in range(2, cap + 1):
        if sieve[p]:
            q = p
            while q <= cap:
                out.append(q)
                q *= p
    return sorted(out)


_M_CAP = 8192  # the largest exponent modulus on the ladder

# d -> its sorted specs; an entry lives as long as its d object
_STREAM_CACHE = weakref.WeakKeyDictionary()


def spec_stream(d, budget: SearchBudget):
    """Finite quotient specs for this d, smallest first.

    The full grid of the index ladder by the prime powers up to _M_CAP is
    built once per d and sorted by approximate log2 order (the float key
    only orders the walk; all group arithmetic stays exact). Each I reads
    the c-moduli of every m from one c_bounds(I, d) call. The cache is
    keyed by the d object, not its descriptor, which in-memory majorants
    all share; each spec keeps its own folded arithmetic once built, so
    that too lives as long as d. max_order is applied exactly, with the
    float only used to skip the comparison far from the boundary;
    max_specs truncates the tail.
    """
    specs = _STREAM_CACHE.get(d)
    if specs is None:
        ms = _prime_powers(_M_CAP)
        specs = []
        for I in I_LADDER:
            bounds = c_bounds(I, d)
            specs.extend(spec_from_bounds(I, m, bounds) for m in ms)
        specs.sort(key=lambda s: (s.log2_order(), s.index_modulus,
                                  s.exponent_modulus))
        _STREAM_CACHE[d] = specs
    out = []
    for spec in specs:
        if budget.max_order is not None:
            approx = spec.log2_order()
            bound = log2(budget.max_order)
            if approx > bound + 1:
                continue
            if approx > bound - 1 and spec.order() > budget.max_order:
                continue
        out.append(spec)
        if len(out) >= budget.max_specs:
            break
    return out


def _word_batch(length: int):
    if length == 0:
        yield ""
        return
    for letters in product("tabTAB", repeat=length):
        yield " ".join(letters)


def mckinsey_search(g1: GElement, g2: GElement, d,
                    budget: SearchBudget = SearchBudget()) -> McKinseyOutcome:
    """Interleave conjugator-word search with finite-quotient separation."""
    z = g_mul(g1, g_inv(g2))
    specs = spec_stream(d, budget)
    spec_pos = 0
    words_done = 0
    quotients = 0
    length = 0
    while length <= budget.max_conj_len or spec_pos < len(specs):
        if length <= budget.max_conj_len:
            for word in _word_batch(length):
                words_done += 1
                w = parse_word(word)
                if g_equal(g_conj(g1, w), g2, d):
                    return McKinseyOutcome("conjugate", conjugator_word=word,
                                           quotients_tested=quotients,
                                           conjugators_tested=words_done)
            length += 1
        for spec in specs[spec_pos:spec_pos + _CHUNK]:
            quotients += 1
            fq = spec.folded()
            if fq.image_is_trivial(z):
                continue
            x, y = fq.image(g1), fq.image(g2)
            if x == y:
                continue
            if not quotient_conjugate_exact(x, y, spec):
                if not quotient_is_well_defined(spec, d):
                    raise AssertionError(f"{spec.name()} is not well defined "
                                         f"for {d.descriptor}")
                return McKinseyOutcome("non-conjugate",
                                       witness_spec=spec,
                                       witness_order=spec.order(),
                                       quotients_tested=quotients,
                                       conjugators_tested=words_done)
        spec_pos = min(spec_pos + _CHUNK, len(specs))
    return McKinseyOutcome("budget-exhausted",
                           quotients_tested=quotients,
                           conjugators_tested=words_done)


def rf_witness_order(i: int, d, budget: SearchBudget = SearchBudget()):
    """Order of the first streamed quotient in which c_{2^i} survives,
    or None when the budget runs out first. Survival is read off the
    c-moduli (FiniteQuotientSpec.c_survives), so the walk builds no
    folded arithmetic."""
    for spec in spec_stream(d, budget):
        if spec.c_survives(2 ** i):
            return spec.order()
    return None


@dataclass(frozen=True)
class GrowthRow:
    i: int
    word_length: int
    witness_order: Optional[int]
    decide_seconds: float


def growth_table(d, i_values, budget: SearchBudget = SearchBudget()):
    """One row per i: the length of the standard word spelling c_{2^i},
    the order of the smallest streamed quotient separating it from the
    identity, and the wall time of the direct conjugacy decision on the
    pair (a_0, a_0 c_{2^i})."""
    rows = []
    for i in i_values:
        k = 2 ** i
        wl = word_length(c_witness_word(k))
        g1 = GElement(generator_a(0))
        g2 = GElement(d_mul(generator_a(0), central_c(k)))
        t0 = time.perf_counter()
        cert = conjugacy_decide(g1, g2, d)
        elapsed = time.perf_counter() - t0
        if cert.is_conjugate:
            raise AssertionError("a central relator survivor decided conjugate")
        rows.append(GrowthRow(i, wl, rf_witness_order(i, d, budget), elapsed))
    return rows
