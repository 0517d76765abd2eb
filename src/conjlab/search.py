"""Interleaved search for conjugacy evidence.

A pair of elements is either conjugate (witnessed by a conjugator word)
or, when the central exponents make the group conjugacy separable, some
finite quotient separates the pair. Neither side is known in advance, so
the search interleaves the two enumerations: conjugator words by length,
and finite quotients walked in order of (approximate) size from a ladder
of index moduli crossed with prime power exponent moduli.

The words of one length are walked as a tree over the letters tabTAB,
depth first in the order of itertools.product, so at most one conjugate
per depth is alive. Each conjugate comes from its parent's: if
c_w = w^-1 g1 w then c_wx = x^-1 c_w x, with no word text parsed. For
c_w = (h, s) and a letter x of D that is x^-1 h phi_s(x), one copy of
h's dicts and two one-letter calls of the collection kernel
(nilpotent.d_letter_conj); a t-letter shifts h. Four exact prunings keep
the walk's result and counts those of the plain enumeration:

* a word with a cancelling pair (tT, Tt, aA, Aa, bB, Bb) equals a word
  two letters shorter, which an earlier phase already tested without a
  hit, so its subtree is counted but not built;
* the relators only touch central C coordinates, so a conjugate equal
  to g2 has g2's t-exponent and g2's a- and b-parts. Conjugation keeps
  the t-exponent, so a mismatch there fails a whole phase at once;
  otherwise the D-parts are compared by nilpotent.d_equal, which
  tests the central difference of the derived parts only when the a-
  and b-parts agree;
* with P(h) the a- and b-parts of h as Laurent polynomials in X, an a-
  or b-letter adds +-(X^s - 1) e_x to P and a t-letter multiplies it by
  X^-+1, so every conjugate has P(c_w) = X^sigma P(g1) modulo X^s - 1,
  sigma the net shift of w (the invariant; modulo 0 for s = 0). A hit
  needs P(c_w) = P(g2), so a final shift f with X^f P(g1) = P(g2)
  modulo X^s - 1. A prefix at net shift sigma with r letters left ends
  within r of sigma, so its subtree is counted but not built when no
  final shift lies that close, and a phase with no final shift in
  -L..L fails at once (_shift_window);
* a pair with no conjugator modulo the centre, or whose central defect
  delta (conjugacy.central_defect) keeps a coordinate that survives
  under d (the test conjugacy_decide applies), is not conjugate in G_d,
  so no word of any length conjugates it: each phase L counts its 6**L
  words and walks none. The defect is made once, before phase 0, and
  shared by the word walk and the quotient walk.

The quotient ladder of each d is a grid of Q(I, m) with the
c_bounds(I, d) of each I, walked in the order of the float log2 orders
of its quotients. The walk is sorted on first use as flat keys, a grid
position and a key for each of its 12,936 cells, about 145 KB: each I's
row of keys is one pass over a log2 table of the moduli m, and only the
few m that share a prime with a bound are recomputed. A budget cuts the
walk to a span read off the sorted keys by bisection (_Ladder.span). A
spec is built only when a walk reaches it, and then kept as long as d.
The search builds the specs it tests and spec_stream every spec it
returns, so both sort the walk. The witnesses of growth_table rank the
quotients in which c_{2^i} survives by key, read off the bounds: under a
budget that spans the whole ladder the first of them is the witness, so
a fresh d keeps its bounds and computes a few keys, and sorts nothing.

The quotient walk prunes hard, and each pruning keeps the walk's result
and counts those of the plain enumeration, which runs the exact route on
every spec where z = g1 * g2^-1 has a nontrivial image:

* equal images can never separate, and the image is a homomorphism, so
  the images of g1 and g2 agree exactly when z maps to the identity.
  Each spec first gets that triviality test of z, once per tested spec,
  before any conjugacy work; for a central z (the relator pairs) it
  reads the folded C exponents alone;
* when a conjugator w modulo the centre exists, w^-1 g1 w = g2 delta
  for the pair's central defect delta, the one the word walk reads. In
  every quotient where delta dies (FoldedQuotient.kills) the image of w
  conjugates the images, so that quotient cannot separate the pair and
  gets no conjugacy work.

Conjugacy inside any other quotient is settled by the exact coordinate
decision, whatever the quotient's order, and a separating quotient is
checked to be well defined for d before it is returned.
"""

from __future__ import annotations

import time
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, filterfalse, islice
from math import gcd, log2, prod
from typing import Optional

from .conjugacy import central_defect, conjugacy_decide
from .extension import GElement, c_witness_word, g_inv, g_mul, word_length
from .nilpotent import DElement, _surviving_c, central_c, d_equal, \
    d_letter_conj, d_mul, generator_a, phi_shift
from .quotients import FoldedQuotient, c_bounds, c_fold, \
    c_moduli_from_bounds, coordinate_count, quotient_conjugate_exact, \
    quotient_is_well_defined, quotient_order

I_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)

_CHUNK = 16  # specs examined between conjugator-word phases


@dataclass(frozen=True)
class SearchBudget:
    max_conj_len: int = 4
    max_order: Optional[int] = None
    max_specs: int = 20000

    def __post_init__(self):
        if self.max_conj_len < 0:
            raise ValueError(f"max-conj-len must be at least 0, "
                             f"got {self.max_conj_len}")
        if self.max_specs < 0:
            raise ValueError(f"max-specs must be at least 0, "
                             f"got {self.max_specs}")
        if self.max_order is not None and self.max_order < 1:
            raise ValueError(f"max-order must be at least 1, "
                             f"got {self.max_order}")


@dataclass(frozen=True)
class McKinseyOutcome:
    verdict: str  # "conjugate", "non-conjugate", "budget-exhausted"
    conjugator_word: Optional[str] = None
    witness_spec: Optional[FoldedQuotient] = None
    witness_order: Optional[int] = None
    quotients_tested: int = 0
    # position of the last word reached in the full product order of
    # the phases run, whether counted or walked, words skipped by the
    # word-walk prunings included: a hit's position, or the sum of 6**L
    # over those phases
    conjugators_tested: int = 0


def _primes(cap: int):
    sieve = bytearray([1]) * (cap + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(cap ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = b"\x00" * len(sieve[p * p::p])
    return compress(range(cap + 1), sieve)


def _prime_powers(primes, cap: int):
    out = []
    for p in primes:
        q = p
        while q <= cap:
            out.append(q)
            q *= p
    return sorted(out)


_M_CAP = 8192  # the largest exponent modulus on the ladder
_PRIMES = tuple(_primes(_M_CAP))
_PRIMORIAL = prod(_PRIMES)
_MS = tuple(_prime_powers(_PRIMES, _M_CAP))
_LOG2_MS = tuple(map(log2, _MS))
_GRID = len(I_LADDER) * len(_MS)


class _Ladder:
    """The walk order of the grid I_LADDER x _MS for one d, as flat keys.

    bounds[x] is c_bounds(I_LADDER[x], d). Grid position g = x * len(_MS)
    + y stands for Q(I_LADDER[x], _MS[y]), and its key is the float log2
    order quotient_order(I, m, moduli, log2=True) on the spec's own
    moduli (key(g)). Walk position j holds the grid position pos[j] and
    its key keys[j]. Grid positions ascend with (I, m), so a stable sort
    by key walks in (key, I, m) order. specs is the prefix of the walk
    built so far: a quotient is built when a walk first reaches it and
    is kept as long as the ladder.

    A fresh ladder holds bounds and the primes of each bound it was asked
    about, nothing per grid cell. pos and keys, about 145 KB, are sorted
    on first use: a build, a position or order query, or a span under a
    max_order. A span with no max_order reads only the grid size, so a
    walk is sorted when it builds its first spec. No key is kept in grid
    order: key(g) recomputes one when it is asked for.

    An m prime to every nonzero B(k) has M(k) = m where B(k) = 0 and M(k)
    = 1 elsewhere, so its key is log2 I + n log2 m, n the coordinates and
    the free central indices of I: each row is one pass over the log2
    table of _MS, and only the m that share a prime with a nonzero B(k)
    are recomputed.
    """

    def __init__(self, d):
        self.bounds = [c_bounds(I, d) for I in I_LADDER]
        self._primes = {}
        self.specs = []

    @cached_property
    def pos(self):
        """The grid position at each walk position, sorted on first use;
        the sort also sets keys."""
        keys = []
        for I, bounds in zip(I_LADDER, self.bounds):
            row = len(keys)
            base, n = log2(I), coordinate_count(I) + bounds.count(0)
            keys += [base + n * lm for lm in _LOG2_MS]
            for y in set().union(*map(self.meeting, set(bounds) - {0, 1})):
                keys[row + y] = self.key(row + y)
        pos = array("H", sorted(range(len(keys)), key=keys.__getitem__))
        keys.sort()
        self.keys = array("d", keys)
        return pos

    @cached_property
    def keys(self):
        """The key at each walk position (see pos)."""
        self.pos  # sorts the walk and sets keys
        return vars(self)["keys"]

    def _quotient(self, g):
        """I, m and the c-moduli of the quotient at grid position g."""
        x, y = divmod(g, len(_MS))
        m = _MS[y]
        return I_LADDER[x], m, c_moduli_from_bounds(m, self.bounds[x])

    def key(self, g) -> float:
        """The key of grid position g, equal bit for bit to keys[j] where
        pos[j] = g."""
        return quotient_order(*self._quotient(g), log2=True)

    def order(self, j) -> int:
        """The exact order of the quotient at walk position j, unbuilt."""
        return quotient_order(*self._quotient(self.pos[j]))

    def position(self, g, key) -> int:
        """The walk position of grid position g, whose key is key."""
        j = bisect_left(self.keys, key)
        while self.pos[j] != g:  # equal keys walk in grid order
            j += 1
        return j

    def primes(self, b):
        """The primes p <= _M_CAP, ascending, that divide b (every one for
        b = 0), kept per b. They divide g = gcd(b, the product of those
        primes), which has no square factor, so trial division stops at
        the square root of what is left of g, and what is left then is 1
        or one more prime."""
        ps = self._primes.get(b)
        if ps is None:
            if b == 0:
                ps = _PRIMES
            else:
                g, ps = gcd(b, _PRIMORIAL), []
                for p in _PRIMES:
                    if p * p > g:
                        break
                    if g % p == 0:
                        ps.append(p)
                        g //= p
                if g > 1:
                    ps.append(g)
                ps = tuple(ps)
            self._primes[b] = ps
        return ps

    def meeting(self, b):
        """The y, ascending, whose _MS[y] shares a prime with b (every y
        for b = 0): the positions of the powers of primes(b)."""
        ys = []
        for p in self.primes(b):
            q = p
            while q <= _M_CAP:
                ys.append(bisect_left(_MS, q))
                q *= p
        return sorted(ys)

    def built(self, n):
        """specs, with the first n walk positions built."""
        specs = self.specs
        for g in self.pos[len(specs):n]:
            specs.append(FoldedQuotient(*self._quotient(g)))
        return specs

    def span(self, budget: SearchBudget):
        """The walk within budget as (stop, skipped): the positions below
        stop that are not in skipped, in walk order. max_order is applied
        exactly: a key at most log2 max_order - 1 passes unchecked, none
        past log2 max_order + 1 passes, and only the band between gets an
        exact order check. max_specs counts the positions that pass."""
        stop = min(budget.max_specs, _GRID)
        skipped = set()
        if budget.max_order is None:
            return stop, skipped
        bound = log2(budget.max_order)
        j = min(bisect_right(self.keys, bound - 1), stop)
        end = bisect_right(self.keys, bound + 1)
        while j < end and j - len(skipped) < budget.max_specs:
            if self.order(j) > budget.max_order:
                skipped.add(j)
            j += 1
        return j, skipped

    def walk(self, budget: SearchBudget):
        """The walk positions within budget, in walk order (see span)."""
        stop, skipped = self.span(budget)
        return filterfalse(skipped.__contains__, range(stop))


# d -> its _Ladder; an entry lives as long as its d object
_STREAM_CACHE = weakref.WeakKeyDictionary()


def _ladder(d) -> _Ladder:
    """The ladder of d, made on first use. The cache is keyed by the d
    object, not its descriptor, which in-memory majorants all share."""
    ladder = _STREAM_CACHE.get(d)
    if ladder is None:
        ladder = _STREAM_CACHE[d] = _Ladder(d)
    return ladder


def spec_stream(d, budget: SearchBudget):
    """Finite quotient specs for this d within budget, smallest first.

    The walk order of the index ladder by the prime powers up to _M_CAP
    is sorted once per d as flat float keys (see _Ladder; the key only
    orders the walk, all group arithmetic stays exact). This list builds
    every spec it returns; the search and the witness walk read the
    same order lazily instead. The result is a fresh list.
    """
    ladder = _ladder(d)
    walk = list(ladder.walk(budget))
    specs = ladder.built(walk[-1] + 1 if walk else 0)
    return [specs[j] for j in walk]


_LETTERS = "tabTAB"
# per letter x: its family and exponent, and the index of x^-1 in _LETTERS
_STEPS = tuple((x.lower(), 1 if x.islower() else -1) for x in _LETTERS)
_CANCELS = tuple(_LETTERS.index(x.swapcase()) for x in _LETTERS)


def _word_phase(g1: GElement, g2: GElement, d, length: int):
    """The first word of this length, in the order of
    product(_LETTERS, repeat=length), that conjugates g1 to g2, with its
    1-based position in that order; (None, 6**length) when none does.

    Depth-first from a prefix stack: conj[k] is the D-part of g1
    conjugated by the first k letters of path, and shift[k] the net
    shift of those letters. Conjugation keeps the t-exponent s, so a
    mismatch settles every word at once, and otherwise every conjugate
    is (conj[k], s). Words with a cancelling pair, and words whose net
    shift cannot end in the window of _shift_window, are counted but not
    built (see the module docstring); the caller only reaches this
    length after every shorter one failed.
    """
    n = len(_LETTERS)
    s = g1.t_exp
    if s != g2.t_exp:
        return None, n ** length
    h1, h2 = g1.d_part, g2.d_part
    if length == 0:
        return ("" if d_equal(h1, h2, d) else None), 1
    window = _shift_window(h1, h2, s, length)
    if window is None:
        return None, n ** length
    path, conj, shift = [], [h1], [0]
    reached = 0
    i = 0
    while True:
        if i == n:
            if not path:
                return None, reached
            conj.pop()
            shift.pop()
            i = path.pop() + 1
            continue
        left = length - len(path) - 1  # letters after this one
        if path and i == _CANCELS[path[-1]]:
            reached += n ** left
            i += 1
            continue
        family, e = _STEPS[i]
        sigma = shift[-1] - e if family == "t" else shift[-1]
        if window[sigma] > left:
            reached += n ** left
            i += 1
            continue
        if family == "t":
            c = phi_shift(conj[-1], -e)
        else:
            c = d_letter_conj(conj[-1], family, e, s)
        if left:
            path.append(i)
            conj.append(c)
            shift.append(sigma)
            i = 0
            continue
        reached += 1
        if d_equal(c, h2, d):
            return " ".join(_LETTERS[j] for j in path + [i]), reached
        i += 1


def _ab_mod(part: dict, n: int, shift: int = 0) -> dict:
    """The exponents of part moved up by shift, read modulo X^n - 1 for
    n > 0 (index i counts at i mod n) and exactly for n = 0."""
    if not n:
        return {i + shift: e for i, e in part.items()}
    out: dict = {}
    for i, e in part.items():
        r = (i + shift) % n
        out[r] = out.get(r, 0) + e
    return {r: e for r, e in out.items() if e}


def _shift_window(h1, h2, s: int, length: int):
    """For each net shift sigma in -length..length, its distance to the
    nearest final shift, or None when no word of this length can end at
    one. A final shift f has X^f P(h1) = P(h2) modulo X^|s| - 1, P the
    a- and b-parts as Laurent polynomials (exactly, for s = 0); a word
    whose prefix reaches sigma with r letters left ends within r of
    sigma."""
    n = abs(s)
    a2, b2 = _ab_mod(h2.a_part, n), _ab_mod(h2.b_part, n)
    finals = [f for f in range(-length, length + 1)
              if _ab_mod(h1.a_part, n, f) == a2
              and _ab_mod(h1.b_part, n, f) == b2]
    if not finals:
        return None
    return {sigma: min(abs(sigma - f) for f in finals)
            for sigma in range(-length, length + 1)}


def mckinsey_search(g1: GElement, g2: GElement, d,
                    budget: SearchBudget = SearchBudget()) -> McKinseyOutcome:
    """Interleave conjugator-word search with finite-quotient separation.

    Phase L walks the words of length L as a tree (see _word_phase), then
    the next _CHUNK positions of the ladder walk are tried, each spec
    built when the walk first reaches it, until both walks run out. The
    first conjugating word and the first separating quotient are exact
    witnesses, whichever comes first is returned.

    The pair's central defect is made once, before phase 0. When it
    proves the pair non-conjugate in G_d, as conjugacy_decide reads it,
    phase L counts its 6**L words without walking them. A tested spec
    where z = g1 g2^-1 has a nontrivial image goes to the exact route,
    unless the defect dies there: then the images are conjugate (see
    the module docstring). The verdict, witnesses and both counts are
    those of walking every phase and running the exact route on every
    such spec.
    """
    z = g_mul(g1, g_inv(g2))
    w, delta = central_defect(g1, g2)
    conjugate = w is not None and \
        _surviving_c(DElement({}, {}, delta), d) is None
    ladder = _ladder(d)
    walk = ladder.walk(budget)
    more_specs = True
    words_done = 0
    quotients = 0
    length = 0
    while length <= budget.max_conj_len or more_specs:
        if length <= budget.max_conj_len:
            if conjugate:
                word, reached = _word_phase(g1, g2, d, length)
            else:  # no word conjugates the pair
                word, reached = None, len(_LETTERS) ** length
            words_done += reached
            if word is not None:
                return McKinseyOutcome("conjugate", conjugator_word=word,
                                       quotients_tested=quotients,
                                       conjugators_tested=words_done)
            length += 1
        chunk = list(islice(walk, _CHUNK))
        more_specs = len(chunk) == _CHUNK
        specs = ladder.built(chunk[-1] + 1) if chunk else ()
        for j in chunk:
            fq = specs[j]
            quotients += 1
            if fq.image_is_trivial(z):  # otherwise the images differ
                continue
            if w is not None and fq.kills(delta):  # images conjugate by w
                continue
            x, y = fq.image(g1), fq.image(g2)
            if not quotient_conjugate_exact(x, y, fq):
                if not quotient_is_well_defined(fq, d):
                    raise AssertionError(f"{fq.name()} is not well defined "
                                         f"for {d.descriptor}")
                return McKinseyOutcome("non-conjugate",
                                       witness_spec=fq,
                                       witness_order=fq.order(),
                                       quotients_tested=quotients,
                                       conjugators_tested=words_done)
    return McKinseyOutcome("budget-exhausted",
                           quotients_tested=quotients,
                           conjugators_tested=words_done)


def rf_witness_order(i: int, d, budget: SearchBudget = SearchBudget()):
    """Order of the first quotient of spec_stream(d, budget) in which
    c_{2^i} survives, or None when the budget runs out first.

    Survival is read off the ladder's bounds: c_{2^i} folds onto k =
    c_fold(2^i, I) and survives in Q(I, m) exactly when k != 0 and M(k) =
    gcd(m, B(k)) != 1. So B(k) = 1 keeps it in no Q(I, m), B(k) = 0 in
    every one, and otherwise it survives for the m that share a prime
    with B(k) (_Ladder.primes, once per distinct B). Along the powers of
    one prime p the key and the exact order of Q(I, p^e) grow with e, so
    Q(I, p^e) is walked after Q(I, p) and passes the budget only when
    Q(I, p) does: the primes p are the candidates, ranked by (key, I, m),
    the walk order. When the budget spans the whole ladder the first
    candidate wins, and the walk is never sorted; otherwise each is
    placed in the sorted walk by bisection, and the first within the
    span wins. The order is the closed form on its moduli, so no
    position is walked and no spec is built.
    """
    ladder = _ladder(d)
    stop, skipped = ladder.span(budget)
    width = len(_MS)
    survivors = []  # (key, grid position) of each candidate
    for x, (I, bounds) in enumerate(zip(I_LADDER, ladder.bounds)):
        k = c_fold(2 ** i, I)
        for p in ladder.primes(bounds[k - 1]) if k else ():
            g = x * width + bisect_left(_MS, p)
            survivors.append((ladder.key(g), g))
    cut = stop < _GRID or skipped
    for key, g in sorted(survivors):  # walk order
        if cut:  # place g in the sorted walk
            j = ladder.position(g, key)
            if j >= stop:
                break
            if j in skipped:
                continue
        return quotient_order(*ladder._quotient(g))
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
    pair (a_0, a_0 c_{2^i}). The witness orders come from rf_witness_order,
    so a fresh d pays the keys of the few quotients in which c_{2^i}
    survives: it builds no spec, and under a budget that spans the whole
    ladder it leaves the walk unsorted."""
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
