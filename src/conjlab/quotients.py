"""Finite quotients by index folding and exponent truncation.

Folding the generator index modulo I identifies a_i with a_{i mod I} and
makes t^I central; truncating every a/b and non-central derived exponent
modulo m and each central coordinate c_k modulo a per-index modulus M(k)
leaves a finite group. Indices of c fold as c_0 = 1 and c_{I-k} = c_k^{-1},
so the canonical c-indices are 1..I//2, with c_{I/2} forced 2-torsion when
I is even.

M(k) must divide m and every d(j) whose relator c_{2^j}^{d(j)} folds onto
index k or I-k. The residues 2^j mod I split into a pre-periodic part
(j below the 2-adic valuation of I) and a cycle hit by infinitely many j;
relator_folds(I, d) lists, for each k, the finitely many j whose d(j)
must be read and the constant tail of d on the cycle. Only an eventually
constant d has such a tail; any other d is unbounded along the cycle and
kills the index outright (modulus 1), which is always a legitimate
quotient.

c_bounds(I, d) makes that pass once per I: the bound B(k) does not
depend on m, so M(k) = gcd(m, B(k)) for every m, and the spec ladder
reads all of its moduli from one list per I. A quotient is one value,
FoldedQuotient(I, m, c_moduli), with the moduli flat, (M(1), ...,
M(I//2)). It refuses moduli under which the folded coordinates form no
group: one that does not divide m, or one at k = I/2 that does not
divide 2. So its arithmetic is always a group.

Element form: (a, b, derived, t), the coordinates of D folded. a and b
map residues 0..I-1 to exponents mod m. derived is keyed as
DElement.derived: the folded basis keys AA(i<j), AB(i<=j), BB(i<j) map
to exponents mod m, and each central key ("C", k) with k in 1..I//2 and
M(k) > 1 to its exponent mod M(k). t is the t-exponent mod I. The dicts
hold only nonzero, reduced coordinates, so equal elements compare equal
and no operation pays for the O(I^2) full layout. One fold on D's
collection kernel, FoldedQuotient._fold, builds every element. An
element's coordinates are also D's for a preimage in G (_lift), and
image is a homomorphism, so mul, inv and conj fold G's product, inverse
and conjugate of the lifts. image_is_trivial settles an element before
it from its t-exponent, or from the folded C exponents when it is
central (kills). Elements are values: no operation mutates its
arguments, and a caller that needs a hashable key freezes the dicts
itself. A quotient's order is the closed formula quotient_order(I, m,
moduli), which the search ladder also reads without building the
quotient.

Conjugacy inside a quotient is decided by quotient_conjugate_exact, in
time polynomial in I rather than in the group order: the abelianized
equation is solved orbit by orbit of the index shift, and the derived
coordinates cycle by cycle of their rotation (_derived_stage), which
leaves one small system of congruences, a row per cycle and per central
key, solved modulo m by conjugacy.solve_congruences, which eliminates
over Z/m without factoring m. finite_conjugate enumerates the whole
quotient; it is the reference that the exact route is checked against
on orders up to a few thousand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat

from .conjugacy import commutator_bilinear, solve_congruences
from .extension import GElement, g_conj, g_inv, g_mul
from .nilpotent import DElement, _collect, aa_terms, ab_terms, bb_terms

_ENUMERATION_CAP = 4096  # largest order finite_conjugate enumerates


# the folded basis terms of one non-central commutator, by its kind
_TERMS = {"AA": aa_terms, "AB": ab_terms, "BB": bb_terms}


@dataclass(frozen=True)
class FoldedQuotient:
    """The finite quotient Q(I, m) with the c-moduli (M(1), ..., M(I//2)),
    and the arithmetic of its elements.

    m is the a/b/non-central exponent modulus. __post_init__ refuses
    moduli under which the folded coordinates form no group, so every
    instance is a group; a central index of modulus 1 never appears in
    an element. Instances are values: equal (I, m, c_moduli) compare and
    hash equal. _fold is the one fold onto the element form: image and
    rotate are calls of it, and mul, inv and conj fold G's product,
    inverse and conjugate of the lifts (_lift).
    """

    I: int
    m: int
    c_moduli: tuple  # (M(1), ..., M(I//2))

    def __post_init__(self):
        I, m = self.I, self.m
        if I < 1 or m < 2:
            raise ValueError("need I >= 1 and m >= 2")
        if not isinstance(self.c_moduli, tuple):
            raise TypeError("c_moduli must be a tuple")
        if len(self.c_moduli) != I // 2:
            raise ValueError("c_moduli must hold M(k) for k = 1..I//2")
        for k, mod in enumerate(self.c_moduli, 1):
            if mod < 1:
                raise ValueError("moduli must be positive")
            # otherwise the folded coordinates do not multiply as a group
            if m % mod:
                raise ValueError("every c-modulus must divide m")
            if 2 * k == I and 2 % mod:
                raise ValueError("the c-modulus at k = I/2 must divide 2")

    def name(self) -> str:
        return f"Q(I={self.I},m={self.m})"

    def order(self) -> int:
        return quotient_order(self.I, self.m, self.c_moduli)

    @staticmethod
    def _acc_exp(dest, key, v, mod):
        v = (dest.get(key, 0) + v) % mod
        if v:
            dest[key] = v
        else:
            dest.pop(key, None)

    def _acc_terms(self, der, terms):
        """Add (basis key, coefficient) pairs whose a/b indices are already
        folded into the derived dict der, and return der. This is where a
        central index folds into 1..I//2, through c_0 = 1 and
        c_{I-k} = c_k^{-1}."""
        I, m, c_moduli = self.I, self.m, self.c_moduli
        for key, v in terms:
            mod = m
            if key[0] == "C":
                k = key[1] % I
                if 2 * k > I:
                    k, v = I - k, -v
                if not k:
                    continue
                mod = c_moduli[k - 1]
                if mod == 1:
                    continue
                if k != key[1]:
                    key = ("C", k)
            self._acc_exp(der, key, v, mod)
        return der

    def _place(self, raw, part, shift, b_family):
        """One family's factors, moved up by shift and folded in ascending
        index order; the reordering corrections go into raw."""
        I, m = self.I, self.m
        placed: dict = {}
        top = -1
        for i, e in sorted(part.items()):
            r = (i + shift) % I
            if r < top:
                if b_family:
                    _collect(raw, {}, placed, {}, {r: e})
                else:
                    _collect(raw, placed, {}, {r: e}, {})
            else:
                top = r
            placed[r] = (placed.get(r, 0) + e) % m
        if 0 in placed.values():
            return {r: v for r, v in placed.items() if v}
        return placed

    def _fold(self, a, b, der, t, shift=0):
        """The image of t^shift (A(a) B(b) der t^t) t^-shift, with a, b and
        der in D's coordinates or already folded. Each generator factor
        goes to its residue in ascending index order; one below a residue
        already placed is moved past the placed factors by the collection
        kernel (_place). Derived keys shift and fold alike, a central index
        folds in _acc_terms, and every sum is reduced once, at the end:
        each modulus divides m."""
        I = self.I
        raw: dict = {}
        fa = self._place(raw, a, shift, False) if a else {}
        fb = self._place(raw, b, shift, True) if b else {}
        get = raw.get
        for key, v in der.items():
            if key[0] == "C":
                raw[key] = get(key, 0) + v
                continue
            for fkey, fv in _TERMS[key[0]]((key[1] + shift) % I,
                                           (key[2] + shift) % I, v):
                raw[fkey] = get(fkey, 0) + fv
        return fa, fb, self._acc_terms({}, raw.items()), t % I

    def _image(self, g: GElement):
        h = g.d_part
        return self._fold(h.a_part, h.b_part, h.derived, g.t_exp)

    # The public methods below call _image and _fold, never one another,
    # so a wrapper around one counts only calls made through it.

    def image(self, g: GElement):
        """The image of g in the quotient, a homomorphism from G."""
        return self._image(g)

    def mul(self, x, y):
        return self._image(g_mul(_lift(x), _lift(y)))

    def inv(self, x):
        return self._image(g_inv(_lift(x)))

    def conj(self, x, g):
        """g^-1 x g: one d_twisted_conj pass in G, then one fold."""
        return self._image(g_conj(_lift(x), _lift(g)))

    def rotate(self, x, shift):
        """t^shift x t^-shift: the a/b indices of x move up by shift."""
        return self._fold(*x, shift) if shift % self.I else x

    def kills(self, derived) -> bool:
        """Whether the central element with the ("C", k) coordinates of
        derived maps to the identity: each key folds through _acc_terms
        (c_0 = 1, c_{I-k} = c_k^-1) and is reduced modulo its M(k)."""
        return not self._acc_terms({}, derived.items())

    def image_is_trivial(self, g: GElement) -> bool:
        """not any(image(g)). A t-exponent off the multiples of I leaves a
        nontrivial image, and a central g is settled by kills; any other
        g takes the full _fold."""
        if g.t_exp % self.I:
            return False
        h = g.d_part
        a, b, der = h.a_part, h.b_part, h.derived
        if not (a or b):
            for key in der:
                if key[0] != "C":
                    break
            else:  # central
                return self.kills(der)
        return not any(self._fold(a, b, der, 0))

    def elements(self):
        """Every element, in the lexicographic order of (t, a, b, derived)
        over the sorted full layout, central keys last; the reference
        enumeration."""
        I, m = self.I, self.m
        pairs = [(i, j) for i in range(I) for j in range(i, I)]
        basis = sorted([("AA", i, j) for i, j in pairs if i < j]
                       + [("BB", i, j) for i, j in pairs if i < j]
                       + [("AB", i, j) for i, j in pairs])
        c_keys = [("C", k) for k, mod in enumerate(self.c_moduli, 1) if mod > 1]
        slots = ([(0, i) for i in range(I)] + [(1, i) for i in range(I)]
                 + [(2, key) for key in basis + c_keys])
        mods = ([m] * (2 * I + len(basis))
                + [mod for mod in self.c_moduli if mod > 1])
        for t in range(I):
            for values in product(*map(range, mods)):
                parts: tuple = ({}, {}, {})
                for (part, key), v in zip(slots, values):
                    if v:
                        parts[part][key] = v
                yield parts + (t,)


def _lift(x) -> GElement:
    """The element of G with x's own coordinates: image(_lift(x)) == x."""
    a, b, der, t = x
    return GElement(DElement(a, b, der), t)


def c_fold(n: int, I: int) -> int:
    """The canonical index in 0..I//2 that c_n folds onto under index
    modulus I: c_0 = 1 and c_{I-k} = c_k^{-1}, so k = min(n mod I,
    I - n mod I), with 0 meaning c_n dies."""
    r = n % I
    return min(r, I - r)


def coordinate_count(I: int) -> int:
    """2I + I(3I-1)/2: the a, b and non-central derived coordinates of
    Q(I, m), each of which carries the modulus m."""
    return 2 * I + I * (3 * I - 1) // 2


def quotient_order(I: int, m: int, moduli, log2: bool = False):
    """|Q(I, m)| = I * m^coordinate_count(I) * prod M(k): the index t, m
    for each a, b and non-central derived coordinate, and M(k) for each
    central index, moduli the sequence of the M(k). With log2 its base-2
    logarithm as a float: log2 I + (coordinate_count(I) + #{M(k) = m})
    log2 m, plus count(v) log2 v for each other distinct modulus v != 1
    in ascending order. A row of the search ladder that meets no bound
    is then log2 I + n log2 m for a single n."""
    coords = coordinate_count(I)
    if log2:
        total = math.log2(I) + (coords + moduli.count(m)) * math.log2(m)
        for mod in sorted(set(moduli) - {1, m}):
            total += moduli.count(mod) * math.log2(mod)
        return total
    total = I * m ** coords
    for mod in moduli:
        total *= mod
    return total


def _two_adic_valuation(n: int) -> int:
    s = 0
    while n % 2 == 0:
        n //= 2
        s += 1
    return s


def _cycle_residues(I: int):
    """One full period of the residues 2^j mod I for j at and past the
    2-adic valuation of I, together with that valuation."""
    s = _two_adic_valuation(I)
    r = pow(2, s, I)
    out = [r]
    nxt = (r * 2) % I
    while nxt != r:
        out.append(nxt)
        nxt = (nxt * 2) % I
    return s, tuple(out)


def relator_folds(I: int, d):
    """(k, js, tail) for each index k in 1..I//2 that a relator
    c_{2^j}^{d(j)} folds onto, k ascending. Every d(j) with j in js must
    be read. tail is the value d keeps on the infinitely many j of the
    2^j cycle that fold onto k, 1 when d has no constant tail, and 0 when
    only finitely many j fold onto k. Reads the metadata of d and makes no
    query of it."""
    s, cycle = _cycle_residues(I)
    start, tail = d.eventual_constant or (0, 1)
    js: dict = {}
    tails: dict = {}
    for j in range(s):
        js.setdefault(c_fold(2 ** j, I), []).append(j)
    for off, r in enumerate(cycle):
        k = c_fold(r, I)
        js.setdefault(k, []).extend(range(s + off, start, len(cycle)))
        tails[k] = tail
    for k in sorted(js):
        if k:
            yield k, tuple(js[k]), tails.get(k, 0)


def c_bounds(I: int, d) -> tuple:
    """B(k) for k = 1..I//2: the gcd of the 2-torsion bound at k = I/2 and
    every d(j) whose relator folds onto k or I-k, with 0 where nothing
    folds. B does not depend on m; the largest legitimate modulus of the
    central index k in Q(I, m) is gcd(m, B(k))."""
    bounds = [0] * (I // 2)  # bounds[k - 1]
    if I % 2 == 0:
        bounds[-1] = 2
    for k, js, tail in relator_folds(I, d):
        bounds[k - 1] = math.gcd(bounds[k - 1], tail, *map(d.value, js))
    return tuple(bounds)


def required_c_modulus(I: int, k: int, m: int, d) -> int:
    """Largest legitimate modulus for the folded central index k: the gcd
    of m, the 2-torsion bound at k = I/2, and every d(j) whose relator
    folds onto k or I-k."""
    if not 1 <= k <= I // 2:
        raise ValueError("k must lie in 1..I//2")
    return math.gcd(m, c_bounds(I, d)[k - 1])


def c_moduli_from_bounds(m: int, bounds) -> tuple:
    """The largest legitimate c-moduli gcd(m, B(k)), k = 1..I//2, of
    Q(I, m), with bounds = c_bounds(I, d)."""
    return tuple(map(math.gcd, repeat(m), bounds))


def make_spec(I: int, m: int, d) -> FoldedQuotient:
    """The finite quotient with the largest legitimate c-moduli."""
    return FoldedQuotient(I, m, c_moduli_from_bounds(m, c_bounds(I, d)))


def quotient_is_well_defined(fq: FoldedQuotient, d) -> bool:
    """True when every defining relator maps to the identity: each declared
    modulus must divide the gcd of everything folding onto its index."""
    return all(math.gcd(fq.m, b) % declared == 0
               for declared, b in zip(fq.c_moduli, c_bounds(fq.I, d)))


def finite_conjugate(x, y, fq: FoldedQuotient) -> bool:
    """Exhaustive conjugacy test, the reference for quotient_conjugate_exact;
    refuses quotients larger than _ENUMERATION_CAP."""
    order = fq.order()
    if order > _ENUMERATION_CAP:
        raise ValueError(f"order {order} exceeds the cap {_ENUMERATION_CAP}")
    if x == y:
        return True
    for g in fq.elements():
        if fq.conj(x, g) == y:
            return True
    return False


def _orbit_chain_solve(delta, orbits, m):
    """Particular solution h of h[(p-s) mod I] - h[p] = delta[p] (mod m),
    as a dict of its nonzero entries, or None when delta sums to nonzero
    mod m over an orbit of p -> p - s (orbits, each walked from its
    start). delta is a dict over residues, zero where absent."""
    h = {}
    for orbit in orbits:
        val = 0
        for p in orbit:
            if val:
                h[p] = val
            val = (val + delta.get(p, 0)) % m
        if val:
            return None
    return h


def _key_cycle(fq, key, s):
    """The rotation cycle of a non-central folded key under +s, walked
    from key: for each key K on it, (K, sign, wrap), where rotating K by
    s gives sign times the next key of the cycle, plus wrap.

    AA and BB keys change sign when their residues swap order. An AB key
    keeps its sign; when its residues swap, [a_i, b_j] with i > j is
    AB(j, i) c_{i-j}^-1, so wrap is that central key, folded, with its
    coefficient, or None when the central index has modulus 1."""
    I, c_moduli = fq.I, fq.c_moduli
    start = key
    while True:
        kind, i, j = key
        i, j = (i + s) % I, (j + s) % I
        wrap = None
        if i <= j:
            nxt, sign = (kind, i, j), 1
        elif kind != "AB":
            nxt, sign = (kind, j, i), -1
        else:
            nxt, sign = ("AB", j, i), 1
            k = i - j
            k, v = (I - k, 1) if 2 * k > I else (k, -1)
            if c_moduli[k - 1] > 1:
                wrap = ("C", k), v
        yield key, sign, wrap
        key = nxt
        if key == start:
            return


def quotient_conjugate_exact(x, y, fq: FoldedQuotient) -> bool:
    """Conjugacy decision inside the quotient, polynomial in I and the
    coordinate support instead of the group order.

    For each t-power of the conjugator below gcd(s, I), s the common
    t-exponent, the abelianized twisted equation is solved orbit by
    orbit; its kernel, one generator per orbit, and the conjugator's
    derived coordinates then meet in _derived_stage, which walks the
    rotation cycles of the derived coordinates and solves what is left
    modulo m with conjugacy.solve_congruences, which never factors m.
    """
    return x == y or _exact_route(fq, x, y) is not None


def _exact_route(fq, x, y):
    """(n, h0, the solved _derived_stage) for the first t-power n under
    which x and y are conjugate, or None."""
    if x[3] != y[3]:
        return None
    I, m = fq.I, fq.m
    s = x[3]
    r = math.gcd(s, I)
    # the orbits of p -> p - s on 0..I-1 are the residue classes mod r
    orbits = [[(p - k * s) % I for k in range(I // r)] for p in range(r)]
    # x centralises itself, so g and x g conjugate x alike, and their
    # t-powers differ by s: the t-powers mod r cover every class
    for n in range(r):
        xr = fq.rotate(x, -n)
        h0a = _orbit_chain_solve(_minus(fq, y[0], xr[0]), orbits, m)
        if h0a is None:
            continue
        h0b = _orbit_chain_solve(_minus(fq, y[1], xr[1]), orbits, m)
        if h0b is None:
            continue
        if h0a or h0b:
            h0 = h0a, h0b, {}, 0
            mid = fq.conj(xr, h0)
            if mid[0] != y[0] or mid[1] != y[1]:
                raise AssertionError("abelianized stage lost synchronization")
        else:  # the a- and b-parts already agree
            h0, mid = ({}, {}, {}, 0), xr
        stage = _derived_stage(fq, mid, y, s, orbits)
        if stage is not None:
            return n, h0, stage
    return None


def _minus(fq, y, x):
    """y - x on one dict of exponents mod m."""
    out = dict(y)
    for key, v in x.items():
        fq._acc_exp(out, key, -v, fq.m)
    return out


def _derived_stage(fq, mid, y, s, orbits):
    """Match the derived coordinates of mid to y by a rotation-invariant
    abelian conjugator kappa plus a derived conjugator part delta.

    kappa is a product of powers of one generator per index orbit, the
    ascending product of that orbit's a's or b's. Per unit power such a
    generator adds its commutator with mid's abelianization plus the
    central cost of rotating the generator itself (a kappa column).
    delta adds rotate(delta, s) - delta. Where rotation carries a
    non-central key K to sign e times the next key K' of its cycle, the
    row of K' reads

        e delta(K) - delta(K') + kappa terms = rhs(K'),

    and a wrap at K (see _key_cycle) adds v delta(K) to a central row.

    The keys that the rhs or a kappa column reaches start the closure,
    which takes in the whole rotation cycle of each. Walking a cycle
    solves its rows for delta: delta at the first key is a free column,
    and each later key's row gives delta there as an affine form in the
    columns, which pays the wraps into the central rows. The first key's
    row, met again at the end, closes the cycle. The closing rows modulo
    m and the central rows modulo their M(k) go to
    conjugacy.solve_congruences in one call.

    On a cycle outside the closure, delta is one constant c: its rows
    hold, and its wraps pay c to central rows that cancel around the
    cycle, except at the 2-torsion c_(I/2). With h = I/2, rotating
    AB(j, j+h) by s wraps exactly when floor((j+s)/h) is odd, and over
    a cycle of length L = h/gcd(s, h) those floors total L s/h. So every
    such cycle wraps onto c_(I/2) with the same parity, and one cycle's
    constant frees that row as much as all of them do. When the rhs or a
    kappa column reaches c_(I/2), the cycle of AB(0, h) joins the
    closure; a closure cycle that wraps onto c_(I/2) supplies that
    freedom itself.

    Returns (generators, the rows, the cycle starts, the solution), or
    None. rows maps a key to [kappa coefficients, rhs], delta aside; the
    central rows come back with the wraps paid in. Column c <
    len(generators) is the power of generator c, given as (b family?,
    orbit); column len(generators) + i is delta at the first key of
    cycle i."""
    I, m = fq.I, fq.m
    ma, mb = mid[0], mid[1]
    gens = []
    rows: dict = {}  # key -> [kappa coefficients, rhs]
    for b_family in (False, True):
        for orbit in orbits:
            ones = dict.fromkeys(orbit, 1)
            col: dict = {}
            if s:  # rotation is the identity at s = 0, and costs nothing
                raw: dict = {}
                fq._place(raw, ones, s, b_family)
                fq._acc_terms(col, raw.items())
            xi_a, xi_b = ({}, ones) if b_family else (ones, {})
            fq._acc_terms(col, commutator_bilinear(ma, mb, xi_a, xi_b).items())
            if col:
                for key, v in col.items():
                    rows.setdefault(key, [{}, 0])[0][len(gens)] = v
                gens.append((b_family, orbit))
    for key, v in fq._acc_terms(
            dict(y[2]), ((key, -v) for key, v in mid[2].items())).items():
        rows.setdefault(key, [{}, 0])[1] = v

    starts = sorted(key for key in rows if key[0] != "C")
    if I % 2 == 0 and ("C", I // 2) in rows:
        starts.append(("AB", 0, I // 2))
    cycles = []
    closing = []
    seen: set = set()
    for start in starts:
        if start in seen:
            continue
        x = len(gens) + len(cycles)
        cycles.append(start)
        form, const = {x: 1}, 0  # delta at the current key
        for key, sign, wrap in _key_cycle(fq, start, s):
            seen.add(key)
            if key != start and key in rows:
                const = _add_row(form, const, rows[key])
            if wrap:
                ck, v = wrap
                row = rows.setdefault(ck, [{}, 0])
                for c, w in form.items():
                    row[0][c] = row[0].get(c, 0) + v * w
                row[1] -= v * const
            if sign < 0:
                for c in form:
                    form[c] = -form[c]
                const = -const
        if start in rows:
            const = _add_row(form, const, rows[start])
        form[x] -= 1
        closing.append((form, -const, m))
    c_moduli = fq.c_moduli
    sol = solve_congruences(closing + [
        (coeffs, b, c_moduli[key[1] - 1])
        for key, (coeffs, b) in rows.items() if key[0] == "C"], m)
    if sol is None:
        return None
    return gens, rows, cycles, sol


def _add_row(form, const, row):
    """Add row = [kappa coefficients, rhs] to delta's affine form: the
    coefficients into form, in place, and -rhs to const, returned."""
    for c, w in row[0].items():
        form[c] = form.get(c, 0) + w
    return const - row[1]
