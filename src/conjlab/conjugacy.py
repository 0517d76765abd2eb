"""Conjugacy decision with certificates.

The decision runs in two layers. First a conjugator is sought modulo the
centre C: the t-exponent must match outright and picks one of two
routes (conj_mod_C). The twisted route solves shift equations over the
abelianization, then over the derived coordinates. At t-exponent zero
the untwisted route aligns the pair on an anchor index (the least a/b
index, else the least non-central derived index, else 0), where the
abelianizations must agree and one commutator equation is left. Failure
at this layer is final and the certificate carries the reason. Success
leaves the pair's central defect delta (central_defect), which is always
a commutator; conjugacy then holds exactly when delta is trivial under
the central exponents d, and the first surviving coordinate is a central
obstruction naming a finite quotient that separates the pair. The
McKinsey search reads the same delta: no quotient where it dies
separates the pair.

Integer linear algebra is exact throughout. solve_congruences, the one
modular solver, eliminates over Z/m by extended gcds without factoring
m. The commutator equation fixes its integrality parameter with it, as
one column modulo p^2, and the exact route inside finite quotients
solves its systems with it. hnf_solve, which puts an integer matrix into
column Hermite form with unimodular column operations, is the oracle
the tests check against; no decision calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .extension import GElement, g_conj, g_mul, g_t
from .nilpotent import (
    DElement,
    _clean,
    _collect,
    _derived_diff,
    _neg_vec,
    _surviving_c,
    d_identity,
    d_twisted_conj,
    phi_shift,
)


@dataclass(frozen=True)
class IntegerLinearSystem:
    rows: tuple  # tuple of equal-length int tuples
    rhs: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise ValueError("one right hand side entry per row")
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("rows must have equal length")


def _ext_gcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _combine(s, u, t, v, m):
    """s u + t v for rows u, v = (coefficients, rhs), reduced modulo m."""
    (r1, b1), (r2, b2) = u, v
    return {c: w for c in r1.keys() | r2.keys()
            if (w := (s * r1.get(c, 0) + t * r2.get(c, 0)) % m)}, \
        (s * b1 + t * b2) % m


def solve_congruences(rows, m):
    """One solution of a system of linear congruences, or None.

    Each row is (coefficients, rhs, modulus): a dict column -> integer
    and the congruence sum(coefficients[c] * x[c]) = rhs mod modulus, with
    modulus dividing m. The answer is a dict column -> x[c] in 1..m-1;
    every other column is 0.

    Howell-form elimination over Z/m, which never factors m (Howell 1986;
    Storjohann and Mulders 1998). A row of modulus M is scaled by m / M.
    Each row then meets the pivot row of its first column, if any: an
    extended-gcd row operation of determinant -1 leaves one row holding
    the column, of gcd entry, and one row without it, which goes on down.
    A new pivot row sends down its annihilator, m / gcd(pivot, m) times
    itself, which carries the condition under which the pivot's column
    can be solved; a new pivot that is a unit modulo m is scaled to 1
    instead, so it divides every entry it meets and keeps its column. A
    row left with no column must read 0 = 0, and back-substitution
    solves each a x = r (mod m) through gcd(a, m)."""
    work = [({c: w for c, v in coeffs.items()
              if (w := v * (m // mod) % m)}, rhs * (m // mod) % m)
            for coeffs, rhs, mod in rows]
    pivots = {}
    while work:
        row = work.pop()
        if not row[0]:
            if row[1]:
                return None
            continue
        c = min(row[0])
        pivot = pivots.get(c)
        if pivot is None:
            p = row[0][c]
            g = gcd(p, m)
            if g == 1 and p != 1:  # a unit pivot is stored as 1
                u = pow(p, -1, m)
                row = {cc: v * u % m for cc, v in row[0].items()}, \
                    row[1] * u % m
            pivots[c] = row
            f = m // g
            if f < m:
                work.append(_combine(f, row, 0, ({}, 0), m))
            continue
        p, a = pivot[0][c], row[0][c]
        g, s, t = _ext_gcd(p, a)
        work.append(_combine(a // g, pivot, -(p // g), row, m))
        if g != p:  # else the pivot divides a and keeps its column
            del pivots[c]
            work.append(_combine(s, pivot, t, row, m))
    x: dict = {}
    for c in sorted(pivots, reverse=True):
        prow, pb = pivots[c]
        r = (pb - sum(v * x.get(cc, 0) for cc, v in prow.items()
                      if cc != c)) % m
        g = gcd(prow[c], m)
        if r % g:
            raise AssertionError("pivot row lost its annihilator")
        v = r // g * pow(prow[c] // g, -1, m // g) % m
        if v:
            x[c] = v
    return x


def hnf_solve(system: IntegerLinearSystem) -> Optional[tuple]:
    """One integer solution of A x = b, or None when none exists.

    Columns of A are reduced by unimodular operations to a staircase
    (column Hermite form) while the same operations accumulate in U, so
    A U = H; forward substitution on H decides divisibility row by row
    and x = U y maps the staircase solution back.
    """
    nrows = len(system.rows)
    ncols = len(system.rows[0]) if nrows else 0
    H = [list(r) for r in system.rows]
    U = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def colop(c1, c2, s, t, u, v):
        # (col c1, col c2) <- (s c1 + t c2, -u c1 + v c2), det s v + t u = 1
        for M in (H, U):
            for row in M:
                x1, x2 = row[c1], row[c2]
                row[c1] = s * x1 + t * x2
                row[c2] = -u * x1 + v * x2

    col = 0
    pivots = []
    for r in range(nrows):
        if col >= ncols:
            break
        while True:
            nz = [c for c in range(col, ncols) if H[r][c]]
            if len(nz) <= 1:
                break
            c1, c2 = nz[0], nz[1]
            g, s, t = _ext_gcd(H[r][c1], H[r][c2])
            colop(c1, c2, s, t, H[r][c2] // g, H[r][c1] // g)
        if nz:
            c = nz[0]
            if c != col:
                for M in (H, U):
                    for row in M:
                        row[c], row[col] = row[col], row[c]
            if H[r][col] < 0:
                for M in (H, U):
                    for row in M:
                        row[col] = -row[col]
            pivots.append((r, col))
            col += 1

    y = [0] * ncols
    pivot_of = dict(pivots)
    for r in range(nrows):
        acc = sum(H[r][c] * y[c] for c in range(ncols) if y[c])
        need = system.rhs[r] - acc
        if r in pivot_of:
            c = pivot_of[r]
            if need % H[r][c]:
                return None
            y[c] = need // H[r][c]
        elif need:
            return None

    x = tuple(sum(U[i][j] * y[j] for j in range(ncols) if y[j]) for i in range(ncols))
    for r in range(nrows):
        if sum(system.rows[r][c] * x[c] for c in range(ncols) if x[c]) != system.rhs[r]:
            raise AssertionError("hermite solution failed verification")
    return x


def _solve_chain(delta: dict, step: int) -> Optional[dict]:
    """The finitely supported h with h[p] - h[p - step] = delta[p], or
    None. Solutions are unique when they exist: the homogeneous equation
    forces h constant along each chain, and finite support kills it.

    h[q] sums delta over q's residue class up to and including q, walking
    the class in the direction of step: upward when step is positive,
    downward when it is negative."""
    out: dict = {}
    classes: dict = {}
    for p, v in delta.items():
        if v:
            classes.setdefault(p % step, []).append(p)
    for ps in classes.values():
        ps.sort(reverse=step < 0)
        if sum(delta[p] for p in ps) != 0:
            return None
        run = 0
        for p, nxt in zip(ps, ps[1:]):
            run += delta[p]
            if run:
                for q in range(p, nxt, step):
                    out[q] = run
    return out


def solve_twisted_abelian(delta_a: dict, delta_b: dict, n_t: int):
    """Finitely supported abelianized coordinates (h_a, h_b) with
    h - shift(h by n_t) = delta, or None. The solution is unique."""
    if n_t == 0:
        raise ValueError("the twist must be nontrivial")
    ha = _solve_chain(delta_a, n_t)
    if ha is None:
        return None
    hb = _solve_chain(delta_b, n_t)
    if hb is None:
        return None
    return ha, hb


def solve_twisted_derived(delta: dict, n_t: int) -> Optional[dict]:
    """Finitely supported non-central derived coordinates h with
    h - shift(h by n_t) = delta, or None; unique when it exists.
    Central coordinates are fixed by the shift and are rejected."""
    if n_t == 0:
        raise ValueError("the twist must be nontrivial")
    orbits: dict = {}
    for key, v in delta.items():
        if key[0] == "C":
            raise ValueError("central coordinates have no twisted solution")
        if v:
            kind, i, j = key
            orbits.setdefault((kind, j - i), {})[i] = v
    out: dict = {}
    for (kind, gap), chain in orbits.items():
        sol = _solve_chain(chain, n_t)
        if sol is None:
            return None
        for i, v in sol.items():
            out[(kind, i, i + gap)] = v
    return out


def commutator_bilinear(eta_a: dict, eta_b: dict, xi_a: dict, xi_b: dict) -> dict:
    """Derived coordinates of the commutator of elements with the given
    abelianizations, exact including central terms.

    [x, y] = (xy)(yx)^{-1}, and xy, yx share their abelianization, so the
    commutator is corr(x, y) - corr(y, x); the correction is bilinear, so
    that is corr(x, y) + corr(-y, x), two kernel passes into one dict."""
    der: dict = {}
    _collect(der, eta_a, eta_b, xi_a, xi_b)
    _collect(der, _neg_vec(xi_a), _neg_vec(xi_b), eta_a, eta_b)
    return _clean(der)


def _lam_step(pairs, p2):
    """(lam, period) with the solutions of a lam = c (mod p2), over every
    pair (a, c), the class lam + period Z and lam its member nearest 0, or
    None. A pair that reads 0 = 0 holds for every lam and is left out."""
    sol = solve_congruences([({0: a}, c, p2) for a, c in pairs
                             if a % p2 or c % p2], p2)
    if sol is None:
        return None
    period = p2 // gcd(p2, *(a for a, _ in pairs))
    r = sol.get(0, 0) % period
    return (r if 2 * r <= period else r - period), period


def solve_commutator_equation(h1: DElement, target: DElement) -> Optional[DElement]:
    """Some h with [h, h1] equal to target modulo the centre, or None.

    target must lie in the derived subgroup; its central coordinates are
    ignored (they can always be absorbed by the final central layer of
    the conjugacy decision). Exactness: the returned h satisfies the
    equation on the nose in the non-central coordinates.
    """
    if target.a_part or target.b_part:
        raise ValueError("target must lie in the derived subgroup")
    T = {k: v for k, v in target.derived.items() if k[0] != "C"}
    xi_a, xi_b = dict(h1.a_part), dict(h1.b_part)
    if not xi_a and not xi_b:
        return d_identity() if not T else None
    if not xi_a:
        # swap the roles of the two generator families; the bracket
        # structure is symmetric with AB picking up a sign modulo C
        flip = {}
        for (kind, i, j), v in T.items():
            if kind == "AA":
                flip[("BB", i, j)] = v
            elif kind == "BB":
                flip[("AA", i, j)] = v
            else:
                flip[("AB", i, j)] = -v
        sol = solve_commutator_equation(DElement(_clean(xi_b), _clean(xi_a)),
                                        DElement({}, {}, _clean(flip)))
        if sol is None:
            return None
        return DElement(_clean(sol.b_part), _clean(sol.a_part))

    k = min(xi_a)
    p = xi_a[k]
    p2 = p * p
    idx = set(xi_a) | set(xi_b) | {k}
    for key in T:
        idx.update(key[1:])
    J = sorted(idx)

    # eta[j] = (N[j] + lam * p * xi[j]) / p^2 with lam = p^2 * eta_a[k];
    # the lam direction is the rational kernel (a multiple of xi itself),
    # so every consistency row below is lam-free
    def t_of(kind, i, j):
        if kind != "AB" and i > j:
            return -T.get((kind, j, i), 0)
        if kind == "AB" and i > j:
            i, j = j, i
        return T.get((kind, i, j), 0)

    # Na, Nb, Xa, Xb are lists over J, Na[q] the numerator at J[q]
    Na, Nb = [], []
    for j in J:
        if j == k:
            Na.append(0)
            Nb.append(-t_of("AB", k, k) * p)
        elif j > k:
            Na.append(-t_of("AA", k, j) * p)
            Nb.append(-t_of("AA", k, j) * xi_b.get(k, 0)
                      + t_of("AB", k, k) * xi_a.get(j, 0)
                      - t_of("AB", k, j) * p)
        else:
            Na.append(t_of("AA", j, k) * p)
            Nb.append(t_of("AA", j, k) * xi_b.get(k, 0)
                      - t_of("AB", j, k) * p)
    Xa = [xi_a.get(j, 0) for j in J]
    Xb = [xi_b.get(j, 0) for j in J]

    # consistency of every row over J x J, checked lam-free at lam = 0;
    # J ascends, so each pair's keys are read straight from T
    Tget = T.get
    rows = list(zip(J, Na, Nb, Xa, Xb))
    for q, (i, na, nb, xa, xb) in enumerate(rows):
        for j, na2, nb2, xa2, xb2 in rows[q + 1:]:
            if na * xa2 - na2 * xa != Tget(("AA", i, j), 0) * p2:
                return None
            if nb * xb2 - nb2 * xb != Tget(("BB", i, j), 0) * p2:
                return None
            if na * xb2 + na2 * xb - nb * xa2 - nb2 * xa \
                    != Tget(("AB", i, j), 0) * p2:
                return None
        if na * xb - nb * xa != Tget(("AB", i, i), 0) * p2:
            return None

    # integrality: each numerator must vanish mod p^2
    step = _lam_step([(x * p, -n) for _, na, nb, xa, xb in rows
                      for n, x in ((na, xa), (nb, xb))], p2)
    if step is None:
        return None
    lam = step[0]
    eta_a = {}
    eta_b = {}
    for j, na, nb, xa, xb in rows:
        va, vb = na + lam * p * xa, nb + lam * p * xb
        if va % p2 or vb % p2:
            raise AssertionError("integrality step left a fraction")
        if va:
            eta_a[j] = va // p2
        if vb:
            eta_b[j] = vb // p2
    result = DElement(_clean(eta_a), _clean(eta_b))
    got = {key: v for key, v in
           commutator_bilinear(eta_a, eta_b, xi_a, xi_b).items() if key[0] != "C"}
    if got != T:
        raise AssertionError("commutator solution failed verification")
    return result


# reasons a conjugator modulo the centre can fail to exist
REASON_T = "t-exponent-mismatch"
REASON_AB = "abelianization-mismatch"
REASON_TWISTED = "twisted-unsolvable"
REASON_CENTRAL = "central-obstruction"


def _anchor(h: DElement) -> int:
    """The index the untwisted route aligns h on (conj_mod_C)."""
    ab = h.a_part.keys() | h.b_part.keys()
    if ab:
        return min(ab)
    return min((k[1] for k in h.derived if k[0] != "C"), default=0)


def _conj_untwisted(h1: DElement, h2: DElement):
    i1, i2 = _anchor(h1), _anchor(h2)
    x = phi_shift(h1, i2 - i1)
    rem = _derived_diff(x, h2)
    if rem is None:
        return None, REASON_AB
    target = {k: -v for k, v in rem.items() if k[0] != "C"}
    h = solve_commutator_equation(x, DElement({}, {}, target))
    if h is None:
        return None, REASON_TWISTED
    return g_mul(g_t(i1 - i2), GElement(h)), None


def _conj_twisted(h1: DElement, h2: DElement, n_t: int):
    for i in range(abs(n_t)):
        x = phi_shift(h1, -i)
        da = {p: x.a_part.get(p, 0) - h2.a_part.get(p, 0)
              for p in set(x.a_part) | set(h2.a_part)}
        db = {p: x.b_part.get(p, 0) - h2.b_part.get(p, 0)
              for p in set(x.b_part) | set(h2.b_part)}
        ab = solve_twisted_abelian(da, db, n_t)
        if ab is None:
            continue
        h0 = DElement(_clean(ab[0]), _clean(ab[1]))
        diff = _derived_diff(h2, d_twisted_conj(h0, x, n_t))
        if diff is None:
            raise AssertionError("abelianized twisted stage went astray")
        dd = solve_twisted_derived(
            {key: v for key, v in diff.items() if key[0] != "C"}, n_t)
        if dd is None:
            continue
        # h0 has no derived part, so h0 * dd is h0 with dd's coordinates
        h = DElement(h0.a_part, h0.b_part, dd)
        return g_mul(g_t(i), GElement(h)), None
    return None, REASON_TWISTED


def conj_mod_C(g1: GElement, g2: GElement):
    """A conjugator modulo the centre, or (None, reason).

    The t-exponent n alone picks the route: _conj_twisted for n != 0,
    _conj_untwisted for n = 0. The latter shifts g1's D-part onto the
    anchor of g2's (_anchor: the least a/b index, else the least first
    index of the non-central derived keys, else 0) and solves one
    commutator equation for the rest; inside the derived subgroup that
    equation holds, by the identity, exactly when the aligned non-central
    parts agree.

    Any such conjugator serves for the final central comparison: two
    mod-centre conjugators differ by a centralizer element mod C, and
    re-conjugating shifts the central defect by a commutator with a
    central element, which vanishes.
    """
    if g1.t_exp != g2.t_exp:
        return None, REASON_T
    n_t = g1.t_exp
    h1, h2 = g1.d_part, g2.d_part
    if n_t != 0:
        return _conj_twisted(h1, h2, n_t)
    return _conj_untwisted(h1, h2)


def central_defect(g1: GElement, g2: GElement):
    """(w, delta) with w a conjugator modulo the centre (conj_mod_C) and
    delta the pair's central defect: w^-1 g1 w = g2 delta, delta given by
    its ("C", k) coordinates. Or (None, reason) when no conjugator modulo
    the centre exists.

    delta does not depend on which w is chosen (conj_mod_C), so the pair
    is conjugate in G_d exactly when delta dies there, and its images in
    any quotient where delta dies are conjugate by the image of w.

    The defect is compared, not multiplied out: x = w^-1 g1 w must match
    g2 in t-exponent, a- and b-parts, and then g2^-1 x is the difference
    of the derived parts, which must lie in C.
    """
    witness, reason = conj_mod_C(g1, g2)
    if witness is None:
        return None, reason
    x = g_conj(g1, witness)
    delta = (_derived_diff(g2.d_part, x.d_part)
             if x.t_exp == g2.t_exp else None)
    if delta is None or any(key[0] != "C" for key in delta):
        raise AssertionError("mod-centre witness left a non-central residue")
    return witness, delta


@dataclass(frozen=True)
class ConjugacyCertificate:
    verdict: str  # "conjugate" or "non-conjugate"
    witness: Optional[GElement] = None
    reason: Optional[str] = None
    obstruction: Optional[tuple] = None  # (k, gamma) for central obstructions

    @property
    def is_conjugate(self) -> bool:
        return self.verdict == "conjugate"

    def reason_text(self) -> Optional[str]:
        if self.reason == REASON_CENTRAL:
            k, gamma = self.obstruction
            return f"central-obstruction({k}, {gamma})"
        return self.reason


def conjugacy_decide(g1: GElement, g2: GElement, d) -> ConjugacyCertificate:
    """Decide conjugacy and return a certificate.

    On success the witness w satisfies w^-1 g1 w = g2 exactly. On failure
    the reason is one of t-exponent-mismatch, abelianization-mismatch,
    twisted-unsolvable, or central-obstruction(k, gamma), the last naming
    a central coordinate whose exponent survives every legal reduction.

    The central defect delta of the pair (central_defect) decides it:
    the pair is conjugate exactly when delta dies under d.
    """
    witness, delta = central_defect(g1, g2)
    if witness is None:
        return ConjugacyCertificate("non-conjugate", reason=delta)
    survivor = _surviving_c(DElement({}, {}, delta), d)
    if survivor is None:
        return ConjugacyCertificate("conjugate", witness=witness)
    return ConjugacyCertificate("non-conjugate", reason=REASON_CENTRAL,
                                obstruction=survivor)
