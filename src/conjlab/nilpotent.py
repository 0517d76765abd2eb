"""Normal forms and exact collection for a 2-step nilpotent group with
integer-indexed generator families.

Elements are products of generators a_i, b_i (i ranging over all integers)
whose commutators are central. The derived subgroup is free abelian on the
classes of [a_i,a_j] (i<j), [b_i,b_j] (i<j) and [a_i,b_j], modulo the
identifications [a_i,b_j][b_i,a_j] = c_{j-i}; the central elements c_k are
further subject to relators c_{2^j}^{d(j)} for a configurable prime-valued
function d (see the sepfunc module).

Normal form: ascending product of a-generators, then ascending product of
b-generators, then an exponent dictionary over the derived basis

    ('AA', i, j) with i < j     class of [a_i, a_j]
    ('BB', i, j) with i < j     class of [b_i, b_j]
    ('AB', i, j) with i <= j    class of [a_i, b_j]
    ('C', k) with k >= 1        the central element c_k

For i > j the commutator [a_i,b_j] rewrites to ('AB', j, i) minus ('C', i-j).
c_0 is trivial and c_{-k} is the inverse of c_k, so those keys never occur.

Collection has one path, the kernel _collect: it adds the correction of a
product straight into a dict its caller owns. d_mul and d_inv pass the
product's own derived dict, extension.parse_word the dict it builds a
word into, one letter at a time, d_letter_conj (conjugation by one
generator letter, for the word walk of the search module) a copy of its
argument's, and d_twisted_conj (h^-1 x shift^n(h), for extension.g_conj
and the twisted stage of the conjugacy decision) a copy of x's;
_mul_correction wraps it for commutator_bilinear.

All coordinates are arbitrary-precision integers. Elements are never mutated
after construction: every operation returns a fresh element, or an operand
itself when the result equals it (d_mul or d_twisted_conj by the identity).
Because d(j) may be astronomically large, a C coordinate is only compared
with d(j) when d(j) is known to be small enough to reach it (is_identity_d).
Plain == on elements is raw coordinate identity, not group equality: test
equality in G with extension.g_equal, in D with d_equal, or triviality of
x^{-1} y with is_identity_d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

_FAMILIES = ("AA", "AB", "BB")


def _clean(entries: Optional[dict]) -> dict:
    if not entries:
        return {}
    return {k: v for k, v in entries.items() if v != 0}


def _check_key(key) -> None:
    if not isinstance(key, tuple) or not key:
        raise ValueError(f"malformed derived key {key!r}")
    kind = key[0]
    if kind == "C":
        if len(key) != 2 or not isinstance(key[1], int) or key[1] < 1:
            raise ValueError(f"malformed C key {key!r}")
        return
    if kind not in _FAMILIES or len(key) != 3:
        raise ValueError(f"malformed derived key {key!r}")
    i, j = key[1], key[2]
    if not (isinstance(i, int) and isinstance(j, int)):
        raise ValueError(f"malformed derived key {key!r}")
    if kind in ("AA", "BB") and not i < j:
        raise ValueError(f"{kind} key needs i < j, got {key!r}")
    if kind == "AB" and not i <= j:
        raise ValueError(f"AB key needs i <= j, got {key!r}")


@dataclass(frozen=True)
class DElement:
    """Normal form of an element of the 2-step group D."""

    a_part: dict = field(default_factory=dict)
    b_part: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)


def d_element(a: Optional[dict] = None, b: Optional[dict] = None,
              derived: Optional[dict] = None) -> DElement:
    """Build an element from coordinate dicts, validating derived keys."""
    der = _clean(derived)
    for key in der:
        _check_key(key)
    return DElement(_clean(a), _clean(b), der)


def d_identity() -> DElement:
    return DElement()


def generator_a(i: int) -> DElement:
    return DElement({i: 1})


def generator_b(i: int) -> DElement:
    return DElement({}, {i: 1})


def central_c(k: int) -> DElement:
    """The central element c_k; c_0 is trivial and c_{-k} = c_k^{-1}."""
    return DElement({}, {}, dict(c_terms(k)))


# Canonical coordinates of single commutators. Each function returns a
# tuple of (basis key, coefficient) pairs.

def c_terms(k: int, coeff: int = 1):
    if k == 0 or coeff == 0:
        return ()
    if k > 0:
        return ((("C", k), coeff),)
    return ((("C", -k), -coeff),)


def aa_terms(i: int, j: int, coeff: int = 1):
    """Coordinates of [a_i, a_j]^coeff."""
    if i == j or coeff == 0:
        return ()
    if i < j:
        return ((("AA", i, j), coeff),)
    return ((("AA", j, i), -coeff),)


def bb_terms(i: int, j: int, coeff: int = 1):
    """Coordinates of [b_i, b_j]^coeff."""
    if i == j or coeff == 0:
        return ()
    if i < j:
        return ((("BB", i, j), coeff),)
    return ((("BB", j, i), -coeff),)


def ab_terms(i: int, j: int, coeff: int = 1):
    """Coordinates of [a_i, b_j]^coeff; rewrites i > j through c_{i-j}."""
    if coeff == 0:
        return ()
    if i <= j:
        return ((("AB", i, j), coeff),)
    return ((("AB", j, i), coeff),) + c_terms(i - j, -coeff)


def _acc(dest: dict, terms) -> dict:
    """Add (key, coefficient) pairs into the sparse dict dest, dropping
    coordinates that cancel; returns dest."""
    for key, c in terms:
        v = dest.get(key, 0) + c
        if v:
            dest[key] = v
        else:
            dest.pop(key, None)
    return dest


def _neg_vec(u: dict) -> dict:
    return {i: -e for i, e in u.items()}


def _collect(der: dict, xa: dict, xb: dict, ya: dict, yb: dict) -> None:
    """The one collection kernel: add the derived correction of
    (A(xa) B(xb)) * (A(ya) B(yb)) into der, a dict the caller owns.

    Each a_j^f of the second factor moves left past each b_i^e of the
    first: [b_i, a_j]^(ef) is AB(j, i)^(-ef) when j <= i, else
    AB(i, j)^(-ef) C(j - i)^(ef). Each inverted pair i > j of the merged
    a-products gives AA(j, i)^(-ef), and of the b-products BB(j, i)^(-ef).
    All terms are central. Cancelled coordinates stay in der as zeros,
    for the caller to drop once, at the end. A loop over an empty ya or
    yb is skipped, so a one-letter second factor walks the first factor
    once.
    """
    get = der.get
    if ya:
        for i, e in xb.items():
            for j, f in ya.items():
                ef = e * f
                if j <= i:
                    key = ("AB", j, i)
                    der[key] = get(key, 0) - ef
                else:
                    key = ("AB", i, j)
                    der[key] = get(key, 0) - ef
                    key = ("C", j - i)
                    der[key] = get(key, 0) + ef
        for i, e in xa.items():
            for j, f in ya.items():
                if i > j:
                    key = ("AA", j, i)
                    der[key] = get(key, 0) - e * f
    if yb:
        for i, e in xb.items():
            for j, f in yb.items():
                if i > j:
                    key = ("BB", j, i)
                    der[key] = get(key, 0) - e * f


def _mul_correction(xa: dict, xb: dict, ya: dict, yb: dict) -> dict:
    """The kernel's correction for (A(xa) B(xb)) * (A(ya) B(yb)) as a
    fresh dict without zeros."""
    corr: dict = {}
    _collect(corr, xa, xb, ya, yb)
    return _clean(corr) if 0 in corr.values() else corr


def d_mul(x: DElement, y: DElement) -> DElement:
    if not (y.a_part or y.b_part or y.derived):
        return x
    if not (x.a_part or x.b_part or x.derived):
        return y
    der = dict(x.derived)
    get = der.get
    for key, v in y.derived.items():
        der[key] = get(key, 0) + v
    _collect(der, x.a_part, x.b_part, y.a_part, y.b_part)
    return DElement(_acc(dict(x.a_part), y.a_part.items()),
                    _acc(dict(x.b_part), y.b_part.items()), _clean(der))


def d_letter_conj(x: DElement, family: str, e: int, s: int) -> DElement:
    """g_0^-e x g_s^e for the generator family g = "a" or "b": the D-part
    of (x, s) conjugated in G by the letter g_0^e, in one pass. x's dicts
    are copied once, and the kernel adds the corrections of g_0^-e * x
    and of that product * g_s^e into the copied derived dict."""
    a, b, der = dict(x.a_part), dict(x.b_part), dict(x.derived)
    if family == "a":
        _collect(der, {0: -e}, {}, x.a_part, x.b_part)
        _acc(a, ((0, -e),))
        _collect(der, a, b, {s: e}, {})
        _acc(a, ((s, e),))
    else:
        _collect(der, {}, {0: -e}, x.a_part, x.b_part)
        _acc(b, ((0, -e),))
        _collect(der, a, b, {}, {s: e})
        _acc(b, ((s, e),))
    return DElement(a, b, _clean(der))


def d_twisted_conj(h: DElement, x: DElement, n: int) -> DElement:
    """h^-1 x shift^n(h) in one pass: conjugation in G of (x, n) by (h, 0).

    x's dicts are copied once. Into the copied derived dict go
    -h.derived and shift^n(h.derived), whose central coordinates cancel,
    and three kernel corrections: corr(h, h), which with -h.derived
    makes h^-1 as in d_inv; corr(h^-1, x); and corr(h^-1 x, shift^n h).
    x itself comes back when h is the identity."""
    if not (h.a_part or h.b_part or h.derived):
        return x
    ha, hb = h.a_part, h.b_part
    a, b, der = dict(x.a_part), dict(x.b_part), dict(x.derived)
    get = der.get
    for key, v in h.derived.items():
        if key[0] != "C":
            der[key] = get(key, 0) - v
            skey = (key[0], key[1] + n, key[2] + n)
            der[skey] = get(skey, 0) + v
    _collect(der, ha, hb, ha, hb)
    na, nb = _neg_vec(ha), _neg_vec(hb)
    _collect(der, na, nb, x.a_part, x.b_part)
    _acc(a, na.items())
    _acc(b, nb.items())
    sa = {i + n: e for i, e in ha.items()}
    sb = {i + n: e for i, e in hb.items()}
    _collect(der, a, b, sa, sb)
    _acc(a, sa.items())
    _acc(b, sb.items())
    return DElement(a, b, _clean(der))


def d_inv(x: DElement) -> DElement:
    # x x^-1 = 1 leaves -x.derived - corr(x, x^-1), and the correction is
    # bilinear in the abelian parts, so -corr(x, x^-1) = corr(x, x)
    der = {k: -v for k, v in x.derived.items()}
    _collect(der, x.a_part, x.b_part, x.a_part, x.b_part)
    return DElement(_neg_vec(x.a_part), _neg_vec(x.b_part), _clean(der))


def phi_shift(x: DElement, n: int) -> DElement:
    """The shift automorphism: indices of a, b move by n, c_k is fixed."""
    if n == 0 or not (x.a_part or x.b_part or x.derived):
        return x
    a = {i + n: e for i, e in x.a_part.items()}
    b = {i + n: e for i, e in x.b_part.items()}
    der = {}
    for key, v in x.derived.items():
        if key[0] == "C":
            der[key] = v
        else:
            der[(key[0], key[1] + n, key[2] + n)] = v
    return DElement(a, b, der)


def power_of_two_exponent(k: int) -> Optional[int]:
    """j with k == 2^j, or None when k is not a power of two."""
    if k >= 1 and k & (k - 1) == 0:
        return k.bit_length() - 1
    return None


def is_in_derived(x: DElement) -> bool:
    return not x.a_part and not x.b_part


def is_in_C(x: DElement) -> bool:
    return is_in_derived(x) and all(key[0] == "C" for key in x.derived)


def _surviving_c(x: DElement, d):
    """The first (k, gamma), by ascending k, of a central element x whose
    c_k^gamma survives the relators c_{2^j}^{d(j)}, or None when every
    coordinate dies.

    A coordinate gamma at index 2^j dies exactly when d(j) divides gamma.
    The cheap budgeted query d.at_least(j, |gamma|+1) settles the frequent
    case d(j) > |gamma| without ever computing d(j).
    """
    for key in sorted(x.derived):
        gamma = x.derived[key]
        if not gamma:
            continue
        k = key[1]
        j = power_of_two_exponent(k)
        if j is None or d.at_least(j, abs(gamma) + 1) or gamma % d.value(j):
            return k, gamma
    return None


def is_identity_d(x: DElement, d) -> bool:
    """Triviality test under the relators c_{2^j}^{d(j)}: x is central and
    no coordinate survives (_surviving_c)."""
    return is_in_C(x) and _surviving_c(x, d) is None


def _derived_diff(x: DElement, y: DElement) -> Optional[dict]:
    """The derived dict of x^-1 y when the a- and b-parts of x and y
    agree, else None. Derived coordinates are central in D, so x^-1 y
    is then y.derived - x.derived, without a product."""
    if x.a_part != y.a_part or x.b_part != y.b_part:
        return None
    xd, yd = x.derived, y.derived
    if xd == yd:
        return {}
    diff = {key: v - xd.get(key, 0) for key, v in yd.items()
            if v != xd.get(key, 0)}
    for key, v in xd.items():
        if v and key not in yd:
            diff[key] = -v
    return diff


def d_equal(x: DElement, y: DElement, d) -> bool:
    """Equality in D under the relators, which never touch the a- and
    b-parts: x^-1 y is the difference of the derived parts
    (_derived_diff), and must be trivial."""
    diff = _derived_diff(x, y)
    return diff is not None and is_identity_d(DElement({}, {}, diff), d)
