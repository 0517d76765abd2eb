"""The shift extension G: pairs (h, n) with h in D and n the t-exponent,
multiplied by (h1, n1)(h2, n2) = (h1 * shift^{n1}(h2), n1 + n2).

Conjugation by t shifts generator indices upward: t a_i t^{-1} = a_{i+1}.

Words use whitespace-separated tokens over the letters

    t a b             the generators t, a_0, b_0
    T A B             their inverses
    x^<int>           repetition, e.g. t^-3
    a[i] b[i]         shorthand for t^i a t^-i and t^i b t^-i
    c[k]              shorthand for [a_0,b_k][b_0,a_k]
    A[i] B[i] C[k]    the inverses of a[i], b[i], c[k]

word_length measures words with the shorthands expanded: a[i] and b[i]
count as 2|i|+1 letters, c[k] as 8|k|+8, and an uppercase form as its
lowercase one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .nilpotent import (
    DElement,
    _clean,
    _collect,
    c_terms,
    d_equal,
    d_identity,
    d_inv,
    d_mul,
    d_twisted_conj,
    phi_shift,
)


@dataclass(frozen=True)
class GElement:
    d_part: DElement = field(default_factory=d_identity)
    t_exp: int = 0


def g_identity() -> GElement:
    return GElement()


def g_t(n: int = 1) -> GElement:
    return GElement(d_identity(), n)


def g_mul(x: GElement, y: GElement) -> GElement:
    return GElement(d_mul(x.d_part, phi_shift(y.d_part, x.t_exp)),
                    x.t_exp + y.t_exp)


def g_inv(x: GElement) -> GElement:
    return GElement(phi_shift(d_inv(x.d_part), -x.t_exp), -x.t_exp)


def g_conj(x: GElement, by: GElement) -> GElement:
    """by^{-1} x by, with no product: for x = (h, n) and by = (k, m) it
    is (shift^{-m}(k^-1 h shift^n(k)), n), the inner part built in one
    pass by nilpotent.d_twisted_conj."""
    return GElement(phi_shift(d_twisted_conj(by.d_part, x.d_part, x.t_exp),
                              -by.t_exp), x.t_exp)


def g_equal(x: GElement, y: GElement, d) -> bool:
    """Equality in G under the relators: equal t-exponents, and D-parts
    equal in D (nilpotent.d_equal)."""
    return x.t_exp == y.t_exp and d_equal(x.d_part, y.d_part, d)


class WordParseError(ValueError):
    """Raised on malformed words; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"^(?:([tabTAB])|([abcABC])\[(-?\d+)\])(?:\^(-?\d+))?$")
_BARE = {"t": ("t", 0, 1), "a": ("a", 0, 1), "b": ("b", 0, 1),
         "T": ("t", 0, -1), "A": ("a", 0, -1), "B": ("b", 0, -1)}


def _token_parts(token: str, position: int):
    m = _TOKEN.match(token)
    if m is None:
        raise WordParseError(f"bad token {token!r}", position)
    letter, macro, idx, rep = m.groups()
    exp = int(rep) if rep is not None else 1
    base = letter or macro
    if base.isupper():
        exp = -exp
    return base.lower(), int(idx) if idx is not None else 0, exp


def _tokens(text: str):
    """(kind, index, exponent) of each token of text, in order."""
    for m in re.finditer(r"\S+", text):
        token = m.group()
        yield _BARE.get(token) or _token_parts(token, m.start())


def parse_word(text: str) -> GElement:
    """Parse a word into a group element; see the module docstring for
    the grammar. Raises WordParseError with the offending position.

    Collects in one pass, into dicts of its own: a letter x_i^e read
    after t^n is x_{i+n}^e, whose correction the kernel adds into the
    derived dict, and c is central and fixed by the shift."""
    a, b, der = {}, {}, {}
    t = 0
    for kind, idx, exp in _tokens(text):
        if kind == "t":
            t += exp
            continue
        if kind == "c":
            for key, v in c_terms(idx, exp):
                der[key] = der.get(key, 0) + v
            continue
        i = idx + t
        if kind == "a":
            _collect(der, a, b, {i: exp}, {})
            part = a
        else:
            _collect(der, a, b, {}, {i: exp})
            part = b
        v = part.get(i, 0) + exp
        if v:
            part[i] = v
        else:
            part.pop(i, None)
    return GElement(DElement(a, b, _clean(der)), t)


def word_length(text: str) -> int:
    """Letter count of the word with all shorthands expanded."""
    total = 0
    for kind, idx, exp in _tokens(text):
        if kind == "t":
            base = 1
        elif kind in ("a", "b"):
            base = 2 * abs(idx) + 1
        else:
            base = 8 * abs(idx) + 8
        total += base * abs(exp)
    return total


def c_witness_word(k: int) -> str:
    """A word of length exactly 8k+8 over t,a,b and inverses whose parse
    is central_c(k): it spells [a_0, b_k][b_0, a_k] with b_k and a_k
    written as t-conjugates."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return (f"a t^{k} b t^-{k} A t^{k} B t^-{k} "
            f"b t^{k} a t^-{k} B t^{k} A t^-{k}")


def _exp_token(base: str, exp: int) -> str:
    return base if exp == 1 else f"{base}^{exp}"


def spell_element(g: GElement) -> str:
    """A word that parses back to g coordinate for coordinate. Commutator
    coordinates are spelled as [x, y^e] with y^e expanded, so the word
    stays short even for large exponents. The identity spells as ''."""
    tokens = []
    h = g.d_part
    for i in sorted(h.a_part):
        tokens.append(_exp_token(f"a[{i}]", h.a_part[i]))
    for i in sorted(h.b_part):
        tokens.append(_exp_token(f"b[{i}]", h.b_part[i]))
    for key in sorted(h.derived):
        e = h.derived[key]
        if key[0] == "C":
            tokens.append(_exp_token(f"c[{key[1]}]", e))
            continue
        kind, i, j = key
        left = "a" if kind in ("AA", "AB") else "b"
        right = "b" if kind in ("AB", "BB") else "a"
        tokens.extend([f"{left}[{i}]", _exp_token(f"{right}[{j}]", e),
                       f"{left}[{i}]^-1", _exp_token(f"{right}[{j}]", -e)])
    if g.t_exp:
        tokens.append(_exp_token("t", g.t_exp))
    return " ".join(tokens)
