"""Finite groups as explicit multiplication tables, plus the decision
procedure for whether marked elements alpha, beta, tau extend to a
homomorphism from the infinite group.

Table text format (tokens, '#' starts a comment to end of line):

    order 6
    0 1 2 3 4 5
    1 2 0 5 3 4
    ...
    alpha 1
    beta 2
    tau 3

Entries are element indices, row-major: row x column y holds x*y. The
alpha/beta/tau lines may come in any order after the table. Parsing
validates the group axioms: closed entries, a two-sided identity,
inverses, and associativity via Light's test on a generating set grown
from the marked elements, which costs O(|gens| * q^2) products instead
of q^3.
"""

from __future__ import annotations

from .quotients import relator_folds

MAX_TABLE_ORDER = 2048


class FiniteGroupTable:
    """Immutable multiplication table with three marked elements.

    mult() is the only counted operation; mult_count lets callers verify
    work bounds. Construction validates the group axioms and raises
    ValueError("not a group: ...") on any failure.
    """

    def __init__(self, table, alpha, beta, tau):
        q = len(table)
        if q == 0:
            raise ValueError("not a group: empty table")
        if q > MAX_TABLE_ORDER:
            raise ValueError(f"table order {q} exceeds the cap {MAX_TABLE_ORDER}")
        self.table = tuple(tuple(row) for row in table)
        for row in self.table:
            if len(row) != q:
                raise ValueError("not a group: table is not square")
            for v in row:
                if not 0 <= v < q:
                    raise ValueError(f"not a group: entry {v} out of range")
        for name, v in (("alpha", alpha), ("beta", beta), ("tau", tau)):
            if not 0 <= v < q:
                raise ValueError(f"{name} index {v} out of range")
        self.order = q
        self.alpha = alpha
        self.beta = beta
        self.tau = tau
        self.mult_count = 0
        self.identity = self._find_identity()
        self._inv = self._find_inverses()
        self._light_associativity()

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.order)):
                return e
        raise ValueError("not a group: no identity element")

    def _find_inverses(self):
        inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.table[x][y] == self.identity:
                    if self.table[y][x] != self.identity:
                        raise ValueError("not a group: one-sided inverse")
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValueError(f"not a group: element {x} has no inverse")
        return tuple(inv)

    def _light_associativity(self):
        gens = list(dict.fromkeys([self.alpha, self.beta, self.tau]))
        while True:
            seen = {self.identity, *gens}
            frontier = list(seen)
            while frontier:
                x = frontier.pop()
                for g in gens:
                    for y in (self.table[x][g], self.table[g][x]):
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
            if len(seen) == self.order:
                break
            gens.append(min(set(range(self.order)) - seen))
        for g in gens:
            grow = self.table[g]
            for x in range(self.order):
                xg = self.table[x][g]
                for y in range(self.order):
                    if self.table[xg][y] != self.table[x][grow[y]]:
                        raise ValueError(
                            f"not a group: ({x}*{g})*{y} != {x}*({g}*{y})")

    # counted operations

    def mult(self, x, y):
        self.mult_count += 1
        return self.table[x][y]

    def inv_of(self, x):
        return self._inv[x]

    def commutator(self, x, y):
        return self.mult(self.mult(self._inv[x], self._inv[y]), self.mult(x, y))

    def element_order(self, x):
        n = 1
        acc = x
        while acc != self.identity:
            acc = self.mult(acc, x)
            n += 1
        return n


def parse_table(text: str) -> FiniteGroupTable:
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of table text")
        tok = tokens[pos]
        pos += 1
        return tok

    def take_int(what):
        tok = take()
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"expected an integer for {what}, got {tok!r}") from None

    if take() != "order":
        raise ValueError("table text must start with 'order <q>'")
    q = take_int("order")
    if q < 1:
        raise ValueError("order must be positive")
    table = [[take_int("table entry") for _ in range(q)] for _ in range(q)]
    marks = {}
    while pos < len(tokens):
        name = take()
        if name not in ("alpha", "beta", "tau"):
            raise ValueError(f"unexpected token {name!r}")
        marks[name] = take_int(name)
    missing = {"alpha", "beta", "tau"} - set(marks)
    if missing:
        raise ValueError(f"missing marked elements: {', '.join(sorted(missing))}")
    return FiniteGroupTable(table, marks["alpha"], marks["beta"], marks["tau"])


def load_table(path) -> FiniteGroupTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


def _compose(p, q):
    # permutations as tuples: (p*q)(i) = p[q[i]]
    return tuple(p[q[i]] for i in range(len(p)))


def from_permutations(alpha, beta, tau) -> FiniteGroupTable:
    """Table of the permutation group generated by the three marked
    permutations (tuples over 0..n-1)."""
    n = len(alpha)
    for p in (beta, tau):
        if len(p) != n or sorted(p) != list(range(n)):
            raise ValueError("marked permutations must act on the same points")
    if sorted(alpha) != list(range(n)):
        raise ValueError("alpha is not a permutation")
    ident = tuple(range(n))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    gens = [tuple(alpha), tuple(beta), tuple(tau)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _compose(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                frontier.append(y)
            y = _compose(g, x)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                frontier.append(y)
    if len(elems) > MAX_TABLE_ORDER:
        raise ValueError(f"generated group order {len(elems)} exceeds the cap")
    table = [[index[_compose(x, y)] for y in elems] for x in elems]
    return FiniteGroupTable(table, index[tuple(alpha)], index[tuple(beta)],
                            index[tuple(tau)])


def _value_equals(d, j, o) -> bool:
    """d(j) == o, decided through at_least so enormous values are never
    computed."""
    return d.at_least(j, o) and not d.at_least(j, o + 1)


def hom_check(Q: FiniteGroupTable, d) -> bool:
    """Whether sending a_0, b_0, t to the marked alpha, beta, tau extends
    to a homomorphism of the whole group into Q.

    By von Dyck it suffices to check the defining relations on the
    images. Index shifting folds modulo n = order(tau), so the window
    alpha_0..alpha_{n-1}, beta_0..beta_{n-1} carries everything:

      * every commutator of window elements is central among them
        (2-step nilpotency),
      * gamma_k = [alpha_0, beta_k] [beta_0, alpha_k] commutes with tau
        (which makes the defining commutator relation shift-consistent),
      * each relator power gamma_{2^j mod n}^{d(j)} dies; since values of
        d are prime, gamma^{d(j)} = 1 means the order o of gamma is 1 or
        exactly d(j), and "d(j) == o" is decided through at_least within
        its quadratic budget. Once gamma commutes with tau,
        gamma_{n-k} = gamma_k^{-1}, so one order per folded index k
        settles the relators relator_folds(n, d) lists for k. Infinitely
        many j fold onto each residue of the 2^j cycle; the tail is
        settled by the metadata of d, with a metadata-free d treated as
        unbounded (true for program-backed majorants), which forces
        o == 1 there.

    Cost is O(n^3) counted multiplications plus the at_least budgets,
    polynomial in |Q| with d touched only through its step-counted
    interface.
    """
    e = Q.identity
    n = Q.element_order(Q.tau)
    tau, tau_inv = Q.tau, Q.inv_of(Q.tau)
    alphas = [Q.alpha]
    betas = [Q.beta]
    for _ in range(1, n):
        alphas.append(Q.mult(Q.mult(tau, alphas[-1]), tau_inv))
        betas.append(Q.mult(Q.mult(tau, betas[-1]), tau_inv))
    window = alphas + betas

    comms = {}
    for x in window:
        for y in window:
            k = Q.commutator(x, y)
            comms[(x, y)] = k
            if k == e:
                continue
            for z in window:
                if Q.commutator(k, z) != e:
                    return False

    gammas = []
    for k in range(n):
        gamma = Q.mult(comms[(alphas[0], betas[k])], comms[(betas[0], alphas[k])])
        gammas.append(gamma)
        if Q.commutator(gamma, tau) != e:
            return False

    for k, js, tail in relator_folds(n, d):
        o = Q.element_order(gammas[k])
        if o == 1:
            continue
        if tail and tail != o:
            return False
        if not all(_value_equals(d, j, o) for j in js):
            return False
    return True
