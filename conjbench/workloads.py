"""The three benchmark workloads: seeded inputs, one timed op, output checks.

Inputs come in rounds. A round is a fixed, stratified list of input
kinds: each seed draws the same number of inputs for every combination
of the properties the cost depends on (word length, twisted or
t-balanced shape, pair type, exponent function), so seeds change the
inputs but not the mix. Strata are interleaved, so any stretch of a
round has about the same mix.

One round, the pool, is built during set-up and cycled, so a run
decides each input many times, spread over the whole run. run.py takes
an input's latency as the fastest of its times (see NOTES.md): on a
shared machine that is what a change to the program moves and the
neighbours do not.

The input digest covers the pool and the verdict digest its verdicts,
so both repeat for a seed whatever the run length.

Every exponent function is built from its ``--d`` spec with
``parse_d_spec``, as the CLI builds it.

conjlab is used only through its public names, looked up on the package
at call time so that traced wrappers (see tracing.py) are seen.
"""

from __future__ import annotations

import hashlib
import random

import conjlab as cl

D_TABLE = "table:2,31,127,1021,8191"

# bit lengths of the smallest separating quotient orders for i = 0..4
GROWTH_BITS = (12, 548, 2891, 15959, 46116)


def random_word(rng: random.Random, n: int, t_exp=None, band=None) -> str:
    """n letters over t a b T A B. With t_exp given the t-exponent is
    exactly t_exp. With band given the running t-exponent stays within
    +-band, which bounds the generator indices the word touches."""
    if band is not None:
        return _banded_word(rng, n, t_exp or 0, band)
    letters = [rng.choice("tabTAB") for _ in range(n)]
    if t_exp is None:
        return " ".join(letters)
    e = letters.count("t") - letters.count("T")
    while e != t_exp:
        i = rng.randrange(n)
        c = letters[i]
        if e > t_exp and c != "T":
            letters[i] = rng.choice("abAB") if c == "t" else "T"
            e -= 1
        elif e < t_exp and c != "t":
            letters[i] = rng.choice("abAB") if c == "T" else "t"
            e += 1
    return " ".join(letters)


def _banded_word(rng, n, t_exp, band):
    letters = []
    pos = 0
    for k in range(n):
        need = t_exp - pos
        if abs(need) >= n - k:
            c = "t" if need > 0 else "T"
        else:
            c = rng.choice("tabTAB")
            if (c == "t" and pos >= band) or (c == "T" and pos <= -band):
                c = rng.choice("abAB")
        pos += (c == "t") - (c == "T")
        letters.append(c)
    return " ".join(letters)


def _letter(rng: random.Random, radius: int) -> str:
    """One generator letter a[i]^+-1 or b[i]^+-1 with |i| <= radius."""
    return (f"{rng.choice('ab')}[{rng.randint(-radius, radius)}]"
            f"^{rng.choice((1, -1))}")


def build(word: str, chunk: int = 32):
    """parse_word on chunks of the word, multiplied as a balanced tree.
    The normal form is unique, so this is parse_word(word), built with
    fewer large products."""
    tokens = word.split()
    parts = [cl.parse_word(" ".join(tokens[i:i + chunk]))
             for i in range(0, len(tokens), chunk)] or [cl.parse_word("")]
    while len(parts) > 1:
        parts = [cl.g_mul(*parts[i:i + 2]) if i + 1 < len(parts)
                 else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


def make_pair(kind, word, conj_word="", extra=""):
    """(g1, g2) from words: g2 is w^-1 g w for a conjugate,
    w^-1 g w x for a perturbation by the letter x, and w^-1 (g x) w for
    a translate (or relator pair) by the central word x."""
    g1 = build(word)
    w = build(conj_word)
    if kind == "conjugate":
        return g1, cl.g_conj(g1, w)
    if kind == "perturbation":
        return g1, cl.g_mul(cl.g_conj(g1, w), cl.parse_word(extra))
    return g1, cl.g_conj(cl.g_mul(g1, cl.parse_word(extra)), w)


def interleave(groups):
    """Concatenate groups so that each is spread evenly over the result."""
    keyed = [((k + 0.5) / len(group), gi, k, entry)
             for gi, group in enumerate(groups)
             for k, entry in enumerate(group)]
    keyed.sort(key=lambda e: e[:3])
    return [e[3] for e in keyed]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Item:
    """One input: a description (hashed into the input digest), the
    objects the op consumes, and the verdict its construction forces
    (None when the construction does not force one)."""

    def __init__(self, text, payload, expect=None):
        self.text = text
        self.payload = payload
        self.expect = expect


class Workload:
    name = ""
    probes: tuple = ()     # (argv for conjlab.cli.main, expected exit code)

    def setup(self, seed: int):
        """Build what every op shares and the round, self.pool."""
        raise NotImplementedError

    @property
    def round_size(self) -> int:
        return len(self.pool)

    def item(self, i: int) -> Item:
        return self.pool[self.key(i)]

    def key(self, i: int) -> int:
        """Ops with one key decide the same input."""
        return i % len(self.pool)

    def run(self, item):
        """The timed op. Returns (verdict text, result kept for check)."""
        raise NotImplementedError

    def check(self, item, result) -> list:
        """Error strings for one op's result; empty when it is correct."""
        raise NotImplementedError

    def counters(self, result) -> dict:
        """Counts the program reports with one op's result."""
        return {}

    def input_digest(self) -> str:
        return digest(self.item(i).text for i in range(self.round_size))


# ------------------------------------------------------------------ decide

class Decide(Workload):
    """conjugacy_decide on pairs at 64, 256 and 1024 letters.

    Pair types: conjugates (g, w^-1 g w); central translates
    w^-1 (g c_k^gamma) w, trivial (k = 2^j, d(j) | gamma) or not; and
    abelianization perturbations w^-1 g w x for one generator letter x,
    which change an exponent sum and so are never conjugate. A pair is
    conjugate exactly when its central translate is trivial in G_d.

    Words keep their running t-exponent within +-6 (conjugators of a
    quarter the length too): the cost follows the generator support more
    than the letter count, and the band fixes the support at each length.
    """

    name = "decide"
    D_SPECS = (D_TABLE, "nth-prime", "program:scripts/programs/power2.rm")
    # pair types per d and shape (t-balanced, twisted) at each length.
    # Perturbations fail at the first stage whatever the length, so they
    # sit at 1024 letters only, beside a second conjugate: the median op
    # then falls in the middle of the 256-letter pairs.
    PLAN = ((64, ("conjugate", "translate-trivial", "translate-nontrivial")),
            (256, ("conjugate", "translate-trivial", "translate-nontrivial")),
            (1024, ("conjugate", "conjugate", "translate-trivial",
                    "translate-nontrivial", "perturbation")))
    REPEAT = 4
    BAND = 6
    probes = ((["conj", "a[0]", "T a[0] t"], 0),
              (["conj", "a[0]", "a[0] c[1]"], 1))

    def setup(self, seed):
        rng = random.Random(seed)
        self.ds = {spec: cl.parse_d_spec(spec) for spec in self.D_SPECS}
        self.pool = [self._pair(rng, spec, n, twisted, kind)
                     for _ in range(self.REPEAT)
                     for spec in self.D_SPECS
                     for twisted in (False, True)
                     for n, kinds in self.PLAN
                     for kind in kinds]

    def _pair(self, rng, spec, n, twisted, kind):
        d = self.ds[spec]
        t_exp = rng.choice((1, -1, 2, -2, 3, -3)) if twisted else 0
        word = random_word(rng, n, t_exp, self.BAND)
        conj_word = random_word(rng, n // 4, rng.choice((-1, 0, 1)),
                                self.BAND)
        extra = ""
        if kind == "translate-trivial":
            j = rng.randrange(4)
            extra = f"c[{2 ** j}]^{d.value(j) * rng.choice((1, -1, 2, -2))}"
        elif kind == "translate-nontrivial":
            if rng.random() < 0.5:
                j = rng.randrange(4)
                gamma = rng.randrange(1, d.value(j)) * rng.choice((1, -1))
                extra = f"c[{2 ** j}]^{gamma}"
            else:
                extra = (f"c[{rng.choice((3, 5, 6, 7))}]"
                         f"^{rng.choice((1, -1, 2, -2, 3, -3))}")
        elif kind == "perturbation":
            extra = _letter(rng, 3)
        g1, g2 = make_pair(kind, word, conj_word, extra)
        text = f"{spec}|{n}|{kind}|{word}|{conj_word}|{extra}"
        expect = kind in ("conjugate", "translate-trivial")
        return Item(text, (g1, g2, d), expect)

    def run(self, item):
        g1, g2, d = item.payload
        cert = cl.conjugacy_decide(g1, g2, d)
        return f"{cert.verdict}:{cert.reason_text()}", cert

    def check(self, item, cert):
        g1, g2, d = item.payload
        if cert.is_conjugate != item.expect:
            return [f"verdict {cert.verdict} contradicts the construction"]
        if cert.is_conjugate and not cl.g_equal(cl.g_conj(g1, cert.witness),
                                                g2, d):
            return ["witness does not conjugate g1 to g2"]
        return []


# ---------------------------------------------------------------- separate

class Separate(Workload):
    """mckinsey_search on short pairs, with the CLI's default budget.

    Per d: the relator pairs (a_0, a_0 c_{2^i}) for i = 0..2; conjugates
    by a word of at most 3 letters over tabTAB, inside the word radius
    max_conj_len = 4, in both shapes; an abelianization perturbation;
    and, under the two table d, t-balanced translates by c_1^{+-1}.
    Words have 6 letters. The spec ladder of every d is built during
    set-up.

    Left out on purpose: conjugates by words longer than the radius
    (each becomes a full bounded walk dominated by in-quotient solving,
    3-80 s); twisted translates, whose walk decides conjugacy in twisted
    quotients by the exact route, 0.1-10 s a pair; and translates under
    constant:3 and linear.rm, whose walks through 277-1167 specs settle
    conjugacy in each quotient by exhaustive enumeration that stops at a
    random element, 0.2-1 s a pair. Their spread from pair to pair would
    swamp every other cost here. The exact route still runs on the
    walks that remain (search.route_exact counts it).
    """

    name = "separate"
    D_SPECS = (D_TABLE, "table:2,3,5", "constant:3",
               "program:scripts/programs/linear.rm")
    WORD = 6
    # (pair type, twisted, d specs, inputs per d and round). Relator
    # pairs and translates make the bulk of the time at 0.1-0.4 s an op,
    # so the median op falls among them.
    PLAN = (("conjugate", False, D_SPECS, 1), ("conjugate", True, D_SPECS, 1),
            ("perturbation", False, D_SPECS[0::2], 1),
            ("perturbation", True, D_SPECS[1::2], 1),
            ("translate", False, D_SPECS[:2], 8))
    probes = ((["mckinsey", "a[0]", "a[0] c[1]"], 1),)

    def setup(self, seed):
        self.seed = seed
        self.budget = cl.SearchBudget()
        self.ds = {}
        for spec in self.D_SPECS:
            self.ds[spec] = cl.parse_d_spec(spec)
            cl.spec_stream(self.ds[spec], self.budget)
        groups = [[("relator", False, spec, i)
                   for spec in self.D_SPECS for i in range(3)]]
        for kind, twisted, specs, count in self.PLAN:
            groups.append([(kind, twisted, spec, None)
                           for spec in specs for _ in range(count)])
        self.pool = [self._build(i, entry)
                     for i, entry in enumerate(interleave(groups))]

    def _build(self, i, entry):
        kind, twisted, spec, j = entry
        if kind == "relator":
            return self._item(spec, kind, "a[0]", "", f"c[{2 ** j}]")
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        word = random_word(rng, self.WORD,
                           rng.choice((1, -1, 2, -2)) if twisted else 0)
        conj_word = random_word(rng, rng.randint(1, 3))
        extra = {"conjugate": "", "perturbation": _letter(rng, 2),
                 "translate": f"c[1]^{rng.choice((1, -1))}"}[kind]
        return self._item(spec, kind, word, conj_word, extra)

    def _item(self, spec, kind, word, conj_word, extra):
        g1, g2 = make_pair(kind, word, conj_word, extra)
        text = f"{spec}|{kind}|{word}|{conj_word}|{extra}"
        return Item(text, (g1, g2, self.ds[spec]), kind == "conjugate")

    def run(self, item):
        g1, g2, d = item.payload
        out = cl.mckinsey_search(g1, g2, d, self.budget)
        spec = out.witness_spec.name() if out.witness_spec else None
        return (f"{out.verdict}:{out.conjugator_word}:{spec}:"
                f"{out.quotients_tested}:{out.conjugators_tested}"), out

    def counters(self, out):
        return {"search.quotients_tested": out.quotients_tested,
                "search.conjugators_tested": out.conjugators_tested,
                "search.separations": int(out.verdict == "non-conjugate")}

    def check(self, item, out):
        g1, g2, d = item.payload
        if out.verdict == "budget-exhausted":
            return []
        errors = []
        cert = cl.conjugacy_decide(g1, g2, d)
        if cert.is_conjugate != (out.verdict == "conjugate"):
            errors.append(f"search says {out.verdict}, "
                          f"conjugacy_decide says {cert.verdict}")
        if out.verdict == "conjugate":
            w = cl.parse_word(out.conjugator_word)
            if not cl.g_equal(cl.g_conj(g1, w), g2, d):
                errors.append("conjugator word does not conjugate")
        elif not cl.quotient_is_well_defined(out.witness_spec, d):
            errors.append(f"{out.witness_spec.name()} is not well defined")
        if item.expect != (out.verdict == "conjugate"):
            errors.append(f"verdict {out.verdict} contradicts the construction")
        return errors


# ------------------------------------------------------------------ growth

class Growth(Workload):
    """growth_table(table:2,31,127,1021,8191, 0..4), cold: each op runs in
    a child process of its own, so it pays the spec ladder and every
    quotient construction, as each CLI run does. Its input does not
    depend on the seed."""

    name = "growth"
    I_VALUES = range(5)
    probes = ((["growth", "3", "--format", "json"], 0),)

    def setup(self, seed):
        self.d = cl.parse_d_spec(D_TABLE)
        self.pool = [Item(f"{D_TABLE}|growth|0..4", None)]

    def run(self, item):
        rows = cl.growth_table(self.d, self.I_VALUES)
        return ",".join(map(str, self._bits(rows))), rows

    @staticmethod
    def _bits(rows):
        return tuple(r.witness_order.bit_length() if r.witness_order else 0
                     for r in rows)

    def check(self, item, rows):
        if self._bits(rows) != GROWTH_BITS:
            return [f"witness bit lengths {self._bits(rows)}, "
                    f"expected {GROWTH_BITS}"]
        return []


WORKLOADS = {wl.name: wl for wl in (Decide, Separate, Growth)}
