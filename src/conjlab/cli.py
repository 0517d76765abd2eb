"""Command line interface.

Subcommands:

  conj W1 W2          decide conjugacy of two words, print a certificate
  mckinsey W1 W2      budgeted interleaved search (words vs quotients)
  growth I            witness-size table for the relators c_{2^i}, i <= I
  check-quotient F    does a_0, b_0, t -> alpha, beta, tau extend to a
                      homomorphism onto the table in file F
  selftest            quick internal consistency battery

Exit codes: 0 conjugate / morphism exists / success, 1 non-conjugate or
no morphism, 2 error (bad input, not a group, a failed internal check),
3 search budget exhausted.

Every report echoes the full run configuration: text output in a leading
"config:" line, CSV in a "# config:" comment, JSON in a "config" object.
Under --time it ends with the elapsed time, "elapsed_seconds" in JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import asdict

from .conjugacy import conjugacy_decide, solve_commutator_equation, \
    solve_congruences, solve_twisted_abelian, solve_twisted_derived
from .extension import (
    GElement,
    WordParseError,
    c_witness_word,
    g_conj,
    g_equal,
    g_inv,
    g_t,
    parse_word,
    spell_element,
    word_length,
)
from .machine import ProgramError
from .nilpotent import central_c, d_element, d_inv, d_mul, d_twisted_conj, \
    generator_a, generator_b, phi_shift
from .quotients import FoldedQuotient, c_bounds, c_moduli_from_bounds
from .search import SearchBudget, growth_table, mckinsey_search
from .sepfunc import parse_d_spec
from .tables import from_permutations, hom_check, load_table

DEFAULT_D = "table:2,31,127,1021,8191"

# no minimality is promised for witness words, only a polynomial size cap
WITNESS_CAP_CONSTANT = 64


def _config(args, *option_names) -> dict:
    """The run configuration a report echoes: command, d, format, then
    each named option that is set, spelled as on the command line."""
    config = {"command": args.command, "d": args.d, "format": args.format}
    for name in option_names:
        value = getattr(args, name)
        if value is not None:
            config[name.replace("_", "-")] = value
    return config


def _report(args, config, payload, lines, elapsed) -> None:
    """Print a report: one JSON object, or the config line, the text lines
    and the elapsed time, with both comment lines marked "# " in CSV."""
    if args.format == "json":
        out = {"config": config, **payload}
        if args.time:
            out["elapsed_seconds"] = elapsed
        print(json.dumps(out))
        return
    mark = "# " if args.format == "csv" else ""
    print(mark + "config: " + " ".join(f"{k}={v}" for k, v in config.items()))
    for line in lines:
        print(line)
    if args.time:
        print(f"{mark}elapsed: {elapsed:.6f}s")


def _witness_word(cert, n_input: int) -> str:
    word = spell_element(cert.witness)
    cap = max(n_input, 2) ** 5 + WITNESS_CAP_CONSTANT
    if word_length(word) > cap:
        raise AssertionError("witness word exceeded its size cap")
    return word


def _cmd_conj(args) -> int:
    d = parse_d_spec(args.d)
    g1, g2 = parse_word(args.word1), parse_word(args.word2)
    t0 = time.perf_counter()
    cert = conjugacy_decide(g1, g2, d)
    elapsed = time.perf_counter() - t0
    n_input = word_length(args.word1) + word_length(args.word2)
    witness = _witness_word(cert, n_input) if cert.is_conjugate else None
    payload = {"verdict": cert.verdict, "witness_word": witness,
               "reason": cert.reason_text()}
    lines = [f"verdict: {cert.verdict}",
             f"witness: {witness!r}" if cert.is_conjugate
             else f"reason: {cert.reason_text()}"]
    _report(args, _config(args), payload, lines, elapsed)
    return 0 if cert.is_conjugate else 1


def _cmd_mckinsey(args) -> int:
    d = parse_d_spec(args.d)
    budget = SearchBudget(max_conj_len=args.max_conj_len,
                          max_order=args.max_order,
                          max_specs=args.max_specs)
    g1, g2 = parse_word(args.word1), parse_word(args.word2)
    t0 = time.perf_counter()
    out = mckinsey_search(g1, g2, d, budget)
    elapsed = time.perf_counter() - t0
    spec = out.witness_spec.name() if out.witness_spec else None
    payload = {
        "verdict": out.verdict,
        "conjugator_word": out.conjugator_word,
        "witness_spec": spec,
        "witness_order": out.witness_order,
        "quotients_tested": out.quotients_tested,
        "conjugators_tested": out.conjugators_tested,
    }
    lines = [f"verdict: {out.verdict}"]
    if out.verdict == "conjugate":
        lines.append(f"conjugator: {out.conjugator_word!r}")
    elif out.verdict == "non-conjugate":
        lines.append(f"witness quotient: {spec} of order {out.witness_order}")
    lines += [f"quotients tested: {out.quotients_tested}",
              f"conjugators tested: {out.conjugators_tested}"]
    config = _config(args, "max_conj_len", "max_specs", "max_order")
    _report(args, config, payload, lines, elapsed)
    return {"conjugate": 0, "non-conjugate": 1}.get(out.verdict, 3)


def _cmd_growth(args) -> int:
    if args.i_max < 0:
        raise ValueError(f"i_max must be at least 0, got {args.i_max}")
    d = parse_d_spec(args.d)
    budget = SearchBudget(max_specs=args.max_specs)
    t0 = time.perf_counter()
    rows = growth_table(d, range(args.i_max + 1), budget)
    elapsed = time.perf_counter() - t0
    # the orders run to tens of thousands of digits; log2 carries the
    # contrast with the decision time
    log2s = [None if r.witness_order is None else math.log2(r.witness_order)
             for r in rows]
    payload = {"rows": [{**asdict(r), "log2_witness_order": lg}
                        for r, lg in zip(rows, log2s)]}
    lines = ["i,word_length,witness_order,decide_seconds,log2_witness_order"]
    for r, lg in zip(rows, log2s):
        wo = "" if r.witness_order is None else r.witness_order
        lg = "" if lg is None else f"{lg:.1f}"
        lines.append(f"{r.i},{r.word_length},{wo},{r.decide_seconds:.6f},{lg}")
    _report(args, _config(args, "max_specs", "i_max"), payload, lines, elapsed)
    return 0


def _cmd_check_quotient(args) -> int:
    d = parse_d_spec(args.d)
    Q = load_table(args.table)
    t0 = time.perf_counter()
    ok = hom_check(Q, d)
    elapsed = time.perf_counter() - t0
    payload = {"order": Q.order, "morphism": ok}
    lines = ["morphism exists" if ok else "no morphism"]
    _report(args, _config(args), payload, lines, elapsed)
    return 0 if ok else 1


def _selftest_checks(rng: random.Random):
    def random_element():
        return parse_word(" ".join(rng.choice("tabTAB")
                                   for _ in range(rng.randrange(0, 9))))

    def collection_example():
        got = d_mul(generator_b(0), generator_a(0))
        return got.derived == {("AB", 0, 0): -1} and got.a_part == {0: 1} \
            and got.b_part == {0: 1}

    def conj_example():
        got = g_conj(GElement(generator_a(0)), g_t(-1))
        return got == GElement(generator_a(1))

    def inverse_example():
        got = g_inv(GElement(generator_a(0), 1))
        return got == GElement(d_element(a={-1: -1}), -1)

    def twisted_abelian_example():
        got = solve_twisted_abelian({1: 1, 0: -1}, {}, 1)
        return got == ({0: -1}, {})

    def twisted_derived_example():
        got = solve_twisted_derived({("AA", 0, 1): 1, ("AA", 2, 3): -1}, 2)
        return got == {("AA", 0, 1): 1}

    def commutator_example():
        got = solve_commutator_equation(
            generator_a(0), d_element(derived={("AB", 0, 0): -1}))
        return got == generator_b(0)

    def congruence_examples():
        # mod 9 the pivot 3 is a zero divisor: 3x + 6y = 3 is solvable and
        # 3x + 6y = 4 is not; mod 10, of two primes, 6x = 4 is solvable
        # and 6x = 3 is not
        one = solve_congruences([({0: 3, 1: 6}, 3, 9)], 9)
        two = solve_congruences([({0: 3, 1: 6}, 4, 9)], 9)
        ten = solve_congruences([({0: 6}, 4, 10)], 10)
        return one is not None and two is None and \
            (3 * one.get(0, 0) + 6 * one.get(1, 0) - 3) % 9 == 0 and \
            ten is not None and 6 * ten.get(0, 0) % 10 == 4 and \
            solve_congruences([({0: 6}, 3, 10)], 10) is None

    def witness_word_parses():
        d = parse_d_spec(DEFAULT_D)
        for k in (1, 2, 5):
            g = parse_word(c_witness_word(k))
            if not g_equal(g, GElement(central_c(k)), d):
                return False
        return True

    def spell_roundtrip():
        d = parse_d_spec(DEFAULT_D)
        for _ in range(25):
            g = random_element()
            if not g_equal(parse_word(spell_element(g)), g, d):
                return False
        return True

    def quotient_order():
        d = parse_d_spec("table:2,31,127,1021,8191")
        moduli = c_moduli_from_bounds(2, c_bounds(2, d))
        return FoldedQuotient(2, 2, moduli).order() == 2048

    def table_goldens():
        d = parse_d_spec(DEFAULT_D)
        z2 = from_permutations((1, 0), (1, 0), (0, 1))
        s3 = from_permutations((1, 0, 2), (2, 1, 0), (0, 1, 2))
        return hom_check(z2, d) and not hom_check(s3, d)

    def inverse_cancels():
        for _ in range(25):
            g = random_element()
            if g_inv(g_inv(g)) != g or g_conj(g, g) != g:
                return False
        return True

    def twisted_conjugation():
        for _ in range(25):
            h, x = random_element().d_part, random_element().d_part
            n = rng.randrange(-3, 4)
            if d_twisted_conj(h, x, n) != \
                    d_mul(d_mul(d_inv(h), x), phi_shift(h, n)):
                return False
        return True

    return [
        ("collection example", collection_example),
        ("conjugation by t", conj_example),
        ("inverse with twist", inverse_example),
        ("twisted abelian solver", twisted_abelian_example),
        ("twisted derived solver", twisted_derived_example),
        ("commutator equation", commutator_example),
        ("congruence solver", congruence_examples),
        ("relator witness words", witness_word_parses),
        ("spell and reparse", spell_roundtrip),
        ("quotient order", quotient_order),
        ("table goldens", table_goldens),
        ("inverse involution", inverse_cancels),
        ("twisted conjugation", twisted_conjugation),
    ]


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for name, check in _selftest_checks(rng):
        try:
            ok = check()
        except Exception as exc:  # a failing check must not stop the rest
            print(f"FAIL - {name} ({exc})")
            failures += 1
            continue
        if ok:
            print(f"ok - {name}")
        else:
            print(f"FAIL - {name}")
            failures += 1
    print(f"{'all good' if not failures else f'{failures} failing'}")
    return 0 if not failures else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjlab",
        description="conjugacy decisions, finite quotients, and witness "
                    "growth for a separability-tuned group family")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmts=("text", "json"), default_fmt="text"):
        p.add_argument("--d", default=DEFAULT_D,
                       help="central exponent function, e.g. constant:5, "
                            "table:2,3,5, nth-prime, program:PATH "
                            f"(default {DEFAULT_D})")
        p.add_argument("--format", choices=fmts, default=default_fmt)
        p.add_argument("--time", action="store_true",
                       help="report wall time")

    p = sub.add_parser("conj", help="decide conjugacy of two words")
    p.add_argument("word1")
    p.add_argument("word2")
    add_common(p)
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("mckinsey",
                       help="interleaved word/quotient search")
    p.add_argument("word1")
    p.add_argument("word2")
    add_common(p)
    p.add_argument("--max-conj-len", type=int, default=4)
    p.add_argument("--max-specs", type=int, default=20000)
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(func=_cmd_mckinsey)

    p = sub.add_parser("growth", help="witness growth table")
    p.add_argument("i_max", type=int,
                   help="largest relator index; rows cover i = 0..i_max")
    add_common(p, fmts=("csv", "json"), default_fmt="csv")
    p.add_argument("--max-specs", type=int, default=20000)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("check-quotient",
                       help="test a finite group table for a morphism")
    p.add_argument("table", help="path to a multiplication table file")
    add_common(p)
    p.set_defaults(func=_cmd_check_quotient)

    p = sub.add_parser("selftest", help="internal consistency battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # witness orders run to tens of thousands of digits, past the default
    # int-to-str limit of Python 3.10.7 and later
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (WordParseError, ProgramError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a library self-check, not a verdict
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
