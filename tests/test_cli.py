"""Command line driver: exit codes, output formats, config echo."""

import json
import re
import shlex
import sys

import pytest

from conjlab import cli
from conjlab.cli import DEFAULT_D, main
from conjlab.extension import g_conj, g_equal, parse_word
from conjlab.quotients import make_spec
from conjlab.sepfunc import parse_d_spec
from conjlab.tables import from_permutations

from conftest import REPO, format_table

D_TABLE = parse_d_spec(DEFAULT_D)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- conj

def test_conj_conjugate_text(capsys):
    code, out, err = run(capsys, "conj", "a[0]", "T a[0] t")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("config: command=conj d=table:2,31,127,1021,8191")
    assert lines[1] == "verdict: conjugate"
    assert lines[2].startswith("witness: ")
    assert err == ""


def test_conj_witness_verifies(capsys):
    code, out, _ = run(capsys, "conj", "a[0]", "T a[0] t", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "conjugate"
    w = parse_word(payload["witness_word"])
    g1, g2 = parse_word("a[0]"), parse_word("T a[0] t")
    assert g_equal(g_conj(g1, w), g2, D_TABLE)
    assert payload["config"]["command"] == "conj"
    assert payload["config"]["d"] == DEFAULT_D
    assert payload["config"]["format"] == "json"


def test_conj_non_conjugate(capsys):
    code, out, _ = run(capsys, "conj", "a[0]", "a[0] c[1]", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "non-conjugate"
    assert payload["witness_word"] is None
    assert payload["reason"] == "central-obstruction(1, -1)"


def test_conj_respects_d(capsys):
    # with d constant 31 the translate by c[2]^31 becomes trivial
    code, out, _ = run(capsys, "conj", "a[0]", "a[0] c[2]^31",
                       "--d", "constant:31")
    assert code == 0
    code, _, _ = run(capsys, "conj", "a[0]", "a[0] c[2]^31",
                     "--d", "constant:2")
    assert code == 1


# a program d: under scripts/programs/power2.rm, d = 5, 19, 53, ...
POWER2_D = f"program:{REPO / 'scripts' / 'programs' / 'power2.rm'}"


def test_conj_program_d(capsys):
    # c[2] = c_{2^1} dies at the power d(1) = 19 and survives below it
    code, out, _ = run(capsys, "conj", "a[0]", "a[0] c[2]^19",
                       "--d", POWER2_D, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["witness_word"]) == ("conjugate", "")
    code, out, _ = run(capsys, "conj", "a[0]", "a[0] c[2]^18",
                       "--d", POWER2_D, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "non-conjugate"
    assert payload["reason"] == "central-obstruction(2, -18)"


# commutator words lie in the derived subgroup; the untwisted route
# aligns each pair on its least non-central index
DERIVED_CONJ = [
    ("a b A B", "a[2] b[2] A[2] B[2]", 0, "witness: 't^-2'"),
    ("a b A B", "a[2] b[3] A[2] B[3]", 1, "reason: twisted-unsolvable"),
    ("c[1]", "a b A B", 1, "reason: twisted-unsolvable"),
    ("a b A B c[3]", "a[-1] b[-1] A[-1] B[-1]", 1,
     "reason: central-obstruction(3, 1)"),
    ("a b A B c[2]^31", "a[1] b[1] A[1] B[1]", 0, "witness: 't^-1'"),
]


@pytest.mark.parametrize("x, y, want_code, last", DERIVED_CONJ)
def test_conj_derived_pairs(capsys, x, y, want_code, last):
    code, out, err = run(capsys, "conj", x, y)
    verdict = "non-conjugate" if want_code else "conjugate"
    assert (code, err) == (want_code, "")
    assert out.splitlines()[1:] == [f"verdict: {verdict}", last]


def test_conj_readme_input_example(capsys):
    # README "Input formats" writes an inverse as B[-1]
    word = "t a[1]^2 B[-1] c[2]"
    code, out, err = run(capsys, "conj", word, word)
    assert code == 0
    assert out.splitlines()[1] == "verdict: conjugate"
    assert err == ""


def test_conj_bad_word(capsys):
    code, out, err = run(capsys, "conj", "a[", "a[0]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bad_d_spec(capsys):
    code, _, err = run(capsys, "conj", "a[0]", "a[0]", "--d", "fibonacci")
    assert code == 2
    assert err.startswith("error: ")


# --------------------------------------------------------------- mckinsey

def test_mckinsey_conjugate(capsys):
    code, out, _ = run(capsys, "mckinsey", "a[0]", "T a[0] t",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "conjugate"
    w = parse_word(payload["conjugator_word"])
    assert g_equal(g_conj(parse_word("a[0]"), w), parse_word("T a[0] t"),
                   D_TABLE)
    assert payload["config"]["max-conj-len"] == 4


MCKINSEY_CONFIG = ("command=mckinsey d=table:2,31,127,1021,8191 "
                   "format={} max-conj-len=4 max-specs=20000")


def mckinsey_payload(verdict, word, spec, order, quotients, conjugators):
    return {"config": {"command": "mckinsey", "d": DEFAULT_D,
                       "format": "json", "max-conj-len": 4,
                       "max-specs": 20000},
            "verdict": verdict, "conjugator_word": word,
            "witness_spec": spec, "witness_order": order,
            "quotients_tested": quotients, "conjugators_tested": conjugators}


def test_mckinsey_non_conjugate(capsys):
    # the README example, pinned line for line
    code, out, _ = run(capsys, "mckinsey", "a[0]", "a[0] c[1]")
    assert code == 1
    assert out == (f"config: {MCKINSEY_CONFIG.format('text')}\n"
                   "verdict: non-conjugate\n"
                   "witness quotient: Q(I=2,m=2) of order 2048\n"
                   "quotients tested: 9\n"
                   "conjugators tested: 1\n")
    code, out, _ = run(capsys, "mckinsey", "a[0]", "a[0] c[1]",
                       "--format", "json")
    assert code == 1
    assert json.loads(out) == mckinsey_payload(
        "non-conjugate", None, "Q(I=2,m=2)", 2048, 9, 1)


# a[0] b[1] conjugated by "b T a"; the walk passes skipped words with a
# cancelling pair (t T ..., a A ...) before it reaches the hit
LENGTH_3_CONJUGATE = (
    "a[1] b[2] a[0] a[1]^-1 a[0]^-1 a[1] a[0] b[2]^-1 a[0]^-1 b[2] "
    "a[1] b[1] a[1]^-1 b[1]^-1 b[1] b[2]^-1 b[1]^-1 b[2]")


def test_mckinsey_conjugate_at_length_3(capsys):
    code, out, _ = run(capsys, "mckinsey", "a[0] b[1]", LENGTH_3_CONJUGATE)
    assert code == 0
    assert out == (f"config: {MCKINSEY_CONFIG.format('text')}\n"
                   "verdict: conjugate\n"
                   "conjugator: 'b T a'\n"
                   "quotients tested: 48\n"
                   "conjugators tested: 135\n")
    code, out, _ = run(capsys, "mckinsey", "a[0] b[1]", LENGTH_3_CONJUGATE,
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == mckinsey_payload(
        "conjugate", "b T a", None, None, 48, 135)


def test_mckinsey_derived_pair(capsys):
    # a commutator against its shift by 2: the word walk finds T T
    code, out, _ = run(capsys, "mckinsey", "a b A B", "a[2] b[2] A[2] B[2]")
    assert code == 0
    assert out == (f"config: {MCKINSEY_CONFIG.format('text')}\n"
                   "verdict: conjugate\n"
                   "conjugator: 'T T'\n"
                   "quotients tested: 32\n"
                   "conjugators tested: 29\n")


def test_mckinsey_budget_exhausted(capsys):
    code, out, _ = run(capsys, "mckinsey", "a[0]", "a[0] c[2]",
                       "--max-order", "1000000", "--max-conj-len", "1")
    assert code == 3
    assert "verdict: budget-exhausted" in out


def test_mckinsey_zero_max_specs_under_max_order(capsys):
    code, out, _ = run(capsys, "mckinsey", "a[0]", "a[0] c[1]",
                       "--max-specs", "0", "--max-order", "100000")
    assert code == 3
    assert "quotients tested: 0" in out.splitlines()


@pytest.mark.parametrize("argv, option", [
    (("mckinsey", "a[0]", "a[0] c[1]", "--max-order", "0"), "max-order"),
    (("mckinsey", "a[0]", "a[0] c[1]", "--max-order", "-3"), "max-order"),
    (("mckinsey", "a[0]", "a[0] c[1]", "--max-specs", "-1"), "max-specs"),
    (("mckinsey", "a[0]", "a[0] c[1]", "--max-conj-len", "-1"),
     "max-conj-len"),
    (("growth", "-1"), "i_max"),
    (("growth", "1", "--max-specs", "-1"), "max-specs"),
])
def test_out_of_range_budget_is_an_error(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and option in err


# ----------------------------------------------------------------- growth

def parse_growth_csv(out):
    lines = out.splitlines()
    assert lines[0].startswith("# config: command=growth")
    assert lines[1] == \
        "i,word_length,witness_order,decide_seconds,log2_witness_order"
    rows = []
    for line in lines[2:]:
        if line.startswith("#"):
            continue
        i, wl, order, secs, log2 = line.split(",")
        rows.append((int(i), int(wl), int(order) if order else None,
                     float(secs), log2))
    return rows


def test_growth_csv(capsys):
    code, out, _ = run(capsys, "growth", "2")
    assert code == 0
    rows = parse_growth_csv(out)
    assert [(r[0], r[1]) for r in rows] == [(0, 16), (1, 24), (2, 40)]
    assert rows[0][2] == 2048
    assert rows[1][2] == make_spec(8, 31, D_TABLE).order()
    assert rows[2][2] == make_spec(16, 127, D_TABLE).order()


def test_growth_json_matches_csv(capsys):
    code, out, _ = run(capsys, "growth", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["i-max"] == 1
    jrows = [(r["i"], r["word_length"], r["witness_order"])
             for r in payload["rows"]]
    code, out, _ = run(capsys, "growth", "1")
    assert code == 0
    crows = [(r[0], r[1], r[2]) for r in parse_growth_csv(out)]
    assert jrows == crows


def test_growth_json_large_orders(capsys):
    # the i = 3 witness order has about 4800 digits, past Python's default
    # int-to-str limit, which the command lifts while it runs
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "growth", "3", "--format", "json")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        rows = json.loads(out)["rows"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert rows[3]["witness_order"].bit_length() == 15959


# the paper's contrast under the default d: log2 of the smallest
# separating quotient of (a_0, a_0 c_{2^i}), i = 0..4
GROWTH_LOG2 = ["11.0", "548.0", "2890.3", "15958.2", "46116.0"]


def test_growth_log2_column(capsys):
    code, out, _ = run(capsys, "growth", "4")
    assert code == 0
    code, jout, _ = run(capsys, "growth", "4", "--format", "json")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = parse_growth_csv(out)
        jrows = json.loads(jout)["rows"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [r[4] for r in rows] == GROWTH_LOG2
    assert [f"{r['log2_witness_order']:.1f}" for r in jrows] == GROWTH_LOG2


def test_growth_program_d(capsys):
    code, out, _ = run(capsys, "growth", "3", "--d", POWER2_D)
    assert code == 0
    assert [r[4] for r in parse_growth_csv(out)] == \
        ["74.0", "470.3", "2369.6", "11158.9"]


def test_growth_log2_empty_without_witness(capsys):
    # a spec budget of zero finds no witness
    code, out, _ = run(capsys, "growth", "0", "--max-specs", "0")
    assert code == 0
    assert parse_growth_csv(out)[0][2:5:2] == (None, "")
    code, out, _ = run(capsys, "growth", "0", "--max-specs", "0",
                       "--format", "json")
    row = json.loads(out)["rows"][0]
    assert row["witness_order"] is None and row["log2_witness_order"] is None


# --------------------------------------------------------- check-quotient

def table_file(tmp_path, Q, name):
    path = tmp_path / name
    path.write_text(format_table(Q))
    return str(path)


def test_check_quotient_accepts(tmp_path, capsys):
    path = table_file(tmp_path, from_permutations((0, 1), (0, 1), (1, 0)),
                      "z2.tbl")
    code, out, _ = run(capsys, "check-quotient", path)
    assert code == 0
    assert "morphism exists" in out
    code, out, _ = run(capsys, "check-quotient", path, "--format", "json")
    payload = json.loads(out)
    assert payload["morphism"] is True and payload["order"] == 2


def test_check_quotient_rejects(tmp_path, capsys):
    path = table_file(tmp_path,
                      from_permutations((1, 0, 2), (2, 1, 0), (0, 1, 2)),
                      "s3.tbl")
    code, out, _ = run(capsys, "check-quotient", path)
    assert code == 1
    assert "no morphism" in out


def test_check_quotient_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check-quotient", str(tmp_path / "nope.tbl"))
    assert code == 2
    assert err.startswith("error: ")


def test_check_quotient_not_a_group(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_text("order 2\n0 0\n0 0\nalpha 0\nbeta 0\ntau 1\n")
    code, _, err = run(capsys, "check-quotient", str(path))
    assert code == 2
    assert "not a group" in err


# ------------------------------------------------------ every command

@pytest.mark.parametrize("argv", [
    ("conj", "a[0]", "a[0]"),
    ("mckinsey", "a[0]", "a[0]"),
    ("growth", "0"),
    ("check-quotient", None),
], ids=lambda argv: argv[0])
def test_timing_flag(tmp_path, capsys, argv):
    # --time ends a text or CSV report with the elapsed time and adds
    # elapsed_seconds to a JSON one
    if argv[-1] is None:
        z2 = from_permutations((0, 1), (0, 1), (1, 0))
        argv = argv[:-1] + (table_file(tmp_path, z2, "z2.tbl"),)
    code, out, _ = run(capsys, *argv, "--time", "--format", "json")
    assert code == 0
    assert json.loads(out)["elapsed_seconds"] >= 0
    code, out, _ = run(capsys, *argv, "--time")
    assert code == 0
    mark = "# " if argv[0] == "growth" else ""
    assert out.splitlines()[-1].startswith(f"{mark}elapsed: ")


def readme_examples():
    """(argv, output lines) of each `$ conjlab` example in the README
    whose input is on the command line."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = chunk.strip("\n").split("\n")
            argv = shlex.split(command)[1:]
            if argv[0] != "check-quotient":
                examples.append((argv, lines))
    return examples


def test_readme_examples(capsys):
    # a README value cut with "…" pins only its prefix; decide_seconds
    # is a timing and is not compared
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == \
        ["conj", "conj", "mckinsey", "growth", "mckinsey"]
    for argv, want in examples:
        _, out, err = run(capsys, *argv)
        assert err == ""
        got = out.splitlines()
        assert len(got) == len(want), argv
        skip = None
        for want_line, line in zip(want, got):
            fields, want_fields = line.split(","), want_line.split(",")
            assert len(fields) == len(want_fields), line
            for k, (field, value) in enumerate(zip(fields, want_fields)):
                if k == skip:
                    continue
                if value.endswith("…"):
                    assert field.startswith(value[:-1]), line
                else:
                    assert field == value, line
            if "decide_seconds" in want_fields:
                skip = want_fields.index("decide_seconds")


# ------------------------------------------------------ internal checks

def _fail_check(*args, **kwargs):
    raise AssertionError("planted failure")


@pytest.mark.parametrize("argv,target", [
    (("conj", "a", "a"), "conjugacy_decide"),
    (("mckinsey", "a", "a c[1]"), "mckinsey_search"),
    (("growth", "0"), "growth_table"),
    (("check-quotient", None), "hom_check"),
])
def test_internal_check_failure_exits_2(tmp_path, capsys, monkeypatch,
                                        argv, target):
    # a library self-check raising AssertionError is an error (exit 2),
    # never a "non-conjugate" or "no morphism" verdict (exit 1)
    if argv[-1] is None:
        z2 = from_permutations((0, 1), (0, 1), (1, 0))
        argv = argv[:-1] + (table_file(tmp_path, z2, "z2.tbl"),)
    monkeypatch.setattr(cli, target, _fail_check)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: internal check failed: planted failure\n"


def test_selftest_internal_check_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_congruences", _fail_check)
    code, out, _ = run(capsys, "selftest")
    assert code == 2
    assert "FAIL - congruence solver (planted failure)" in out.splitlines()
    assert out.splitlines()[-1] == "1 failing"


# --------------------------------------------------------------- selftest

def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all good"
    assert all(line.startswith("ok - ") for line in lines[:-1])
