"""Separability functions: values, budgeted queries, metadata, and the
step-count contracts (at_least within C*m^2, value within C*d(n)^2)."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from conjlab.machine import parse_program
from conjlab.sepfunc import (
    DEFAULT_BUDGET_FACTOR,
    StepCounter,
    constant_prime,
    fast_majorant,
    from_table,
    is_prime,
    next_prime_after,
    nth_prime,
    parse_d_spec,
)

POWER2 = """\
# y = 2^x
inc y
outer: djz x done
drain: djz y fill
inc tmp
djz z drain
fill: djz tmp outer
inc y
inc y
djz z fill
done: halt
"""

LINEAR = """\
# y = x + 1
loop: djz x done
inc y
djz z loop
done: inc y
halt
"""


def test_primality_helpers():
    assert is_prime(2)
    assert is_prime(8191)
    assert not is_prime(25)
    assert not is_prime(1021 * 8191)
    with pytest.raises(ValueError):
        is_prime(1)
    assert next_prime_after(1) == 2
    assert next_prime_after(2) == 3
    assert next_prime_after(30) == 31
    assert next_prime_after(8191) == 8209


def test_constant_prime():
    d = constant_prime(31)
    assert d.value(0) == d.value(100) == 31
    assert d.at_least(7, 31)
    assert not d.at_least(7, 32)
    assert d.descriptor == "constant:31"
    assert d.eventual_constant == (0, 31)
    with pytest.raises(ValueError):
        constant_prime(12)  # not prime
    with pytest.raises(ValueError):
        d.value(-1)


def test_from_table():
    d = from_table([2, 31, 127])
    assert [d.value(n) for n in range(5)] == [2, 31, 127, 127, 127]
    assert d.at_least(1, 31) and not d.at_least(1, 32)
    assert d.eventual_constant == (2, 127)
    assert d.descriptor == "table:2,31,127"
    with pytest.raises(ValueError):
        from_table([])
    with pytest.raises(ValueError):
        from_table([5, 3])
    with pytest.raises(ValueError):
        from_table([4])


def test_nth_prime_values():
    d = nth_prime()
    assert [d.value(n) for n in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert d.eventual_constant is None  # unbounded, so no constant tail
    for n in range(8):
        p = d.value(n)
        for m in (2, p - 1, p, p + 1, 2 * p):
            assert d.at_least(n, m) == (p >= m)


def test_nth_prime_step_contract():
    d = nth_prime()
    C = DEFAULT_BUDGET_FACTOR
    for n in range(9):
        p, steps = d.value_with_steps(n)
        assert steps <= C * p * p
        for m in (2, 10, p, p + 1, 50):
            _, steps = d.at_least_with_steps(n, m)
            assert steps <= C * m * m


# -------------------------------------------------------------- fast majorant

def reference_majorant(text):
    """Independent recomputation: prefix-maximum of outputs plus cumulative
    step counts, then the next prime."""
    prog = parse_program(text)

    def d(n):
        mono, total = 0, 0
        for k in range(n + 1):
            c = StepCounter()
            out = prog.run(k, c)
            total += c.count
            mono = max(mono, out)
        return next_prime_after(mono + total)

    return d


@pytest.mark.parametrize("text", [POWER2, LINEAR])
def test_fast_majorant_matches_reference(text):
    d = fast_majorant(parse_program(text))
    ref = reference_majorant(text)
    values = [d.value(n) for n in range(9)]
    assert values == [ref(n) for n in range(9)]
    for u, v in zip(values, values[1:]):
        assert is_prime(u) and u <= v
    for n in range(9):
        assert d.value(n) >= d.program_output(n)


def test_fast_majorant_at_least_agrees():
    d = fast_majorant(parse_program(LINEAR))
    probe = fast_majorant(parse_program(LINEAR))
    for n in range(8):
        p = d.value(n)
        for m in (2, 3, p - 1, p, p + 1, p + 10):
            # fresh instance too, so the uncached path is exercised
            assert probe.at_least(n, m) == (p >= m)
            assert d.at_least(n, m) == (p >= m)


def test_fast_majorant_is_lazy():
    # 2^50 is far beyond any feasible run; the bounded query must not
    # try to evaluate the program to completion
    d = fast_majorant(parse_program(POWER2))
    ok, steps = d.at_least_with_steps(50, 10)
    assert ok
    assert steps <= DEFAULT_BUDGET_FACTOR * 10 * 10


def test_fast_majorant_step_contracts():
    C = DEFAULT_BUDGET_FACTOR
    for n in range(7):
        d = fast_majorant(parse_program(POWER2))
        p, steps = d.value_with_steps(n)
        assert steps <= C * p * p
        for m in (2, 5, p, p + 1, 3 * p):
            fresh = fast_majorant(parse_program(POWER2))
            _, steps = fresh.at_least_with_steps(n, m)
            assert steps <= C * m * m


def test_fast_majorant_memoizes():
    d = fast_majorant(parse_program(POWER2))
    first = d.value_with_steps(6)
    again = d.value_with_steps(6)
    assert first[0] == again[0]
    assert again[1] == 0


def test_fast_majorant_concurrent_queries():
    d = fast_majorant(parse_program(LINEAR))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(d.value, [7 - i for i in range(8)] * 4))
    assert results == [d.value(7 - i) for i in range(8)] * 4


# ------------------------------------------------------------------- parsing

def test_parse_d_spec(tmp_path):
    assert parse_d_spec("constant:5").value(3) == 5
    assert parse_d_spec("table:2,31").value(1) == 31
    assert parse_d_spec("nth-prime").value(3) == 7
    path = tmp_path / "prog.rm"
    path.write_text(LINEAR)
    d = parse_d_spec(f"program:{path}")
    assert d.descriptor == f"program:{path}"
    assert d.value(0) >= 2
    with pytest.raises(ValueError):
        parse_d_spec("fibonacci")
    with pytest.raises(ValueError):
        parse_d_spec("constant:9")
