"""Prime-valued non-decreasing functions with budgeted query costs.

A separability function d answers two queries:

    value(n)        the prime d(n)
    at_least(n, m)  whether d(n) >= m

Each query is metered: one step per trial-division probe and one step per
interpreted register-machine instruction, nothing else. The contract is
that at_least(n, m) stays within C * m**2 steps and value(n) within
C * d(n)**2 steps, where C is DEFAULT_BUDGET_FACTOR (64). at_least must
never compute d(n) when m is small; triviality tests for central
coordinates rely on that to stay cheap when d is astronomically large.

Step counters are created per invocation and never shared, so concurrent
queries are safe; the one memoized implementation guards its cache with a
lock and only ever appends finished values.
"""

from __future__ import annotations

import threading
from typing import Optional

from .machine import Program, StepLimitExceeded, load_program

DEFAULT_BUDGET_FACTOR = 64


class StepCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _probe_is_prime(n: int, counter: StepCounter) -> bool:
    if n < 2:
        raise ValueError("primality is only defined for n >= 2 here")
    counter.count += 1
    if n % 2 == 0:
        return n == 2
    q = 3
    while q * q <= n:
        counter.count += 1
        if n % q == 0:
            return False
        q += 2
    return True


def is_prime(n: int) -> bool:
    """Trial-division primality test; raises on n < 2."""
    return _probe_is_prime(n, StepCounter())


def _probe_next_prime_after(n: int, counter: StepCounter) -> int:
    candidate = max(n + 1, 2)
    while not _probe_is_prime(candidate, counter):
        candidate += 1
    return candidate


def next_prime_after(n: int) -> int:
    """Smallest prime strictly greater than n."""
    return _probe_next_prime_after(n, StepCounter())


class SeparabilityFunction:
    """Base interface; subclasses fill in the *_with_steps entry points.

    descriptor reproduces the function in the CLI's --d syntax.
    eventual_constant = (start, p) marks a constant tail: d(n) = p for
    every n >= start. It is optional metadata for the quotient fold
    analysis, which treats a d without it as unbounded.
    """

    descriptor: str = "?"
    eventual_constant: Optional[tuple] = None

    def value_with_steps(self, n: int):
        raise NotImplementedError

    def at_least_with_steps(self, n: int, m: int):
        raise NotImplementedError

    def value(self, n: int) -> int:
        return self.value_with_steps(n)[0]

    def at_least(self, n: int, m: int) -> bool:
        return self.at_least_with_steps(n, m)[0]

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor}>"


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError("index must be non-negative")


class _TablePrimes(SeparabilityFunction):
    def __init__(self, values):
        values = tuple(int(v) for v in values)
        if not values:
            raise ValueError("table must be nonempty")
        for v in values:
            if not is_prime(v):
                raise ValueError(f"{v} is not prime")
        for u, v in zip(values, values[1:]):
            if v < u:
                raise ValueError("table must be non-decreasing")
        self.values = values
        self.descriptor = "table:" + ",".join(str(v) for v in values)
        self.eventual_constant = (len(values) - 1, values[-1])

    def value_with_steps(self, n):
        _check_index(n)
        return self.values[min(n, len(self.values) - 1)], 1

    def at_least_with_steps(self, n, m):
        _check_index(n)
        return m <= self.values[min(n, len(self.values) - 1)], 1


class _NthPrime(SeparabilityFunction):
    descriptor = "nth-prime"

    def value_with_steps(self, n):
        _check_index(n)
        counter = StepCounter()
        p = 1
        for _ in range(n + 1):
            p = _probe_next_prime_after(p, counter)
        return p, counter.count

    def at_least_with_steps(self, n, m):
        # d(n) >= m iff fewer than n+1 primes lie below m; counting
        # primes below m costs about m * sqrt(m) probes, within budget,
        # and never computes d(n) itself.
        _check_index(n)
        if m <= 2:
            return True, 0
        counter = StepCounter()
        seen = 0
        for candidate in range(2, m):
            if _probe_is_prime(candidate, counter):
                seen += 1
                if seen > n:
                    return False, counter.count
        return True, counter.count


class _FastMajorant(SeparabilityFunction):
    """Prime majorant of a register-machine function.

    d_0 is the program's output, monotonized by prefix maxima; d_1(n)
    adds the cumulative step count of running the program on 0..n, which
    makes it strictly increasing; d(n) is the first prime past d_1(n).
    at_least decides d(n) >= m by running the same accumulation with an
    early abort once the partial costs alone guarantee the answer.
    """

    def __init__(self, program: Program, descriptor: str):
        self.program = program
        self.descriptor = descriptor
        self._lock = threading.Lock()
        self._d1 = []
        self._mono = []
        self._steps = []          # cumulative interpreter steps
        self._primes = {}

    def program_output(self, n: int) -> int:
        """Raw d_0(n), unmetered; exposed for inspection and tests."""
        return self.program.run(n)

    def _extend(self, n: int, counter: StepCounter) -> int:
        with self._lock:
            while len(self._d1) <= n:
                k = len(self._d1)
                local = StepCounter()
                out = self.program.run(k, local)
                counter.count += local.count
                total = (self._steps[-1] if self._steps else 0) + local.count
                mono = max(self._mono[-1] if self._mono else 0, out)
                self._steps.append(total)
                self._mono.append(mono)
                self._d1.append(mono + total)
            return self._d1[n]

    def value_with_steps(self, n):
        _check_index(n)
        counter = StepCounter()
        d1 = self._extend(n, counter)
        with self._lock:
            cached = self._primes.get(d1)
        if cached is None:
            cached = _probe_next_prime_after(d1, counter)
            with self._lock:
                self._primes[d1] = cached
        return cached, counter.count

    def at_least_with_steps(self, n, m):
        _check_index(n)
        if m <= 2:
            return True, 0
        counter = StepCounter()
        with self._lock:
            have = len(self._d1) > n
        if have:
            counter.count += 1
            d1 = self._d1[n]
            if d1 >= m - 1:
                return True, counter.count
        else:
            # Fresh accumulation, aborted as soon as the partial cost
            # or the running maximum already forces d(n) > d_1(n) >= m-1.
            threshold = m - 1
            mono = 0
            try:
                for k in range(n + 1):
                    out = self.program.run(k, counter, step_budget=threshold)
                    mono = max(mono, out)
                    if mono + counter.count >= threshold:
                        return True, counter.count
            except StepLimitExceeded:
                return True, counter.count
            d1 = mono + counter.count
            if d1 >= threshold:
                return True, counter.count
        p = _probe_next_prime_after(d1, counter)
        return p >= m, counter.count


def constant_prime(p: int) -> SeparabilityFunction:
    """d(n) = p for every n: a one-entry table."""
    d = _TablePrimes((p,))
    d.descriptor = f"constant:{p}"
    return d


def from_table(values) -> SeparabilityFunction:
    """Table of primes, non-decreasing; past the end the last value
    repeats forever."""
    return _TablePrimes(values)


def nth_prime() -> SeparabilityFunction:
    """d(n) is the (n+1)-th prime: 2, 3, 5, 7, ..."""
    return _NthPrime()


def fast_majorant(program: Program, descriptor: str = "program:<memory>") -> SeparabilityFunction:
    return _FastMajorant(program, descriptor)


def parse_d_spec(spec: str) -> SeparabilityFunction:
    """Build a separability function from its CLI syntax:
    constant:<p>, table:<p1,p2,...>, nth-prime, or program:<path>."""
    if spec == "nth-prime":
        return nth_prime()
    if spec.startswith("constant:"):
        return constant_prime(int(spec[len("constant:"):]))
    if spec.startswith("table:"):
        parts = spec[len("table:"):].split(",")
        return from_table([int(p) for p in parts])
    if spec.startswith("program:"):
        path = spec[len("program:"):]
        return fast_majorant(load_program(path), descriptor=spec)
    raise ValueError(f"unrecognized d specification {spec!r}")
