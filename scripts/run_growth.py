"""Witness growth experiment.

For each relator index i the group kills c_{2^i} raised to d(i), so the
element survives in some finite quotient exactly when the quotient keeps
a central coordinate of modulus divisible by a d value on the right fold
set. This script prints, per i, the standard word length of c_{2^i},
the order of the smallest streamed quotient separating it from the
identity, and the wall time of the direct conjugacy decision on the pair
(a_0, a_0 c_{2^i}). The point of the table is the contrast: decision
time stays flat while witness orders explode.

Example:

    python3 scripts/run_growth.py 3 --d table:2,31,127,1021,8191
"""

import argparse
import math

from conjlab.cli import DEFAULT_D
from conjlab.search import SearchBudget, growth_table
from conjlab.sepfunc import parse_d_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("i_max", type=int, nargs="?", default=3)
    ap.add_argument("--d", default=DEFAULT_D)
    ap.add_argument("--max-specs", type=int,
                    default=SearchBudget().max_specs)
    args = ap.parse_args()

    d = parse_d_spec(args.d)
    rows = growth_table(d, range(args.i_max + 1),
                        SearchBudget(max_specs=args.max_specs))
    print(f"d = {args.d}")
    print(f"{'i':>3} {'|word|':>7} {'log2 |Q|':>10} {'decide (s)':>11}")
    for r in rows:
        if r.witness_order is None:
            q = "none found"
        else:
            q = f"{math.log2(r.witness_order):10.1f}"
        print(f"{r.i:>3} {r.word_length:>7} {q:>10} {r.decide_seconds:>11.6f}")


if __name__ == "__main__":
    main()
