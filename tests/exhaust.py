"""Bounded-exhaustive check of the walk passes' contract on every short list of ints.

walking._order runs the pass of a family's tilt on a list of steps.  On a
member it writes every entry once; on any other list of ints it must still
return a permutation of range(len(s)) or raise WalkError, with no other
exception, since invert's output guard and a later certificate rest on that.
This script sends every list of length <= LENGTH (6) with entries in -3..6,
0 included, through _order at drops 1 to 3 and tilts 0, +1 and -1.  It stops
at the first call that breaks the contract, prints it, and exits 1; either
way it prints one summary line: the cases, permutations and refusals, and
the time.  Tier-1 runs check(4) (tests/test_exhaust.py).

Run from anywhere, stdlib only:  python tests/exhaust.py
"""

from __future__ import annotations

import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VALUES = range(-3, 7)
DROPS = (1, 2, 3)
TILTS = (0, 1, -1)
LENGTH = 6  # 10**7 calls


def check(length: int) -> tuple[int, int, tuple | None]:
    """(calls made, permutations returned, the first counterexample or None)
    over every list of length <= length; a counterexample is (steps, drop,
    tilt, what the call did), and the calls before it were refused."""
    from sweepmap.walking import WalkError, _order

    cases = permutations = 0
    for n in range(length + 1):
        indices = list(range(n))
        for s in product(VALUES, repeat=n):
            for drop in DROPS:
                for tilt in TILTS:
                    cases += 1
                    try:
                        out = _order(s, drop, tilt)
                    except WalkError:
                        continue
                    except Exception as exc:  # the contract allows WalkError alone
                        return cases, permutations, (s, drop, tilt, f"raised {exc!r}")
                    if sorted(out) != indices:
                        return cases, permutations, (s, drop, tilt, f"returned {out!r}")
                    permutations += 1
    return cases, permutations, None


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not
    start = time.perf_counter()
    cases, permutations, counterexample = check(LENGTH)
    seconds = time.perf_counter() - start
    if counterexample:
        s, drop, tilt, what = counterexample
        print(f"counterexample: _order({s!r}, {drop}, {tilt}) {what}")
    refusals = cases - permutations - (counterexample is not None)
    print(f"walking._order on every list of length <= {LENGTH} over -3..6, drops 1-3, "
          f"tilts 0 +1 -1: {cases} cases, {permutations} permutations, {refusals} refusals, "
          f"{int(counterexample is not None)} counterexamples, {seconds:.1f} s")
    return 1 if counterexample else 0


if __name__ == "__main__":
    sys.exit(main())
