"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with -s to see the lines as they print:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

from sweepmap import (
    FamilySpec,
    StepSequence,
    SWWord,
    Tableau,
    brute_invert,
    certify_bijection,
    enumerate_family,
    extend_plus,
    fill,
    invert,
    is_minus_admissible,
    rank_tableau,
    ranks,
    sweep,
    walk,
    walk_minus,
    walk_plus,
)
from conftest import digraph_walk, family_grid, random_path, uniform_member, validate_tableau

IMAGE = StepSequence(
    (4, 2, -1, -1, -1, -1, -1, 5, -1, 3, -1, -1, -1, -1, -1, -1, -1, -1)
)
PREIMAGE = StepSequence(
    (2, -1, -1, 4, -1, 5, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, -1, -1)
)
SIGMA = (2, 6, 4, 1, 11, 8, 18, 17, 15, 13, 10, 16, 14, 12, 9, 7, 5, 3)
SIGMA_PLUS = (1, 10, 17, 15, 13, 11, 8, 19, 18, 16, 14, 12, 9, 6, 4, 2, 7, 5, 3)

GRID = family_grid(4, 3)


@contextmanager
def criterion(number, label):
    notes = []  # measurements the body appends to its PASS/FAIL line
    try:
        yield notes
    except BaseException:
        print(f"FAIL criterion {number}: {label}", *notes)
        raise
    print(f"PASS criterion {number}: {label}", *notes)


def best_of(fn, repeats=7):
    """Smallest wall-clock time of repeats runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_golden_running_example():
    family = FamilySpec.vector((2, 4, 5, 3))
    with criterion(1, "golden running example inverts exactly, under 1 ms"):
        assert invert(IMAGE, family) == PREIMAGE
        t = fill(SWWord.from_steps(IMAGE))
        assert t.top_row == (1, 2, 8, 10)
        assert t.bottom_row == (9, 6, 18, 16)
        r = rank_tableau(t)
        assert walk(t, r) == SIGMA
        assert ranks(PREIMAGE) == (
            0, 2, 1, 0, 4, 3, 8, 7, 6, 5, 4, 7, 6, 5, 4, 3, 2, 1
        )
        elapsed = best_of(lambda: invert(IMAGE, family))
        assert elapsed < 1e-3, f"invert took {elapsed * 1e3:.3f} ms"


def test_criterion_2_golden_plus_example():
    with criterion(2, "plus walk golden and column-removal consistency"):
        tp = extend_plus(fill(SWWord.from_steps(IMAGE)))
        assert walk_plus(tp) == SIGMA_PLUS

        removed = set(tp.columns[1])
        kept_cols = (tp.columns[0], *tp.columns[2:])
        kept = sorted(v for col in kept_cols for v in col)
        relabel = {v: i for i, v in enumerate(kept, start=1)}
        smaller = Tableau(tuple(tuple(relabel[v] for v in col) for col in kept_cols))
        back = tuple(kept[i - 1] for i in walk_plus(smaller))
        assert back == tuple(v for v in SIGMA_PLUS if v not in removed)


def test_criterion_3_golden_rational_example():
    with criterion(3, "rational example sweeps to the expected word and ranks"):
        path = StepSequence(
            (12, 12, -4, -4, -4, -4, 12, -4, -4, -4, 12, -4, -4, -4, -4, -4)
        )
        image = sweep(path)
        assert image.steps == (
            12, -4, -4, 12, 12, -4, -4, -4, 12, -4, -4, -4, -4, -4, -4, -4
        )
        assert tuple(sorted(ranks(path))) == (
            0, 4, 8, 8, 8, 12, 12, 12, 12, 16, 16, 16, 20, 20, 20, 24
        )


def test_criterion_4_oracle_equivalence():
    with criterion(4, "walk inversion matches the exhaustive oracle on the grid"):
        t0 = time.perf_counter()
        paths_checked = 0
        for family in GRID:
            for p in enumerate_family(family, permute_k=True).paths:
                image = sweep(p)
                fast = invert(image, family)
                slow = brute_invert(image, family)
                assert fast == slow == p
                paths_checked += 1
        elapsed = time.perf_counter() - t0
        assert paths_checked > 10_000
        assert elapsed < 10, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_5_bijectivity_certification():
    with criterion(5, "sweep certified bijective on every family of the grid"):
        for family in GRID:
            report = certify_bijection(family)
            assert report.bijection, (family, report.counterexample)


def test_criterion_6_invariant_suite():
    with criterion(6, "structural invariants hold across the grid"):
        for family in GRID:
            if family.kind != "k":
                continue
            n = len(family.k)
            equal_parameter = len(set(family.k)) == 1
            for p in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(p)))
                size = t.size

                # fill places every index and the result is a valid tableau
                assert size == len(p)
                assert validate_tableau(t)

                # ranking is total and climbs by 0 or 1
                r = rank_tableau(t)
                assert len(r) == size
                assert all(b - a in (0, 1) for a, b in zip(r, r[1:]))

                # rank multiset equals the preimage's level multiset
                assert sorted(r) == sorted(ranks(p))

                # walk lengths: size / size+1 / size-1
                sigma = walk(t, r)
                assert len(sigma) == size
                assert len(walk_plus(extend_plus(t))) == size + 1
                if is_minus_admissible(t):
                    assert len(walk_minus(t)) == size - 1

                # the digraph restatement writes the same order; the sigma
                # comparison is the check of the walk (any rankable filling is balanced)
                assert digraph_walk(t, r) == (sigma, True)

                if equal_parameter:
                    kv = family.k[0]
                    top = Counter(r[col[0] - 1] for col in t.columns)
                    below_top = Counter(r[v - 1] for col in t.columns for v in col[1:])
                    for rank, total in (top + below_top).items():
                        assert total == top[rank - kv] + below_top[rank + 1]
                        assert total <= n
                    assert top[0] + below_top[0] == below_top[1]

                    # final write of the plain walk: smallest rank-1 entry
                    smallest_rank_one = min(
                        v for v in range(1, size + 1) if r[v - 1] == 1
                    )
                    assert sigma[-1] == smallest_rank_one


def test_criterion_7_large_random_round_trips():
    with criterion(7, "large random instances round-trip within 10x of a sort pass") as notes:
        rng = random.Random(20260817)
        cases = [
            tuple(rng.randint(1, 10) for _ in range(200)),  # |k| about 1100
            (10,) * 200,                                    # |k| = 2000
            (1,) * 200,
            tuple(rng.randint(1, 10) for _ in range(50)),
        ]
        for k in cases:
            family = FamilySpec.vector(k)
            path = random_path(k, rng)
            image = sweep(path)
            assert invert(image, family) == path

        # timing on the largest instance: inversion within 10x of the
        # forward sweep, itself a single sorting pass over the same steps
        k = (10,) * 200
        family = FamilySpec.vector(k)
        image = sweep(random_path(k, rng))
        t_sort = best_of(lambda: sweep(image))
        t_invert = best_of(lambda: invert(image, family))
        ratio = t_invert / t_sort
        # the ratio moves with host load, so the line shows both times
        timing = f"sweep {t_sort * 1e3:.2f} ms, invert {t_invert * 1e3:.2f} ms"
        notes.append(f"(ratio {ratio:.1f}: {timing})")

        # reported, not gated: each kind on a uniform member with k = (1,)*2000
        for kind in ("k", "kplus", "kminus"):
            family = FamilySpec(kind, (1,) * 2000)
            image = sweep(uniform_member(family, random.Random(kind)))
            t_s = best_of(lambda: sweep(image))
            t_i = best_of(lambda: invert(image, family))
            notes.append(f"[{kind} 1x2000: ratio {t_i / t_s:.1f}, "
                         f"sweep {t_s * 1e3:.2f} ms, invert {t_i * 1e3:.2f} ms]")
        assert ratio <= 10, f"invert/sweep ratio {ratio:.1f} ({timing})"
