"""Seeded inputs for the benchmark, built with the standard library only.

Nothing here imports sweepmap: the inputs, and the expected outputs they
are checked against, must not depend on the code being measured.  Every
path is drawn uniformly from its family's permutation closure with the
cycle lemma (Dvoretzky-Motzkin): shuffle the step multiset together with
an extra total of -c, then rotate to one of the c rotations whose proper
prefix sums all stay above -c.

A family is a pair (kind, k) with kind "k", "kplus" or "kminus" and k a
sorted rise vector.  Paths are lists of signed rises in the scaled integer
form sweepmap uses: plus/minus rises are n*k_i +/- 1 and drops are n.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

KINDS = ("k", "kplus", "kminus")

# invert-large: one family per path, n up steps with k_i uniform in [1, 10]
LARGE_N = 9_000
LARGE_PATHS_PER_KIND = 4

# batch-cli: one family per batch, n spread evenly over [5, 60], k_i over [1, 10]
BATCHES_PER_KIND = 8
BATCH_LINES = 200
BATCH_NON_MEMBER_RATE = 0.02

# certify-grid: every family with n <= 4 up steps and k_i <= 4
GRID_MAX_N = 4
GRID_MAX_K = 4


def _rotate_good(seq: list[int], c: int, rng: random.Random) -> list[int]:
    """One of the c rotations of seq (total -c, drops of 1) with proper
    prefix sums > -c, chosen uniformly.

    Such a rotation starts right after the first visit of one of the c
    lowest levels the prefix sums reach before the last step.
    """
    first_visit = {0: 0}
    h = 0
    for j, a in enumerate(seq[:-1], start=1):
        h += a
        first_visit.setdefault(h, j)
    low = min(first_visit)
    r = first_visit[low + rng.randrange(c)]
    return seq[r:] + seq[:r]


def plain_path(k, rng: random.Random) -> list[int]:
    """A uniform path with up rises permuting k and drops of 1."""
    seq = list(k) + [-1] * (sum(k) + 1)
    rng.shuffle(seq)
    return _rotate_good(seq, 1, rng)[:-1]


def primitive_path(k, rng: random.Random) -> list[int]:
    """A uniform plain path that returns to level 0 only at its end.

    The first step a is drawn with weight a per up step, which is the share
    of primitive paths that start with it; the rest, total -a, must keep
    its proper prefix sums above -a.
    """
    j = rng.choices(range(len(k)), weights=k)[0]
    a = k[j]
    rest = list(k[:j]) + list(k[j + 1:]) + [-1] * sum(k)
    rng.shuffle(rest)
    return [a] + _rotate_good(rest, a, rng)


def lift(plain: list[int], kind: str, n: int) -> list[int]:
    """Scale a plain path into the family kind (plus appends a drop, minus
    removes the last one)."""
    if kind == "k":
        return plain
    if kind == "kplus":
        return [n * a + 1 if a > 0 else -n for a in plain] + [-n]
    return [n * a - 1 if a > 0 else -n for a in plain[:-1]]


def member(kind: str, k, rng: random.Random) -> list[int]:
    """A uniform member of the permutation closure of the family (kind, k)."""
    plain = primitive_path(k, rng) if kind == "kminus" else plain_path(k, rng)
    return lift(plain, kind, len(k))


def is_member(steps, kind: str, k) -> bool:
    """Whether steps lies in the permutation closure of (kind, k)."""
    n = len(k)
    if kind == "k":
        rises, drop = sorted(k), 1
    elif kind == "kplus":
        rises, drop = sorted(n * v + 1 for v in k), n
    else:
        rises, drop = sorted(n * v - 1 for v in k), n
    h = 0
    for a in steps:
        if a < 0 and a != -drop or a == 0:
            return False
        h += a
        if h < 0:
            return False
    if h != 0 or sorted(a for a in steps if a > 0) != rises:
        return False
    if kind == "kminus":
        # the plain path under a minus path returns to zero only at its end
        plain_h = 0
        for a in steps:
            plain_h += (a + 1) // n if a > 0 else -1
            if plain_h == 0:
                return False
    return True


def _arrangements(items) -> int:
    """Distinct orderings of a multiset."""
    out = math.factorial(len(items))
    for c in Counter(items).values():
        out //= math.factorial(c)
    return out


def closure_size(kind: str, k) -> int:
    """How many paths the permutation closure of (kind, k) has, by the
    cycle lemma; plus paths biject with plain ones, minus paths with the
    primitive plain ones."""
    downs = [-1] * sum(k)
    if kind != "kminus":
        return _arrangements(list(k) + downs + [-1]) // (len(k) + len(downs) + 1)
    total = 0
    for a in set(k):
        rest = list(k) + downs
        rest.remove(a)
        total += _arrangements(rest) * a // len(rest)
    return total


def non_member(kind: str, k, rng: random.Random) -> list[int]:
    """A line the family rejects: a member with one step moved or one rise
    changed, checked to fall outside the family."""
    while True:
        steps = member(kind, k, rng)
        if rng.random() < 0.5:
            # move a down step to the front: the first prefix sum is negative
            j = next(i for i, a in enumerate(steps) if a < 0)
            steps = [steps[j]] + steps[:j] + steps[j + 1:]
        else:
            j = rng.choice([i for i, a in enumerate(steps) if a > 0])
            steps[j] += 1
        if not is_member(steps, kind, k):
            return steps


def sweep_ref(steps) -> list[int]:
    """The sweep map: steps stably sorted by starting level, later steps
    first within a level."""
    size = len(steps)
    levels = list(itertools.accumulate(steps, initial=0))
    # an int key orders as (level, -i) and allocates no tracked objects
    order = sorted(range(size), key=lambda i: levels[i] * size - i)
    return [steps[i] for i in order]


def emit(steps) -> str:
    return ",".join(map(str, steps))


def _random_k(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(sorted(rng.randint(1, 10) for _ in range(n)))


def invert_large(seed: int) -> list[tuple[str, tuple[int, ...], list[int], list[int]]]:
    """(kind, k, path, sweep image), kinds rotating k -> kplus -> kminus."""
    rng = random.Random(f"invert-large:{seed}")
    out = []
    for i in range(LARGE_PATHS_PER_KIND * len(KINDS)):
        kind = KINDS[i % len(KINDS)]
        k = _random_k(rng, LARGE_N)
        path = member(kind, k, rng)
        out.append((kind, k, path, sweep_ref(path)))
    return out


def batch_cli(seed: int) -> list[dict]:
    """Stdin batches for `sweepmap sweep` then `sweepmap invert`.

    Each batch holds one family.  ``preimages`` and ``images`` are the two
    stdin texts' lines; a line of ``bad`` positions is a non-member whose
    output must be an error line in both batches.  Every kind gets the same
    families, n spread evenly over [5, 60] and each k spread evenly over
    [1, 10], so that seeds differ in paths, not in path lengths.
    """
    rng = random.Random(f"batch-cli:{seed}")
    out = []
    for i in range(BATCHES_PER_KIND * len(KINDS)):
        kind = KINDS[i % len(KINDS)]
        n = 5 + 55 * (i // len(KINDS)) // (BATCHES_PER_KIND - 1)
        k = tuple(1 + 10 * j // n for j in range(n))
        preimages, images, bad = [], [], []
        for j in range(BATCH_LINES):
            if rng.random() < BATCH_NON_MEMBER_RATE:
                line = emit(non_member(kind, k, rng))
                preimages.append(line)
                images.append(line)
                bad.append(j)
            else:
                path = member(kind, k, rng)
                preimages.append(emit(path))
                images.append(emit(sweep_ref(path)))
        out.append(
            {"kind": kind, "k": k, "preimages": preimages, "images": images, "bad": bad}
        )
    return out


def certify_grid(seed: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every grid family once: rise multisets in a seeded order, each with
    its kinds in turn.

    The minus kind is skipped where a scaled rise n*k_i - 1 would be 0.
    """
    multisets = [
        k
        for n in range(1, GRID_MAX_N + 1)
        for k in itertools.combinations_with_replacement(range(1, GRID_MAX_K + 1), n)
    ]
    random.Random(f"certify-grid:{seed}").shuffle(multisets)
    return [
        (kind, k)
        for k in multisets
        for kind in KINDS
        if kind != "kminus" or all(len(k) * v >= 2 for v in k)
    ]


GENERATORS = {
    "invert-large": invert_large,
    "batch-cli": batch_cli,
    "certify-grid": certify_grid,
}


def digest(inputs) -> str:
    """A short fingerprint of a workload's inputs, to show two runs got the
    same ones."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]
