"""Shared helpers for the test suite."""

import itertools
import random
from collections import Counter, defaultdict

import pytest

from sweepmap import (
    Diagnostic,
    FamilySpec,
    StepSequence,
    SWWord,
    fill,
    oracle,
    to_minus,
    to_plus,
)
from sweepmap.tableau import _top_bounds


@pytest.fixture
def cold_oracle():
    """The oracle's closure memo, empty before the test and again after it."""
    oracle._closures.clear()
    yield
    oracle._closures.clear()


def counting(monkeypatch, calls, *bindings):
    """Count in calls[name] every call through each (module, name) binding."""
    for module, name in bindings:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def k_multisets(max_n, max_k):
    """All sorted rise multisets with at most max_n entries, each <= max_k."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(itertools.combinations_with_replacement(range(1, max_k + 1), n))
    return out


def family_grid(max_n, max_k):
    """One family per kind and multiset over the small grid.

    The minus kind is skipped where a scaled rise would collapse to zero.
    """
    fams = []
    for ms in k_multisets(max_n, max_k):
        fams.append(FamilySpec.vector(ms))
        fams.append(FamilySpec.plus(ms))
        if all(len(ms) * v >= 2 for v in ms):
            fams.append(FamilySpec.minus(ms))
    return fams


def fillings(k, increasing=True):
    """Every way to place 1..n+|k| into columns of heights k_i+1: increasing
    down each column, or in any order."""
    def place(rest, i):
        if i == len(k):
            yield ()
            return
        pick = itertools.combinations if increasing else itertools.permutations
        for col in pick(rest, k[i] + 1):
            left = [v for v in rest if v not in col]
            for tail in place(left, i + 1):
                yield (col,) + tail
    yield from place(list(range(1, len(k) + sum(k) + 1)), 0)


def validate_tableau(t):
    """The paper's conditions on a filled tableau, checked pair by pair: its
    entries are 1..size, its columns and top row increase, each top t_i is at
    most k_1+...+k_{i-1}+i, and the strip condition holds -- whenever d sits
    directly below a, no two of the values strictly between them share a column."""
    n = len(t.columns)
    size = t.size
    entries = [v for col in t.columns for v in col]
    if sorted(entries) != list(range(1, size + 1)):
        return Diagnostic(False, f"entries do not form 1..{size}")
    for i, col in enumerate(t.columns, start=1):
        for a, b in zip(col, col[1:]):
            if a >= b:
                return Diagnostic(False, f"column {i} is not strictly increasing", i)
    top = t.top_row
    for i in range(1, n):
        if top[i - 1] >= top[i]:
            return Diagnostic(False, "top row is not strictly increasing", i + 1)
    for i, (ti, bound) in enumerate(zip(top, _top_bounds(t.k)), start=1):
        if ti > bound:
            return Diagnostic(False, f"top entry {ti} exceeds its bound {bound}", i)
    col_of = {v: c for c, col in enumerate(t.columns, start=1) for v in col}
    for col in t.columns:
        for a, d in zip(col, col[1:]):
            seen = {}
            for v in range(a + 1, d):
                c = col_of[v]
                if c in seen:
                    return Diagnostic(
                        False,
                        f"strip violation {a} < {seen[c]} < {v} < {d}: "
                        f"{seen[c]} and {v} share column {c}",
                    )
                seen[c] = v
    return Diagnostic(True)


def top_row_tableau(top, k):
    """The tableau with top row top and heights k_i+1: fill's tableau of the
    word with S^{k_i} at position top_i and W everywhere else."""
    tops = dict(zip(top, k))
    size = len(k) + sum(k)
    return fill(SWWord(tuple(("S", tops[j]) if j in tops else ("W", 1)
                             for j in range(1, size + 1))))


def digraph_walk(t, r):
    """The plain walk restated on the rank digraph: its sigma, and whether
    every vertex is balanced (in-degree = out-degree = #indices of the rank).

    Index v of rank a topping a column of rise k gives the edge a -> a+k;
    every other index of rank b gives b -> b-1.  Write the largest index of
    rank 0, then, while the rank the last write's edge enters has unwritten
    indices, write the largest of them.
    """
    rank = (None, *r)  # rank[v] of index v
    target = [None] + [b - 1 for b in r]
    for v, k in zip(t.top_row, t.k):
        target[v] = rank[v] + k
    stacks = defaultdict(list)  # one edge leaves each index: out-degree = #indices
    for v in range(1, len(rank)):
        stacks[rank[v]].append(v)
    balanced = Counter(target[1:]) == Counter(rank[1:])
    sigma = [stacks[0].pop()]
    while stacks[target[sigma[-1]]]:
        sigma.append(stacks[target[sigma[-1]]].pop())
    return tuple(sigma), balanced


def flag_slide_walk(t, sign):
    """The plus walk (sign +1, on extend_plus's tableau) or the minus walk
    (sign -1) in the paper's words, sliding one entry at a time.

    A column's designated bottom is its last entry, except that on the plus
    side the column ending at the largest entry takes the entry above it.
    Entries b + sign for a designated bottom b are flagged.  Write 1.  From a
    top, write its column's b + sign, flagged or not; from any other entry
    step up one box, and while the entry there is flagged, move on to the
    entry sign less.  Stop when the next write would repeat an entry.
    """
    size = t.size
    jump = {col[0]: (col[-2] if sign > 0 and col[-1] == size else col[-1]) + sign
            for col in t.columns}
    flagged = set(jump.values())
    up = {v: a for col in t.columns for a, v in zip(col, col[1:])}
    sigma, written = [1], {1}
    while True:
        cur = sigma[-1]
        if cur in jump:
            nxt = jump[cur]
        else:
            nxt = up[cur]
            while nxt in flagged:
                nxt -= sign
        if nxt in written:
            return tuple(sigma)
        sigma.append(nxt)
        written.add(nxt)


def _good_rotation(seq, c, rng):
    """seq (total -c, drops of 1) rotated uniformly to one of its c rotations
    whose proper prefix sums all stay above -c (the cycle lemma).

    Those rotations start right after the first visits of the c lowest
    levels that the prefix sums reach before the last step.
    """
    first_visit = {0: 0}
    h = 0
    for j, a in enumerate(seq[:-1], start=1):
        h += a
        first_visit.setdefault(h, j)
    r = first_visit[min(first_visit) + rng.randrange(c)]
    return seq[r:] + seq[:r]


def uniform_member(family, rng):
    """A uniform path of the family's permutation closure.

    The plain path under it is drawn by the cycle lemma (Dvoretzky-Motzkin):
    the rises shuffled with sum(k)+1 unit drops have exactly one rotation
    that stays nonnegative until its final drop, which is removed.  The
    minus kind needs a plain path that returns to level 0 only at its end:
    its first rise a is drawn with weight a, the share of such paths that
    start with it, and the rest, of total -a, takes one of its a good
    rotations.
    """
    k = list(family.k)
    if family.kind == "kminus":
        a = k.pop(rng.choices(range(len(k)), weights=k)[0])
        rest = k + [-1] * sum(family.k)
        rng.shuffle(rest)
        plain = [a] + _good_rotation(rest, a, rng)
    else:
        seq = k + [-1] * (sum(k) + 1)
        rng.shuffle(seq)
        plain = _good_rotation(seq, 1, rng)[:-1]
    plain = StepSequence(tuple(plain))
    if family.kind == "kplus":
        return to_plus(plain, plain.rises)
    if family.kind == "kminus":
        return to_minus(plain, plain.rises)
    return plain


def random_path(k, rng: random.Random) -> StepSequence:
    """A pseudo-random plain-family path with the given rises, in order.

    Not uniform over the family; every member has positive probability.
    """
    k = tuple(k)
    n_down = sum(k)
    path: list[int] = []
    i_up, used_down, h = 0, 0, 0
    while i_up < len(k) or used_down < n_down:
        can_up = i_up < len(k)
        can_down = used_down < n_down and h >= 1
        if can_up and (not can_down or rng.random() < 0.5):
            path.append(k[i_up])
            h += k[i_up]
            i_up += 1
        else:
            path.append(-1)
            h -= 1
            used_down += 1
    return StepSequence(tuple(path))
