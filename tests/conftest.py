"""Shared helpers for the test suite."""

import itertools

from sweepmap import FamilySpec, StepSequence, from_minus, from_plus, to_minus, to_plus


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


def skeleton_of(path, family):
    """The plain path a family member unscales to (identity for the k kind)."""
    if family.kind == "kplus":
        return from_plus(path)
    if family.kind == "kminus":
        return from_minus(path)
    return path


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
